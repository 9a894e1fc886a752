package tkv

// MGet reads many keys in one request: the keys are grouped by owning
// shard and each group is read in a single read-only snapshot transaction
// (with the adaptive update-path fallback under RO restart streaks), so an
// n-key read costs one transaction per touched shard instead of n.
// Results are returned in input order; duplicates are allowed and answered
// independently.
//
// Consistency matches the other multi-shard readers: the keys' stripes are
// held in shared mode across all per-shard reads, so the result can never
// observe a partially applied batch on the requested keys; each shard's
// group is an atomic cut, but the cut is not strictly serializable across
// shards (see the package comment).
//
// It plans through the same pooled batchState as Batch (grouping, stripe
// set and the read bodies are the get-only batch's), so the result slice
// it returns is the call's only allocation.
func (st *Store) MGet(keys []uint64) ([]OpResult, error) {
	st.ops.mgets.Add(1)
	st.ops.mgetKeys.Add(uint64(len(keys)))
	if len(keys) == 0 {
		return nil, nil
	}
	b := st.batch()
	defer b.release()
	b.keys = append(b.keys, keys...)
	b.plan()
	results := make([]OpResult, len(keys))
	b.results = results
	if err := b.readGroups(); err != nil {
		return nil, err
	}
	return results, nil
}
