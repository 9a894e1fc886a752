package tkv

// MGet reads many keys in one request: one read-only snapshot transaction
// over every key, whatever shards they fall in (with the adaptive
// update-path fallback of the first key group's shard under RO restart
// streaks), so an n-key read costs one transaction instead of n. Results
// are returned in input order; duplicates are allowed and answered
// independently.
//
// The result is an atomic cut across its shards: the store runs one
// engine, so the transaction reads every key at one instant of its clock,
// and never observes part of a batch.
//
// It goes through the same pooled batchState as Batch (grouping and the
// read bodies are the get-only batch's), so the result slice it returns is
// the call's only allocation.
func (st *Store) MGet(keys []uint64) ([]OpResult, error) {
	st.ops.mgets.Add(1)
	st.ops.mgetKeys.Add(uint64(len(keys)))
	if len(keys) == 0 {
		return nil, nil
	}
	b := st.batch()
	defer b.release()
	b.keys = append(b.keys, keys...)
	b.group()
	results := make([]OpResult, len(keys))
	b.results = results
	if err := b.read(); err != nil {
		return nil, err
	}
	return results, nil
}
