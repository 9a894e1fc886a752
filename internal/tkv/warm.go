package tkv

import "github.com/shrink-tm/shrink/internal/stmds"

// WarmMax is the most keys one Warm call walks abreast; it ignores the rest.
const WarmMax = 16

// warmBytes bounds how much of a value Warm touches. A Get copies every
// byte, but past the first few lines the hardware's stream prefetcher keeps
// ahead of a sequential copy by itself.
const warmBytes = 256

// Warm pulls into cache what Gets of keys will read: each key's bucket slot,
// node, value cell and the first warmBytes of its value, for the first
// WarmMax keys. It takes one hop at a time across all the keys (every slot,
// then every node, every cell, every value), so their cache misses overlap
// instead of each Get paying its own in turn: on a store far larger than
// the caches, a cohort of eight gets costs about half as much warmed as
// cold (EXPERIMENTS.md, "Warm cohorts").
//
// It reads outside any transaction, takes no lock, and changes nothing: a
// Get after it returns exactly what it would have returned without it, only
// sooner when the path was cold. A writer racing it at worst leaves the
// lines of a replaced value warm. The keys are counted in
// Stats().Ops.Warmed.
//
// The result folds the bytes read, for the caller to keep: a caller that
// drops it lets the compiler drop the loads.
func (st *Store) Warm(keys []uint64) uint64 {
	keys = keys[:min(len(keys), WarmMax)]
	st.ops.warmed.Add(uint64(len(keys)))
	var probes [WarmMax]stmds.Probe[string]
	var cells [WarmMax]*string
	var vals [WarmMax]string
	for i, k := range keys {
		probes[i] = st.shardFor(k).kv.Probe(k)
	}
	for i := range keys {
		cells[i] = probes[i].Cell()
	}
	for i, c := range cells[:len(keys)] {
		if c != nil {
			vals[i] = *c
		}
	}
	var sum uint64
	for _, v := range vals[:len(keys)] {
		if v == "" {
			continue
		}
		n := min(len(v), warmBytes)
		for j := 0; j < n; j += 64 {
			sum += uint64(v[j])
		}
		sum += uint64(v[n-1])
	}
	return sum
}
