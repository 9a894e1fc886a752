//go:build race

package tkv

// raceEnabled reports that the race detector is on; its instrumentation
// allocates per access and sync.Pool drops items at random under it, so
// allocation gates and same-state-reuse checks are meaningless there.
const raceEnabled = true
