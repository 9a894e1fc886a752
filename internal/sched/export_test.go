package sched

import "github.com/shrink-tm/shrink/internal/stm"

// WriteSetOf returns the view an engine hands the hooks after an attempt
// that wrote vars.
func WriteSetOf(vars ...*stm.Var) stm.WriteSet {
	var w stm.WriteIndex
	for _, v := range vars {
		w.Add(v)
	}
	return w.Set()
}

// WaitCount returns the current number of threads that decided to serialize
// (the contention signal driving serialization affinity).
func (s *Shrink) WaitCount() int64 { return s.waitCount.Load() }

// SuccessRate returns the thread's current success-rate estimate (for tests
// and introspection).
func (s *Shrink) SuccessRate(t *stm.ThreadCtx) float64 {
	if st := s.state(t); st != nil {
		return st.succRate
	}
	return 0
}
