package stm

// Snap returns the attempt's snapshot timestamp (diagnostics and tests).
func (tx *ROTx) Snap() uint64 { return tx.snap }
