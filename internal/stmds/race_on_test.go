//go:build race

package stmds

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation allocates: the allocation gate skips
// itself under it.
const raceEnabled = true
