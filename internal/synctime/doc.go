// Package synctime runs tests in simulated time: the bubbles of the Go
// toolchain's synctest package, which exists only when the toolchain runs
// with GOEXPERIMENT=synctest (go1.24). Everything else in the repository
// reaches those bubbles through this package, so when the API graduates
// out of the experiment (it changes then) one file moves with it.
//
// Without the experiment the package holds only PipeListener, the
// in-memory listener bubble tests serve the wire over, and the tests that
// use the bubbles are left out of the build by the same constraint:
//
//	GOEXPERIMENT=synctest go test ./internal/tkvwal/ ./internal/tkv/ ./internal/tkvwire/ ./internal/tkvrepl/
//
// runs them (bash ci/gates.sh synctest runs them at 1, 2 and 4
// processors, plain and under -race).
package synctime
