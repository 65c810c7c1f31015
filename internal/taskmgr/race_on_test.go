//go:build race

package taskmgr

// raceEnabled reports whether the race detector is compiled in; the
// round-trip alloc gate skips itself under -race because instrumentation
// inflates allocation counts far past the committed baseline.
const raceEnabled = true
