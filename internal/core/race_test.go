//go:build race

package core

// raceEnabled reports whether the race detector instruments this
// build; allocation-count gates are skipped under it because the
// instrumentation itself allocates.
const raceEnabled = true
