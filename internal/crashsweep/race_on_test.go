//go:build race

package crashsweep

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
