//go:build !race

package crashsweep

const raceEnabled = false
