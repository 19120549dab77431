//go:build race

package bwtree

// raceEnabled reports whether the race detector instruments this build;
// the single-driver crash sweeps stride their crash points when it does
// — the detector adds nothing to a sequential replay but slows it ~50x.
const raceEnabled = true
