package samebody

import (
	"testing"

	"pmwcas/internal/epoch"
)

// Pairing binds in test files too: a test that leaves its guard open pins
// the epoch for every later test in the binary.
func TestBadOpenGuard(t *testing.T) {
	g := epoch.NewManager().Register()
	g.Enter() // want `g\.Enter\(\) is not matched by an Exit on every return path`
	if testing.Short() {
		return
	}
	g.Exit()
}

// A failing test path that panics may leave the guard open.
func TestGoodPanicPath(t *testing.T) {
	g := epoch.NewManager().Register()
	g.Enter()
	if testing.Short() {
		panic("unreachable in this fixture")
	}
	g.Exit()
}
