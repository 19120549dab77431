// Pairing fixture for the guardfact analyzer: Enter/Exit balance on all
// return paths, and guards escaping to other goroutines.
package samebody

import (
	"errors"

	"pmwcas/internal/epoch"
)

var errBusy = errors.New("busy")

func badEarlyReturn(m *epoch.Manager, fail bool) error {
	g := m.Register()
	g.Enter() // want `g\.Enter\(\) is not matched by an Exit on every return path`
	if fail {
		return errBusy
	}
	g.Exit()
	return nil
}

func goodDeferred(m *epoch.Manager, fail bool) error {
	g := m.Register()
	g.Enter()
	defer g.Exit()
	if fail {
		return errBusy
	}
	return nil
}

func goodBalanced(m *epoch.Manager, fail bool) error {
	g := m.Register()
	g.Enter()
	if fail {
		g.Exit()
		return errBusy
	}
	g.Exit()
	return nil
}

// goodPanicPath: a panicking path may leave the guard open — the process
// is going down.
func goodPanicPath(m *epoch.Manager, fail bool) {
	g := m.Register()
	g.Enter()
	if fail {
		panic("invariant broken")
	}
	g.Exit()
}

func badGoArg(m *epoch.Manager) {
	g := m.Register()
	go pinAndWork(g) // want `epoch\.Guard passed as an argument to a goroutine`
}

func badCapture(m *epoch.Manager) {
	g := m.Register()
	go func() {
		pinAndWork(g) // want `epoch\.Guard captured by a goroutine closure`
	}()
}

// goodGoroutineLocal registers inside the new goroutine — the blessed
// pattern.
func goodGoroutineLocal(m *epoch.Manager) {
	go func() {
		g := m.Register()
		g.Enter()
		defer g.Exit()
	}()
}

func goodSuppressed(m *epoch.Manager) {
	g := m.Register()
	//lint:allow guardfact — the guard is exited by the paired completion callback
	g.Enter()
}

func pinAndWork(g *epoch.Guard) {
	g.Enter()
	defer g.Exit()
}
