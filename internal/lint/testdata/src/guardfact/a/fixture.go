// Upstream fixture for the guardfact analyzer: a store with one
// PMwCAS-managed link word, an annotated dereference helper (exports
// RequiresGuard), a parameterized reader (exports ReadsWord), and
// in-package dominance violations.
package a

import (
	"pmwcas/internal/core"
	"pmwcas/internal/epoch"
	"pmwcas/internal/nvram"
)

// Store owns one PMwCAS-managed link word in epoch-protected arena.
type Store struct {
	Dev  *nvram.Device
	Mgr  *epoch.Manager
	Link nvram.Offset
}

// Publish swaps the link through the protocol, making Link a managed
// fingerprint in this package.
func (s *Store) Publish(old, new uint64) bool {
	return core.PCAS(s.Dev, s.Link, old, new)
}

// ReadLink dereferences the link word on the caller's behalf.
//
//pmwcas:requires-guard — the link target may be reclaimed once the epoch advances
func (s *Store) ReadLink() uint64 {
	return core.PCASRead(s.Dev, s.Link)
}

// ReadAt reads a protocol word whose offset the caller chooses; exports
// ReadsWord[0], so call sites passing a managed offset are checked.
func (s *Store) ReadAt(addr nvram.Offset) uint64 {
	return core.PCASRead(s.Dev, addr)
}

func (s *Store) badUnguarded() uint64 {
	return core.PCASRead(s.Dev, s.Link) // want `read of PMwCAS-managed word .* is not dominated by an active Guard\.Enter`
}

func (s *Store) goodGuarded() uint64 {
	g := s.Mgr.Register()
	g.Enter()
	defer g.Exit()
	return core.PCASRead(s.Dev, s.Link)
}

// badSomePath: the guard is held on only one of the two paths into the
// read; must-dominance fails. The two conditions are not correlated by
// the CFG, so pairing also sees a path that returns with the guard open.
func (s *Store) badSomePath(cond bool) uint64 {
	g := s.Mgr.Register()
	if cond {
		g.Enter() // want `g\.Enter\(\) is not matched by an Exit on every return path`
	}
	v := core.PCASRead(s.Dev, s.Link) // want `read of PMwCAS-managed word .* is not dominated by an active Guard\.Enter`
	if cond {
		g.Exit()
	}
	return v
}

// badAfterExit: an intervening Exit kills the dominating Enter.
func (s *Store) badAfterExit() uint64 {
	g := s.Mgr.Register()
	g.Enter()
	g.Exit()
	return core.PCASRead(s.Dev, s.Link) // want `read of PMwCAS-managed word .* is not dominated by an active Guard\.Enter`
}

// goodReenter: the epoch-pause idiom — Exit, let reclamation advance,
// Enter again before the next read. Every read is dominated.
func (s *Store) goodReenter(n int) uint64 {
	g := s.Mgr.Register()
	g.Enter()
	defer g.Exit()
	var v uint64
	for i := 0; i < n; i++ {
		v = core.PCASRead(s.Dev, s.Link)
		g.Exit()
		g.Enter()
	}
	return v
}

// badGoroutine: the spawner's guard does not travel into the goroutine.
func (s *Store) badGoroutine() {
	g := s.Mgr.Register()
	g.Enter()
	defer g.Exit()
	go func() {
		_ = core.PCASRead(s.Dev, s.Link) // want `inside a goroutine with no active epoch guard`
	}()
}

func (s *Store) goodGoroutine() {
	go func() {
		g := s.Mgr.Register()
		g.Enter()
		defer g.Exit()
		_ = core.PCASRead(s.Dev, s.Link)
	}()
}

// badGoCall: starting an annotated function as a goroutine can never
// satisfy its contract — the guard held here is goroutine-affine.
func (s *Store) badGoCall() {
	g := s.Mgr.Register()
	g.Enter()
	defer g.Exit()
	go s.ReadLink() // want `started as a goroutine; the spawner's guard is goroutine-affine`
}

// goodSuppressed: the single-threaded open path may peek before any
// concurrent reclaimer exists.
func (s *Store) goodSuppressed() uint64 {
	//lint:allow guardfact — single-threaded open path; no reclaimer is running yet
	return core.PCASRead(s.Dev, s.Link)
}
