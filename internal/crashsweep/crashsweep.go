// Package crashsweep is a whole-stack fault-injection harness: it drives
// real workloads against a persistent Store and simulates a power failure
// at every mutating device operation along the trace, verifying after each
// that recovery restores a structurally sound store whose logical contents
// are durably linearizable.
//
// Mechanism: a device Hook fires before every store, CAS and flush. At the
// N-th such operation the harness snapshots the workload oracle (the set of
// acknowledged operations plus the at-most-one operation in flight) and
// clones the device's persisted image (nvram.CloneCrashed) — exactly what a
// power failure at that instant would leave. The clone is reopened with
// pmwcas.OpenDevice, which rebuilds the allocators and runs PMwCAS
// recovery, and then audited with Store.CheckInvariants. The recovered contents must equal the
// oracle's model, or the model with the pending operation applied; anything
// else is a lost acknowledgement or a torn operation. The live device never
// notices — the workload resumes from the very operation that "crashed",
// so one trace of K device operations yields K independent crash tests.
//
// Every run is deterministic in (Options.Seed, Options.Ops): workload RNGs,
// skip list tower heights, and the opportunistic-eviction RNG all derive
// from the seed, so a violation at crash point N is reproduced by rerunning
// with the same seed and Point=N.
package crashsweep

import (
	"fmt"
	"sync"

	"pmwcas"
	"pmwcas/internal/nvram"
)

// Options configures a sweep.
type Options struct {
	// Ops is the number of logical operations each workload drives
	// (default 100).
	Ops int
	// Seed fixes every random choice in the sweep (default 1).
	Seed int64
	// Workloads selects which workloads run, by name (nil = all; see
	// Names).
	Workloads []string
	// Shard/Shards split the crash points across parallel sweep
	// processes: this process checks points where point % Shards ==
	// Shard. Shards defaults to 1 (check everything).
	Shard, Shards int
	// Point, if > 0, checks only that crash point — the reproduction
	// knob for a pinned finding. Point 0 of a violation report denotes
	// the final post-trace crash.
	Point int
	// EvictEvery enables opportunistic cache-line eviction on the live
	// device at roughly one line per N stores (0 = off). Evictions are
	// seeded from Seed, so sweeps stay reproducible.
	EvictEvery int
	// MaxViolations stops checking a workload after this many findings
	// (default 20); the trace still runs to completion.
	MaxViolations int
	// Logf, if set, receives one progress line per workload.
	Logf func(format string, args ...any)
}

func (o *Options) fill() error {
	if o.Ops <= 0 {
		o.Ops = 100
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Shard < 0 || o.Shard >= o.Shards {
		return fmt.Errorf("crashsweep: shard %d outside [0,%d)", o.Shard, o.Shards)
	}
	if o.MaxViolations <= 0 {
		o.MaxViolations = 20
	}
	if o.Workloads == nil {
		o.Workloads = Names()
	}
	return nil
}

// Violation pins one finding: rerunning the sweep with the same Seed and
// Point=Point on workload Workload reproduces it exactly.
type Violation struct {
	Workload string
	Point    int // crash point (device-op ordinal); 0 = final post-trace crash
	Seed     int64
	Err      error
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: seed %d, crash point %d: %v", v.Workload, v.Seed, v.Point, v.Err)
}

// Result summarizes a sweep.
type Result struct {
	// Points counts the mutating device operations the traces produced
	// (the crash points that exist, before shard/point filtering).
	Points int
	// Checked counts the crash images actually recovered and audited.
	Checked int
	// MidRecoveryChecked counts the additional images taken *between*
	// shard recoveries (multi-shard workloads only) that were recovered
	// from scratch and audited.
	MidRecoveryChecked int
	// Violations holds every finding, pinned for reproduction.
	Violations []Violation
}

// storeConfig is the store every workload runs against: small enough that
// cloning and re-recovering at every crash point stays fast, big enough
// for a few hundred operations of any workload.
func storeConfig(opt Options) pmwcas.Config {
	cfg := pmwcas.Config{
		Size:        1 << 19,
		Descriptors: 64,
	}
	if opt.EvictEvery > 0 {
		cfg.EvictEvery = opt.EvictEvery
		cfg.EvictSeed = opt.Seed
	}
	return cfg
}

// Run executes the sweep and reports every violation found. An error
// return means the harness itself failed (a workload operation errored
// unexpectedly, or the options are invalid) — distinct from violations,
// which are recovery bugs in the store.
func Run(opt Options) (*Result, error) {
	if err := opt.fill(); err != nil {
		return nil, err
	}
	res := &Result{}
	for _, name := range opt.Workloads {
		w, ok := workloadByName(name)
		if !ok {
			return nil, fmt.Errorf("crashsweep: unknown workload %q (have %v)", name, Names())
		}
		s, err := sweepWorkload(opt, w)
		if err != nil {
			return nil, fmt.Errorf("crashsweep: workload %s: %w", name, err)
		}
		res.Points += s.step
		res.Checked += s.checked
		res.MidRecoveryChecked += s.midChecked
		res.Violations = append(res.Violations, s.violations...)
		if opt.Logf != nil {
			opt.Logf("%s: %d crash points, %d checked (%d re-crashed mid-recovery), %d violations",
				name, s.step, s.checked, s.midChecked, len(s.violations))
		}
	}
	return res, nil
}

// sweeper carries the per-workload sweep state shared between the driving
// goroutine and the device hook (which, for the server workload, fires on
// the connection goroutine).
type sweeper struct {
	opt Options
	w   workload
	cfg pmwcas.Config
	dev *pmwcas.Device
	o   oracle

	mu         sync.Mutex
	step       int
	checked    int
	midChecked int // recoveries re-crashed between shard recoveries
	violations []Violation
}

func sweepWorkload(opt Options, w workload) (*sweeper, error) {
	cfg := storeConfig(opt)
	if w.shards > 1 {
		cfg.Shards = w.shards
		cfg.Size *= uint64(w.shards) // keep the per-shard budget constant
	}
	st, err := pmwcas.Create(cfg)
	if err != nil {
		return nil, err
	}
	s := &sweeper{opt: opt, w: w, cfg: cfg, dev: st.Device(), o: w.newOracle()}

	// Install the hook before the workload opens its index, so first-use
	// initialization is swept too — historically the buggiest window.
	s.dev.SetHook(s.hook)
	werr := w.run(st, s.o, opt)
	s.dev.SetHook(nil)
	if werr != nil {
		return nil, werr
	}

	// Final crash point (reported as Point 0): power failure after the
	// last acknowledged operation, once on a clone and once in place via
	// Store.Crash/Store.Recover — the latter exercises the recover-in-
	// process path (substrate swap + stale-handle poisoning) that
	// OpenDevice does not.
	if opt.Point <= 0 {
		sn := s.o.snapshot()
		if err := s.check(s.dev.CloneCrashed(), sn); err != nil {
			s.violations = append(s.violations, Violation{Workload: w.name, Point: 0, Seed: opt.Seed, Err: err})
		}
		s.checked++
		if err := st.Crash(); err != nil {
			return nil, err
		}
		if _, err := st.Recover(); err != nil {
			s.violations = append(s.violations, Violation{
				Workload: w.name, Point: 0, Seed: opt.Seed,
				Err: fmt.Errorf("in-place recovery: %w", err),
			})
			return s, nil
		}
		ds, err := st.CheckInvariants(w.copts)
		if err == nil {
			err = sn.match(ds)
		}
		if err != nil {
			s.violations = append(s.violations, Violation{
				Workload: w.name, Point: 0, Seed: opt.Seed,
				Err: fmt.Errorf("in-place recovery: %w", err),
			})
		}
		s.checked++
	}
	return s, nil
}

// hook is the failpoint: called before every mutating device operation of
// the live store. The workload goroutine is inside the device call, so
// the world is effectively stopped — the persisted image cannot change
// until the hook returns, making the snapshot+clone pair a consistent cut.
func (s *sweeper) hook(_ string, _ nvram.Offset) {
	s.mu.Lock()
	s.step++
	k := s.step
	full := len(s.violations) >= s.opt.MaxViolations
	s.mu.Unlock()
	if full {
		return
	}
	if s.opt.Point > 0 && k != s.opt.Point {
		return
	}
	if s.opt.Shards > 1 && k%s.opt.Shards != s.opt.Shard {
		return
	}
	sn := s.o.snapshot()
	clone := s.dev.CloneCrashed()
	err := s.check(clone, sn)
	s.mu.Lock()
	s.checked++
	if err != nil {
		s.violations = append(s.violations, Violation{Workload: s.w.name, Point: k, Seed: s.opt.Seed, Err: err})
	}
	s.mu.Unlock()
}

// check recovers a crashed image and audits it: reopen (allocator +
// PMwCAS recovery), verify structural invariants across every layer, and
// match the extracted logical contents against the oracle snapshot.
//
// On a multi-shard store, recovery runs shard by shard, which opens a
// crash window no single-shard sweep can reach: power failing again
// after shard i recovered but before shard i+1 did. The recovery hook
// captures the persisted image at each such boundary, and every captured
// image is recovered from scratch and held to the same oracle — partial
// recovery must itself be a recoverable state.
func (s *sweeper) check(clone *nvram.Device, sn snap) error {
	cfg := s.cfg
	var mids []*nvram.Device
	if cfg.Shards > 1 {
		last := cfg.Shards - 1
		cfg.RecoveryHook = func(shard int) {
			if shard < last {
				mids = append(mids, clone.CloneCrashed())
			}
		}
	}
	cs, err := pmwcas.OpenDevice(clone, cfg)
	if err != nil {
		return fmt.Errorf("reopening crashed image: %w", err)
	}
	ds, err := cs.CheckInvariants(s.w.copts)
	if err != nil {
		return err
	}
	if err := sn.match(ds); err != nil {
		return err
	}
	for i, mid := range mids {
		ms, err := pmwcas.OpenDevice(mid, s.cfg)
		if err != nil {
			return fmt.Errorf("re-crash between shard %d and %d recoveries: reopen: %w", i, i+1, err)
		}
		mds, err := ms.CheckInvariants(s.w.copts)
		if err == nil {
			err = sn.match(mds)
		}
		if err != nil {
			return fmt.Errorf("re-crash between shard %d and %d recoveries: %w", i, i+1, err)
		}
		s.mu.Lock()
		s.midChecked++
		s.mu.Unlock()
	}
	return nil
}
