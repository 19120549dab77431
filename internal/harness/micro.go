package harness

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pmwcas/internal/core"
	"pmwcas/internal/htm"
	"pmwcas/internal/nvram"
)

// MicroVariant names a multi-word-CAS implementation under test in the
// microbenchmarks (E1-E4).
type MicroVariant string

// Microbenchmark variants.
const (
	// VariantPMwCAS is the persistent multi-word CAS.
	VariantPMwCAS MicroVariant = "pmwcas"
	// VariantMwCAS is the identical code with persistence disabled.
	VariantMwCAS MicroVariant = "mwcas"
	// VariantHTM is the simulated hardware-transactional MwCAS.
	VariantHTM MicroVariant = "htm"
)

// MicroConfig describes one microbenchmark cell.
type MicroConfig struct {
	Variant    MicroVariant
	Threads    int
	OpsPer     int // attempts per thread
	ArrayWords int // shared word-array size — the contention knob
	WordsPerOp int // words per MwCAS (descriptor size)

	FlushLatency time.Duration // simulated CLWB cost; the mwcas variant's volatile device never pays it
	HTM          htm.Config    // HTM knobs (htm only)

	// YieldEvery interleaves logical threads every N device accesses so
	// contention manifests on hosts with fewer cores than threads.
	YieldEvery int

	Descriptors int // pool size; default 4 x threads (paper §5.1)
}

// MicroResult is one measured microbenchmark cell.
type MicroResult struct {
	Variant     MicroVariant
	Threads     int
	Attempts    int
	Succeeded   int
	Elapsed     time.Duration
	OpsPerSec   float64 // successful operations per second
	SuccessRate float64
	FlushesPer  float64 // device flushes per attempt
	HelpsPer    float64 // cooperative helps per attempt (descriptor modes)
	HTMStats    htm.Stats
}

// RunMicro executes one microbenchmark cell: each thread repeatedly picks
// WordsPerOp distinct random words from the shared array, reads them, and
// attempts to advance each by one in a single multi-word CAS. Failed
// attempts are counted, not retried — the success rate under contention
// is itself a measurement.
func RunMicro(cfg MicroConfig) (MicroResult, error) {
	if cfg.Threads <= 0 || cfg.OpsPer <= 0 {
		return MicroResult{}, fmt.Errorf("harness: bad micro config %+v", cfg)
	}
	if cfg.ArrayWords < cfg.WordsPerOp {
		return MicroResult{}, fmt.Errorf("harness: array %d < words per op %d", cfg.ArrayWords, cfg.WordsPerOp)
	}
	if cfg.Descriptors == 0 {
		cfg.Descriptors = 4 * cfg.Threads
	}

	var opts []nvram.Option
	mode := core.Persistent
	if cfg.Variant == VariantMwCAS {
		mode = core.Volatile
		opts = append(opts, nvram.WithVolatile())
	}
	if cfg.FlushLatency > 0 {
		opts = append(opts, nvram.WithFlushLatency(cfg.FlushLatency))
	}
	if cfg.YieldEvery > 0 {
		opts = append(opts, nvram.WithYield(cfg.YieldEvery))
	}
	poolBytes := core.PoolSize(cfg.Descriptors, cfg.WordsPerOp)
	dev := nvram.New(poolBytes+uint64(cfg.ArrayWords)*nvram.WordSize+1<<12, opts...)
	layout := nvram.NewLayout(dev)
	poolReg := layout.Carve(poolBytes)
	arrReg := layout.Carve(uint64(cfg.ArrayWords) * nvram.WordSize)
	dev.FlushAll()

	addrAt := func(i int) nvram.Offset { return arrReg.Base + nvram.Offset(i)*nvram.WordSize }

	res := MicroResult{Variant: cfg.Variant, Threads: cfg.Threads}
	succ := make([]int, cfg.Threads)
	var wg sync.WaitGroup
	flushes0 := dev.Stats().Flushes

	switch cfg.Variant {
	case VariantPMwCAS, VariantMwCAS:
		pool, err := core.NewPool(core.Config{
			Device: dev, Region: poolReg,
			DescriptorCount: cfg.Descriptors, WordsPerDescriptor: cfg.WordsPerOp,
			Mode: mode,
		})
		if err != nil {
			return MicroResult{}, err
		}
		start := time.Now()
		for t := 0; t < cfg.Threads; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				h := pool.NewHandle()
				rng := rand.New(rand.NewSource(int64(t)*6151 + 3))
				idx := make([]int, cfg.WordsPerOp)
				for i := 0; i < cfg.OpsPer; i++ {
					pickDistinct(rng, cfg.ArrayWords, idx)
					// An exhausted pool is reclamation lag, not contention:
					// wait it out without spending the attempt, so the
					// success rate is succeeded / executed.
					d, err := h.AllocateDescriptor(0)
					for err != nil {
						pool.ReclaimPause()
						d, err = h.AllocateDescriptor(0)
					}
					okBuild := true
					for _, w := range idx {
						a := addrAt(w)
						v := h.Read(a)
						if d.AddWord(a, v, v+1) != nil {
							okBuild = false
							break
						}
					}
					if !okBuild {
						d.Discard()
						continue
					}
					if ok, _ := d.Execute(); ok {
						succ[t]++
					}
				}
			}(t)
		}
		wg.Wait()
		res.Elapsed = time.Since(start)
		s := pool.Stats()
		res.HelpsPer = float64(s.Helps) / float64(cfg.Threads*cfg.OpsPer)

	case VariantHTM:
		tm := htm.New(dev, cfg.HTM)
		start := time.Now()
		for t := 0; t < cfg.Threads; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				h := tm.NewHandle(int64(t)*6151 + 3)
				rng := rand.New(rand.NewSource(int64(t)*12289 + 5))
				idx := make([]int, cfg.WordsPerOp)
				addrs := make([]nvram.Offset, cfg.WordsPerOp)
				olds := make([]uint64, cfg.WordsPerOp)
				news := make([]uint64, cfg.WordsPerOp)
				for i := 0; i < cfg.OpsPer; i++ {
					pickDistinct(rng, cfg.ArrayWords, idx)
					for j, w := range idx {
						addrs[j] = addrAt(w)
						olds[j] = h.Read(addrs[j])
						news[j] = olds[j] + 1
					}
					if h.MwCAS(addrs, olds, news) {
						succ[t]++
					}
				}
			}(t)
		}
		wg.Wait()
		res.Elapsed = time.Since(start)
		res.HTMStats = tm.Stats()

	default:
		return MicroResult{}, fmt.Errorf("harness: unknown variant %q", cfg.Variant)
	}

	res.Attempts = cfg.Threads * cfg.OpsPer
	for _, s := range succ {
		res.Succeeded += s
	}
	res.SuccessRate = float64(res.Succeeded) / float64(res.Attempts)
	res.OpsPerSec = float64(res.Succeeded) / res.Elapsed.Seconds()
	res.FlushesPer = float64(dev.Stats().Flushes-flushes0) / float64(res.Attempts)
	return res, nil
}

// pickDistinct fills idx with distinct values in [0, n).
func pickDistinct(rng *rand.Rand, n int, idx []int) {
	for i := range idx {
	retry:
		v := rng.Intn(n)
		for j := 0; j < i; j++ {
			if idx[j] == v {
				goto retry
			}
		}
		idx[i] = v
	}
}

// RecoveryBench measures single-threaded recovery time as a function of
// in-flight operations at the crash (experiment E7).
type RecoveryBench struct {
	PoolSize int
	InFlight int // descriptors mid-operation when the crash hits
	Words    int // words per descriptor
}

// RecoveryResult reports one recovery measurement.
type RecoveryResult struct {
	PoolSize  int
	InFlight  int
	Elapsed   time.Duration
	Repaired  int
	PerDesc   time.Duration // elapsed / pool size (scan cost dominates)
	CorrectOK bool
}

// RunRecovery builds a pool, freezes InFlight operations mid-Phase-1 (by
// crashing the device while their descriptor pointers are installed),
// then measures a full recovery pass.
func RunRecovery(cfg RecoveryBench) (RecoveryResult, error) {
	if cfg.Words == 0 {
		cfg.Words = 4
	}
	if cfg.InFlight > cfg.PoolSize {
		return RecoveryResult{}, fmt.Errorf("harness: in-flight %d > pool %d", cfg.InFlight, cfg.PoolSize)
	}
	poolBytes := core.PoolSize(cfg.PoolSize, cfg.Words)
	words := cfg.InFlight*cfg.Words + 8
	dev := nvram.New(poolBytes + uint64(words)*nvram.WordSize + 1<<12)
	layout := nvram.NewLayout(dev)
	poolReg := layout.Carve(poolBytes)
	arrReg := layout.Carve(uint64(words) * nvram.WordSize)
	dev.FlushAll()

	pool, err := core.NewPool(core.Config{
		Device: dev, Region: poolReg,
		DescriptorCount: cfg.PoolSize, WordsPerDescriptor: cfg.Words,
		Mode: core.Persistent,
	})
	if err != nil {
		return RecoveryResult{}, err
	}
	h := pool.NewHandle()

	// Freeze InFlight operations mid-flight: run each under a failpoint
	// that cuts the power during Phase 2, leaving descriptor pointers in
	// some target words and a mix of Undecided/Succeeded descriptors.
	for i := 0; i < cfg.InFlight; i++ {
		base := arrReg.Base + nvram.Offset(i*cfg.Words)*nvram.WordSize
		d, err := h.AllocateDescriptor(0)
		if err != nil {
			return RecoveryResult{}, err
		}
		for w := 0; w < cfg.Words; w++ {
			if err := d.AddWord(base+nvram.Offset(w)*nvram.WordSize, 0, uint64(i+1)); err != nil {
				return RecoveryResult{}, err
			}
		}
		stopAt := 6 + i%10 // vary the interruption point across descriptors
		step := 0
		func() {
			defer func() { recover() }()
			dev.SetHook(func(op string, off nvram.Offset) {
				step++
				if step == stopAt {
					panic("cut")
				}
			})
			defer dev.SetHook(nil)
			d.Execute()
		}()
		dev.SetHook(nil)
	}

	dev.Crash()
	pool2, err := core.NewPool(core.Config{
		Device: dev, Region: poolReg,
		DescriptorCount: cfg.PoolSize, WordsPerDescriptor: cfg.Words,
		Mode: core.Persistent,
	})
	if err != nil {
		return RecoveryResult{}, err
	}
	start := time.Now()
	st, err := pool2.Recover()
	elapsed := time.Since(start)
	if err != nil {
		return RecoveryResult{}, err
	}

	// Verify all-or-nothing on every frozen operation.
	ok := true
	h2 := pool2.NewHandle()
	for i := 0; i < cfg.InFlight; i++ {
		base := arrReg.Base + nvram.Offset(i*cfg.Words)*nvram.WordSize
		first := h2.Read(base)
		for w := 1; w < cfg.Words; w++ {
			//lint:allow guardfact — post-recovery verification is single-threaded; nothing reclaims while it runs (§4.4)
			if h2.Read(base+nvram.Offset(w)*nvram.WordSize) != first {
				ok = false
			}
		}
	}
	return RecoveryResult{
		PoolSize:  cfg.PoolSize,
		InFlight:  cfg.InFlight,
		Elapsed:   elapsed,
		Repaired:  st.RolledForward + st.RolledBack,
		PerDesc:   elapsed / time.Duration(cfg.PoolSize),
		CorrectOK: ok,
	}, nil
}
