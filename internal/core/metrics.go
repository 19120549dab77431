package core

import (
	"pmwcas/internal/metrics"
	"pmwcas/internal/nvram"
)

// Instrumentation for the PMwCAS hot path. Everything records into the
// DRAM-only metrics substrate; nothing here touches NVM words, so the
// persistence protocol is unchanged whether metrics are on or off. The
// per-op persistency costs (flushes, fences) are accumulated in a
// stack-local opObs owned by Execute and observed once per operation —
// helpers the owner's exec recruits are charged to the owner, matching
// the paper's cost model where helping is part of the interfering
// operation's latency.
//
// Operation outcomes (successes and failures, whose sum is the executes;
// helps, read helps, discards) are counted once, in Pool.stats, and reach
// STATS through Store.PoolStats; the counters here have no twin there.
var (
	mInstallRetries = metrics.NewCounter("core_pmwcas_install_retries")
	mPoolExhausted  = metrics.NewCounter("core_pool_exhausted")

	mExecLat      = metrics.NewHistogram("core_pmwcas_exec_ns")
	mPhase2Lat    = metrics.NewHistogram("core_pmwcas_phase2_persist_ns")
	mFlushesPerOp = metrics.NewHistogram("core_pmwcas_flushes_per_op")
	mFencesPerOp  = metrics.NewHistogram("core_pmwcas_fences_per_op")
)

// latSampleMask samples the latency clocks 1-in-8 operations per
// handle. Counters and the clock-free flush/fence histograms record
// every operation; only the time.Now pairs (exec latency, phase-2
// persist latency) are sampled — a clock read costs more than the rest
// of the instrumentation combined, and a uniform 1/8 sample preserves
// the distribution.
const latSampleMask = 7

// opObs accumulates one PMwCAS operation's persistency cost on the
// owner's stack. A nil *opObs means "unattributed" (helping from a read
// path): recording is skipped, never redirected. timed marks the
// operations whose latency clocks are sampled.
type opObs struct {
	lane    metrics.Stripe
	timed   bool
	flushes uint64
	fences  uint64
}

// laneOf picks the recording lane: the owner's handle lane when an
// operation context exists, otherwise a lane derived from the descriptor
// offset so unattributed events still spread across stripes.
func laneOf(o *opObs, mdesc nvram.Offset) metrics.Stripe {
	if o != nil {
		return o.lane
	}
	return metrics.StripeAt(int(mdesc / nvram.LineBytes))
}
