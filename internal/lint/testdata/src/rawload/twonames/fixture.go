// Fixture for the name a rawload diagnostic quotes: the raw load's
// offset names two managed fingerprints, and the message must quote the
// least of them on every run.
package twonames

import (
	"pmwcas/internal/core"
	"pmwcas/internal/nvram"
)

type ring struct {
	dev   *nvram.Device
	alpha nvram.Offset
	zeta  nvram.Offset
}

// swing makes both "alpha" and "zeta" protocol targets.
func (r *ring) swing(old, new uint64) bool {
	return core.PCAS(r.dev, r.alpha, old, new) && core.PCAS(r.dev, r.zeta, old, new)
}

func (r *ring) badLoad() uint64 {
	return r.dev.Load(r.zeta + r.alpha) // want `raw Device\.Load on a PMwCAS-managed word \(offset names "alpha"`
}
