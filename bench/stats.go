package main

import (
	"math"
	"sort"

	"pmwcas/internal/metrics"
)

// percentile returns the q-quantile (0..1) of ascending samples by linear
// interpolation between the two nearest ranks; 0 for no samples.
func percentile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return float64(sorted[lo]) + (pos-float64(lo))*(float64(sorted[hi])-float64(sorted[lo]))
}

// A stat summarizes one metric over a run's windows: every end-to-end
// number is the median window, with the extremes kept so a reader (and
// -compare) can see how far the windows disagreed.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

func summarize(xs []float64, unit string) stat {
	if len(xs) == 0 {
		return stat{Unit: unit}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := s[len(s)/2]
	if len(s)%2 == 0 {
		med = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return stat{Median: med, Min: s[0], Max: s[len(s)-1], N: len(s), Unit: unit}
}

// spread is the windows' range as a share of their median.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Max - s.Min) / math.Abs(s.Median)
}

// histDelta is what a registry histogram observed between two snapshots.
func histDelta(after, before metrics.HistSnapshot) metrics.HistSnapshot {
	d := after
	d.Count -= before.Count
	d.Sum -= before.Sum
	for i := range d.Buckets {
		d.Buckets[i] -= before.Buckets[i]
	}
	return d
}

func histMean(h metrics.HistSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
