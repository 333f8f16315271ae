package main

import (
	"math"
	"slices"
)

// tailSamples is how many samples must lie beyond a percentile before it
// is reported: fewer, and the value is one or two outliers, not a
// percentile.
const tailSamples = 10

// quantile returns the exact q-quantile (nearest rank) of sorted, and
// whether the sample supports it: at least tailSamples samples must lie
// beyond the returned one (for the median, on either side). An
// unsupported quantile reads 0, false.
func quantile[T int64 | uint32](sorted []T, q float64) (T, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	beyond := n - rank
	if q <= 0.5 {
		beyond = min(beyond, rank-1)
	}
	if beyond < tailSamples {
		return 0, false
	}
	return sorted[rank-1], true
}

// summary is a metric's spread across passes: the median the result
// reports, the quartiles -compare reads to call a comparison unresolved,
// and how many samples stand behind the number (passes for a per-pass
// metric, raw observations for a pooled percentile).
type summary struct {
	Median  float64 `json:"value"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	Samples int     `json:"samples"`
}

// summarize reduces per-pass values to median and quartiles. Quartiles
// follow Python's statistics.quantiles(n=4) (exclusive method), the rule
// the driver applies across runs, so a spread computed here compares
// with one computed there.
func summarize(vals []float64) summary {
	if len(vals) == 0 {
		return summary{}
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	at := func(p float64) float64 {
		// position p·(n+1) on a 1-based index, clamped, interpolated
		pos := p * float64(len(s)+1)
		lo := int(math.Floor(pos))
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return summary{Median: at(0.5), Q1: at(0.25), Q3: at(0.75), Samples: len(s)}
}

// single wraps a value measured once per run (a byte count, a set-up
// time) so it travels in the same record shape as the per-pass metrics.
func single(v float64) summary { return summary{Median: v, Q1: v, Q3: v, Samples: 1} }

// spread is the interquartile distance as a share of the median — the
// quantity a bound is compared against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// schedule is a fixed-rate open loop: operation i is due at start +
// i·period regardless of how the system under test is keeping up.
// Latency is timed from due(i), so a stall charges every operation it
// delayed, not only the one that was in flight.
type schedule struct {
	start  int64 // ns on the run clock
	period float64
}

func newSchedule(start int64, perSecond float64) schedule {
	return schedule{start: start, period: 1e9 / perSecond}
}

// due is when operation i should be issued.
func (s schedule) due(i int64) int64 {
	return s.start + int64(float64(i)*s.period)
}

// dueBy is how many operations are due at or before now: indices
// [0, dueBy) should have been issued.
func (s schedule) dueBy(now int64) int64 {
	if now < s.start {
		return 0
	}
	return int64(float64(now-s.start)/s.period) + 1
}
