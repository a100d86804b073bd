package main

import (
	"math"
	"slices"
	"time"
)

// samples is an exact latency sample: every observation is kept (as
// nanoseconds in 32 bits, so 4.29 s saturates) and percentiles are read
// from the sorted slice. The benchmark owns its ruler: nothing here
// depends on internal/metrics.
type samples struct {
	ns     []uint32
	sorted bool
}

func newSamples(capacity int) *samples { return &samples{ns: make([]uint32, 0, capacity)} }

func (s *samples) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if d > math.MaxUint32 {
		d = math.MaxUint32
	}
	s.ns = append(s.ns, uint32(d))
	s.sorted = false
}

func (s *samples) merge(o *samples) {
	s.ns = append(s.ns, o.ns...)
	s.sorted = false
}

func (s *samples) n() int { return len(s.ns) }

func (s *samples) sort() {
	if !s.sorted {
		slices.Sort(s.ns)
		s.sorted = true
	}
}

func (s *samples) mean() time.Duration {
	if len(s.ns) == 0 {
		return 0
	}
	var sum uint64
	for _, v := range s.ns {
		sum += uint64(v)
	}
	return time.Duration(sum / uint64(len(s.ns)))
}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: below that the value is one or two outliers, not a tail.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile and whether at least
// minBeyond samples lie beyond it.
func (s *samples) quantile(q float64) (v time.Duration, supported bool) {
	n := len(s.ns)
	if n == 0 {
		return 0, false
	}
	s.sort()
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	rank = max(1, min(rank, n))
	return time.Duration(s.ns[rank-1]), n-rank >= minBeyond
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quartiles returns Q1, median and Q3 of vs by the same method as
// Python's statistics.quantiles(vs, n=4) (exclusive), so the spreads
// printed here are the spreads the acceptance check computes.
func quartiles(vs []float64) (q1, med, q3 float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0, 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 3 cut points, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		j = max(1, min(j, n-1))
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
