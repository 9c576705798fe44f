package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// samples collects one latency distribution; safe for concurrent use.
type samples struct {
	mu sync.Mutex
	v  []float64 // milliseconds
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.v = append(s.v, float64(d)/float64(time.Millisecond))
	s.mu.Unlock()
}

func (s *samples) reset() {
	s.mu.Lock()
	s.v = nil
	s.mu.Unlock()
}

func (s *samples) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.v...)
}

// summary is a distribution as the benchmark reports it: the median and
// the tail percentile, which is p99 when at least ten samples lie beyond
// it and otherwise the highest percentile that still has ten beyond it.
type summary struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	Tail   float64 `json:"tail"`
	TailPc float64 `json:"tail_percentile"`
}

func summarize(v []float64) summary {
	s := summary{N: len(v)}
	if len(v) == 0 {
		return s
	}
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	s.P50 = quantile(sorted, 0.5)
	s.TailPc = tailPercentile(len(sorted))
	s.Tail = quantile(sorted, s.TailPc/100)
	return s
}

// tailPercentile is 99, lowered for small samples so that at least ten
// samples lie beyond it (never below the median).
func tailPercentile(n int) float64 {
	if n <= 0 {
		return 50
	}
	pc := 100 * (1 - 10/float64(n))
	pc = math.Floor(pc*10) / 10
	return math.Max(50, math.Min(99, pc))
}

// quantile interpolates linearly within sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

func median(v []float64) float64 {
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	return quantile(sorted, 0.5)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
