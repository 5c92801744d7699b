package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// samples is a goroutine-safe list of measurements in one unit.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *samples) addDur(d time.Duration) { s.add(ms(d)) }

// sorted returns a sorted copy of the samples.
func (s *samples) sorted() []float64 {
	s.mu.Lock()
	out := append([]float64(nil), s.v...)
	s.mu.Unlock()
	sort.Float64s(out)
	return out
}

// quantile is the linearly interpolated q-quantile of sorted values (0
// when there are none).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
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

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// opLog records each timed operation's completion time and latency.
type opLog struct {
	mu   sync.Mutex
	ms   []float64
	last time.Time
}

func (l *opLog) add(done time.Time, d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, ms(d))
	if done.After(l.last) {
		l.last = done
	}
	l.mu.Unlock()
}

// summarize returns the window's latencies sorted and its completion
// rate (per second, from start to the last completion).
func (l *opLog) summarize(start time.Time) (sorted []float64, rate float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	sorted = append(sorted, l.ms...)
	sort.Float64s(sorted)
	return sorted, ratio(float64(len(sorted)), l.last.Sub(start).Seconds())
}
