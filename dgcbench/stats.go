package main

import (
	"math"
	"sort"
	"time"
)

// tailQ is the tail percentile every timing reports beside its median. A
// higher one moved by several per cent from run to run on loopback TCP and
// the 2-CPU simulator, more than a regression bound can absorb.
const tailQ = 0.9

// minBeyond is how many samples must lie above a reported tail percentile:
// fewer and the "percentile" is one or two outliers.
const minBeyond = 10

// samplesBeyond is the number of samples strictly above the nearest-rank
// q-quantile of n samples.
func samplesBeyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q) - 1
}

// enoughForTail reports whether n samples support the q tail percentile.
func enoughForTail(n int, q float64) bool { return samplesBeyond(n, q) >= minBeyond }

// rank is the 0-based nearest-rank index of the q-quantile of n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if r < 0 {
		r = 0
	}
	if r > n-1 {
		r = n - 1
	}
	return r
}

// durations is a set of timing samples.
type durations []time.Duration

// quantile returns the nearest-rank q-quantile (0 for no samples).
func (d durations) quantile(q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append(durations(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rank(len(s), q)]
}

func (d durations) sum() time.Duration {
	var t time.Duration
	for _, x := range d {
		t += x
	}
	return t
}

// ratio is a quotient that keeps its base, so a reported per-unit figure
// always says how many units it was measured over.
type ratio struct {
	num, den float64
}

// value is num/den, or 0 when nothing was measured (den == 0).
func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return r.num / r.den
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pctOver is the percentage by which a exceeds b (0 when b is 0).
func pctOver(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * (a/b - 1)
}
