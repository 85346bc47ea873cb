package main

import (
	"fmt"
	"math"
	"sort"
)

// tailPermille is the percentile a tail is reported at for n samples, in
// thousandths: the highest of p75, p90, p95, p99 and p99.9 that leaves at
// least ten samples above it. Below 40 samples no percentile does, and
// the tail is the median.
func tailPermille(n int) int {
	best := 500
	for _, p := range []int{750, 900, 950, 990, 999} {
		if n-rankOf(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// rankOf is the 1-based nearest rank of the permille-th percentile among
// n samples.
func rankOf(permille, n int) int {
	r := (permille*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank percentile of values (unsorted; the
// slice is not modified). It returns NaN for no values.
func percentile(values []float64, permille int) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s[rankOf(permille, len(s))-1]
}

func median(values []float64) float64 { return percentile(values, 500) }

// summary is a latency sample's median and tail.
type summary struct {
	n          int
	p50, tail  float64
	tailPermil int
}

func summarize(values []float64) summary {
	p := tailPermille(len(values))
	return summary{n: len(values), p50: median(values), tail: percentile(values, p), tailPermil: p}
}

// String states the tail's percentile and the sample count beside the
// values, e.g. "p50 1.2 p90 3.4 (n=120)".
func (s summary) String() string {
	return fmt.Sprintf("p50 %.6g p%s %.6g (n=%d)", s.p50, permilleName(s.tailPermil), s.tail, s.n)
}

func permilleName(p int) string {
	if p%10 == 0 {
		return fmt.Sprint(p / 10)
	}
	return fmt.Sprintf("%.1f", float64(p)/10)
}
