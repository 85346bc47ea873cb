package main

import (
	"math"
	"testing"
)

func TestTailPermille(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 500}, {1, 500}, {39, 500}, {40, 750}, {99, 750}, {100, 900},
		{199, 900}, {200, 950}, {999, 950}, {1000, 990}, {9999, 990}, {10000, 999},
	} {
		if got := tailPermille(c.n); got != c.want {
			t.Errorf("tailPermille(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestTailLeavesTenSamplesAbove(t *testing.T) {
	for n := 1; n <= 3000; n++ {
		p := tailPermille(n)
		if p == 500 {
			if n >= 40 {
				t.Fatalf("n=%d: median only, but p75 leaves %d above", n, n-rankOf(750, n))
			}
			continue
		}
		if above := n - rankOf(p, n); above < 10 {
			t.Fatalf("n=%d: p%d leaves %d samples above it", n, p, above)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct {
		p    int
		want float64
	}{{500, 3}, {750, 4}, {900, 5}, {1, 1}, {1000, 5}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%d) = %v, want %v", c.p, got, c.want)
		}
	}
	if v[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	s := summarize([]float64{1, 2, 3})
	if s.n != 3 || s.p50 != 2 || s.tail != 2 || s.String() != "p50 2 p50 2 (n=3)" {
		t.Errorf("summary of 3 samples: %+v %q", s, s)
	}
}
