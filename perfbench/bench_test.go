package main

import (
	"testing"
	"time"
)

func TestOpCountAdds(t *testing.T) {
	var c opCount
	c.add(3, 0)
	c.add(1, 1)
	c.add(200, 0)
	if c.attempted != 204 || c.failed != 1 {
		t.Fatalf("got %d attempted, %d failed", c.attempted, c.failed)
	}
}

// A round with one failing operation out of three keeps the failed share
// at exactly a third, whatever the run length.
func TestLoopRunsWholeRounds(t *testing.T) {
	for _, budget := range []time.Duration{0, 15 * time.Millisecond, 40 * time.Millisecond} {
		b := newBench(1, budget, false)
		rounds := 0
		err := b.loop(func(i int) error {
			if i != rounds {
				t.Fatalf("round index %d, want %d", i, rounds)
			}
			rounds++
			b.ops.add(2, 0)
			time.Sleep(5 * time.Millisecond)
			b.ops.add(1, 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if rounds < 1 || b.ops.attempted != 3*rounds || 3*b.ops.failed != b.ops.attempted {
			t.Fatalf("budget %v: %d rounds, %d attempted, %d failed", budget, rounds, b.ops.attempted, b.ops.failed)
		}
		if budget > 0 && rounds < 2 {
			t.Fatalf("budget %v ran only %d round", budget, rounds)
		}
	}
}

func TestResultReportsEveryMetric(t *testing.T) {
	b := newBench(1, 0, false)
	b.ops.add(4, 1)
	for _, s := range endToEnd[1:] {
		b.set(s.name, 1)
	}
	if _, err := b.result(); err == nil {
		t.Fatal("a missing end-to-end metric was not reported")
	}
	b.set(endToEnd[0].name, 2)
	res, err := b.result()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 4 || res.Failed != 1 || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("result %+v", res)
	}
	b.violate("task %d differs", 3)
	if res, _ := b.result(); res.Correct {
		t.Fatal("a violation left the run correct")
	}

	traced := newBench(1, 0, true)
	traced.ops.add(1, 0)
	traced.set("fleet.spills", 7)
	res, err = traced.result()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(perLayer) || res.Metrics["fleet.spills"].Value != 7 || res.Metrics["soc.cpu_share"].Value != 0 {
		t.Fatalf("traced result %+v", res.Metrics)
	}
	traced.set("no.such_metric", 1)
	if _, err := traced.result(); err == nil {
		t.Fatal("a per-layer value outside the table was accepted")
	}
}

// The cost metrics read process CPU time: busy work advances it, waiting
// barely does.
func TestCPUSecondsCountsWorkNotWaiting(t *testing.T) {
	c0 := cpuSeconds()
	time.Sleep(100 * time.Millisecond)
	if d := cpuSeconds() - c0; d < 0 || d > 0.05 {
		t.Fatalf("sleeping 100 ms used %.4f s of CPU", d)
	}
	c0 = cpuSeconds()
	deadline := time.Now().Add(5 * time.Second)
	x := 0
	for cpuSeconds()-c0 < 0.02 {
		if time.Now().After(deadline) {
			t.Fatalf("5 s of spinning used %.4f s of CPU", cpuSeconds()-c0)
		}
		for i := 0; i < 10000; i++ {
			x += i
		}
	}
	_ = x
}
