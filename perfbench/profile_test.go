package main

import (
	"bytes"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"bettertogether/internal/fleet.(*Fleet).Place":                                                 "bettertogether/internal/fleet",
		"bettertogether/internal/sched.(*Optimizer).Autotune.func2":                                    "bettertogether/internal/sched",
		"bettertogether/internal/apps/octree.stageMorton":                                              "bettertogether/internal/apps/octree",
		"bettertogether/internal/queue.(*SPSC[go.shape.*bettertogether/internal/core.TaskObject]).Pop": "bettertogether/internal/queue",
		"bettertogether/internal/tensor.Gemm[...]":                                                     "bettertogether/internal/tensor",
		"runtime.gcBgMarkWorker":                                                                       "runtime",
		"sort.Slice":                                                                                   "sort",
		"main.main":                                                                                    "main",
		"bettertogether/perfbench.fleetConfig.walk":                                                    "bettertogether/perfbench",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestClassifyAttributesLayers(t *testing.T) {
	const m = "bettertogether/internal/"
	for _, c := range []struct {
		name   string
		frames []string // leaf first
		want   []string
	}{
		{"soc under autotune's simulator", []string{
			m + "soc.(*Device).Estimate", m + "pipeline.simRun.func1", m + "des.(*Engine).Run",
			m + "pipeline.simRun", m + "pipeline.drive", m + "sched.(*Optimizer).Autotune.func1",
			m + "sched.(*Optimizer).Autotune.func2", "runtime.goexit",
		}, []string{"pipeline.sim_cpu_share", "sched.autotune_cpu_share", "soc.cpu_share"}},
		{"des is transparent: fleet self time", []string{
			m + "des.(*Engine).Run", m + "fleet.(*Fleet).ReplayWith", "bettertogether/perfbench.fleetConfig.run",
		}, []string{"fleet.cpu_self_share"}},
		{"app construction", []string{
			"sort.Slice", m + "sparse.Prune", m + "apps/alexnet.NewSparse", "bettertogether/pkg/btapps.ByName",
			m + "fleet.(*Fleet).replayArrival",
		}, []string{"btapps.cpu_share"}},
		{"profiling under admission", []string{
			m + "soc.(*Device).Sample", m + "profiler.Profile", m + "profiler.ProfileBoth",
			m + "runtime.(*Runtime).planLocked", m + "runtime.(*Runtime).Admit", m + "fleet.(*Fleet).Place",
		}, []string{"profiler.cpu_share", "soc.cpu_share"}},
		{"candidate search", []string{
			m + "solver.TopKFilteredSeeded", m + "sched.(*Optimizer).Candidates", m + "sched.(*Optimizer).Optimize",
		}, []string{"sched.solve_cpu_share"}},
		{"runtime only, no layer share", []string{"runtime.mallocgc", m + "runtime.(*Runtime).envLocked"}, nil},
		{"garbage collector", []string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, nil},
	} {
		got := classify(c.frames)
		slices.Sort(got)
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestAttributeShares(t *testing.T) {
	const m = "bettertogether/internal/"
	shares := attribute([]stack{
		{frames: []string{m + "soc.(*Device).Estimate", m + "pipeline.simRun"}, count: 3},
		{frames: []string{m + "fleet.(*Fleet).Place"}, count: 1},
	})
	if shares["soc.cpu_share"] != 0.75 || shares["pipeline.sim_cpu_share"] != 0.75 ||
		shares["fleet.cpu_self_share"] != 0.25 || shares["btapps.cpu_share"] != 0 {
		t.Fatalf("shares %v", shares)
	}
	if len(attribute(nil)) != 7 {
		t.Fatal("an empty profile does not report every share")
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestParseProfileFindsSamples(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var found, total int64
	for _, s := range stacks {
		total += s.count
		for _, f := range s.frames {
			if strings.HasSuffix(f, ".spinForProfile") {
				if packageOf(f) != "bettertogether/perfbench" {
					t.Fatalf("frame %q in package %q", f, packageOf(f))
				}
				found += s.count
				break
			}
		}
	}
	if total == 0 || found*2 < total {
		t.Fatalf("%d of %d samples inside the spinning function", found, total)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage parsed as a profile")
	}
}
