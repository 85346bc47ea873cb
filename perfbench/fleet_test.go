package main

import (
	"testing"

	"bettertogether/internal/fleet"
	"bettertogether/internal/runtime"
	"bettertogether/pkg/btapps"
)

// The fleet traces never have more sessions resident than there are
// nodes, arrive in order, cycle the application mix exactly and are the
// same for the same seed.
func TestFleetTraceShape(t *testing.T) {
	for _, c := range []fleetConfig{fleetWide, fleetDense} {
		nodes := 0
		for _, n := range c.nodes {
			nodes += n.Count
		}
		capped := 0
		for seed := int64(1); seed <= 40; seed++ {
			for k := 0; k < c.traces; k++ {
				tr := c.trace(seed, k)
				if len(tr.Arrivals) != c.arrivals {
					t.Fatalf("%d arrivals, want %d", len(tr.Arrivals), c.arrivals)
				}
				for i, a := range tr.Arrivals {
					if a.App != c.apps[i%len(c.apps)] || a.Dwell < c.dwellLo || a.Dwell > c.dwellHi {
						t.Fatalf("seed %d trace %d arrival %d: %+v", seed, k, i, a)
					}
					if i > 0 && a.At < tr.Arrivals[i-1].At {
						t.Fatalf("seed %d trace %d: arrival %d at %v before %v", seed, k, i, a.At, tr.Arrivals[i-1].At)
					}
					// Departures at the arrival's instant are processed
					// first, so only later ones are still resident.
					resident := 0
					for _, b := range tr.Arrivals[:i] {
						if b.At+b.Dwell > a.At {
							resident++
						}
					}
					if resident >= nodes {
						t.Fatalf("seed %d trace %d: arrival %d finds %d of %d nodes' worth of sessions resident", seed, k, i, resident, nodes)
					}
					if resident == nodes-1 {
						capped++
					}
				}
				again := c.trace(seed, k)
				for i := range tr.Arrivals {
					if tr.Arrivals[i] != again.Arrivals[i] {
						t.Fatalf("seed %d trace %d differs between draws at %d", seed, k, i)
					}
				}
			}
		}
		t.Logf("%d nodes: %d arrivals found all but one node's worth resident", nodes, capped)
	}
}

// The resident cap keeps one node idle for every arrival; that is only
// enough if an idle node of every device admits each application of the
// dense mix on its own.
func TestIdleNodeAdmitsEveryDenseApp(t *testing.T) {
	for _, dev := range []string{"pixel7a", "oneplus11", "jetson"} {
		for _, name := range fleetDense.apps {
			f, err := fleet.New(fleet.Config{Nodes: []fleet.NodeSpec{{Device: dev, Count: 1}}, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			app, err := btapps.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			p, err := f.Place(app, runtime.AdmitOptions{Name: name, Seed: 1, Hold: true})
			if err != nil {
				t.Fatalf("idle %s refused %s: %v", dev, name, err)
			}
			p.Session.Start()
			if r := p.Session.Wait(); r.Err != nil {
				t.Fatal(r.Err)
			}
			f.Close()
		}
	}
}
