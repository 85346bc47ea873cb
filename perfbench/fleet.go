package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"bettertogether/internal/fleet"
	"bettertogether/internal/runtime"
	"bettertogether/pkg/btapps"
)

// fleetConfig is a fleet workload: the registry, and how its seeded
// Poisson arrival traces are drawn.
type fleetConfig struct {
	nodes       []fleet.NodeSpec
	affinity    map[string]string
	cache       int     // shared schedule-cache capacity; 0 plans uncached
	replanDelta float64 // runtime.WithReplanDelta; 0 re-plans on every pass
	apps        []string
	arrivals    int // per trace, one per second on average
	traces      int // distinct traces per cycle
	dwellLo     float64
	dwellHi     float64
	// noiseSeeds gives every arrival its own simulation-noise seed. The
	// seed is part of the schedule-cache key, so with it no two sessions
	// share a planning tuple; without it every arrival of a run carries
	// the run's seed.
	noiseSeeds bool
}

// fleetWide is the headline replay: a 60-node registry where arrivals
// almost always land on an idle node, so each one pays for building its
// application and one cold plan, and re-planning and the cache sit idle.
var fleetWide = fleetConfig{
	nodes:      []fleet.NodeSpec{{Device: "pixel7a", Count: 20}, {Device: "oneplus11", Count: 20}, {Device: "jetson", Count: 20}},
	apps:       []string{"octree", "alexnet-sparse", "vision"},
	arrivals:   60,
	traces:     1,
	dwellLo:    4,
	dwellHi:    6,
	noiseSeeds: true,
}

// fleetDense packs arrivals onto 6 nodes with device affinity: every
// admission re-plans the residents, refusals spill over, and recurring
// (app, node, environment) tuples hit a cache small enough to evict.
var fleetDense = fleetConfig{
	nodes:       []fleet.NodeSpec{{Device: "pixel7a", Count: 2}, {Device: "oneplus11", Count: 2}, {Device: "jetson", Count: 2}},
	affinity:    map[string]string{"vision": "jetson", "octree": "pixel7a"},
	cache:       16,
	replanDelta: 0.3,
	apps:        []string{"octree", "vision"},
	arrivals:    200,
	traces:      8,
	dwellLo:     2,
	dwellHi:     3,
}

// fleetSetups is how many extra set-ups a run times before its loop, so
// setup_s is a median of many samples even when a cycle is long.
const fleetSetups = 50

// trace draws trace k of a run: Poisson arrivals at one per second,
// applications cycled in order so the mix is exact, uniform dwells. An
// arrival that would make more sessions resident than there are nodes
// waits for the next departure instead, so some node is always idle
// when an arrival is placed and no seed can draw a burst the whole fleet
// must refuse.
func (c fleetConfig) trace(seed int64, k int) fleet.Trace {
	rng := rand.New(rand.NewSource(seed*1000 + int64(k)))
	nodes := 0
	for _, n := range c.nodes {
		nodes += n.Count
	}
	tr := fleet.Trace{Arrivals: make([]fleet.Arrival, c.arrivals)}
	var departures []float64 // of the resident sessions, ascending
	at := 0.0
	for i := range tr.Arrivals {
		at += rng.ExpFloat64()
		for len(departures) > 0 && departures[0] <= at {
			departures = departures[1:]
		}
		if len(departures) >= nodes {
			at = math.Nextafter(departures[0], math.Inf(1))
			departures = departures[1:]
		}
		app := c.apps[i%len(c.apps)]
		a := fleet.Arrival{
			At:      at,
			App:     app,
			Dwell:   c.dwellLo + rng.Float64()*(c.dwellHi-c.dwellLo),
			Session: fmt.Sprintf("%s#%d", app, i),
		}
		departures = append(departures, a.At+a.Dwell)
		sort.Float64s(departures)
		a.Seed = seed
		if c.noiseSeeds {
			a.Seed = rng.Int63()
		}
		tr.Arrivals[i] = a
	}
	return tr
}

// config is the fleet configuration; bands < 0 selects the exhaustive
// reference rank instead of the banded placement index.
func (c fleetConfig) config(seed int64, bands int) fleet.Config {
	return fleet.Config{
		Nodes:         c.nodes,
		Seed:          seed,
		Affinity:      c.affinity,
		CacheCapacity: c.cache,
		ReplanDelta:   c.replanDelta,
		IndexBands:    bands,
	}
}

// fleetTally accumulates the traced run's layer counters over the first
// cycle, whose traces every run replays, so the counts repeat exactly;
// heap allocation is summed over every timed replay.
type fleetTally struct {
	attempts, placed, spills, replans, skipped int
	hits, misses, evictions                    uint64
	allocBytes                                 uint64
	replayed                                   int
}

func (c fleetConfig) run(b *bench) error {
	var setup, setupWall []float64
	build := func(k, bands int) (fleet.Trace, *fleet.Fleet, error) {
		settle()
		c0 := cpuSeconds()
		t0 := time.Now()
		tr := c.trace(b.seed, k)
		sp := b.spans.begin("fleet.New", "", -1)
		f, err := fleet.New(c.config(b.seed, bands))
		b.spans.end(sp)
		setupWall = append(setupWall, time.Since(t0).Seconds())
		setup = append(setup, cpuSeconds()-c0)
		return tr, f, err
	}
	for i := 0; i < fleetSetups; i++ {
		_, f, err := build(i%c.traces, 0)
		if err != nil {
			return err
		}
		f.Close()
	}

	first := make([][]fleet.PlacementRecord, c.traces)
	var cpuMSPerArrival, wallMSPerArrival, elapsedMS []float64
	var tally fleetTally
	var walkWall time.Duration
	var walkArrivals int
	err := b.loop(func(cycle int) error {
		var wall time.Duration
		var cpu float64
		arrivals := 0
		for k := 0; k < c.traces; k++ {
			tr, f, err := build(k, 0)
			if err != nil {
				return err
			}
			settle()
			sp := b.spans.begin("fleet.ReplayWith", fmt.Sprintf("trace %d", k), -1)
			a0 := allocBytes()
			c0 := cpuSeconds()
			t0 := time.Now()
			res, err := f.ReplayWith(tr, fleet.ReplayOptions{})
			d := time.Since(t0)
			cpu += cpuSeconds() - c0
			tally.allocBytes += allocBytes() - a0
			b.spans.end(sp)
			if err != nil {
				return err
			}
			wall += d
			arrivals += len(tr.Arrivals)
			tally.replayed += len(tr.Arrivals)
			b.ops.add(len(tr.Arrivals), res.Rejected)
			label := fmt.Sprintf("trace %d cycle %d", k, cycle)
			for _, r := range res.Records {
				if r.Rejected {
					fmt.Printf("%s: arrival %d (%s at %.3f s) rejected: %s\n", label, r.Seq, r.App, r.At, r.Reason)
				}
			}
			checkReplay(b, label, f, tr, res)
			if cycle == 0 {
				first[k] = res.Records
				ms := placedLatenciesMS(res.Records)
				if k == 0 {
					// ReplayResult.P50/P99 are power-of-two bucket bounds,
					// not sample quantiles: print them beside exact ones.
					fmt.Printf("trace 0: replay summary p50 %.4g p99 %.4g ms; exact p50 %.4g p99 %.4g max %.4g ms\n",
						res.P50*1e3, res.P99*1e3, median(ms), percentile(ms, 990), percentile(ms, 1000))
				}
				elapsedMS = append(elapsedMS, ms...)
				if b.traced {
					tally.add(f, res)
				}
			} else {
				compareRecords(b, label+" against cycle 0", first[k], res.Records)
			}
			f.Close()
			if b.traced {
				t0 := time.Now()
				walked, err := c.walk(b, tr)
				if err != nil {
					return err
				}
				walkWall += time.Since(t0)
				walkArrivals += len(tr.Arrivals)
				compareRecords(b, label+" traced walk against replay", res.Records, walked)
			}
		}
		cpuMSPerArrival = append(cpuMSPerArrival, cpu*1e3/float64(arrivals))
		wallMSPerArrival = append(wallMSPerArrival, wall.Seconds()*1e3/float64(arrivals))
		return nil
	})
	if err != nil {
		return err
	}

	lat := summarize(elapsedMS)
	fmt.Printf("%d cycles of %d trace(s); CPU ms/arrival per cycle %.4g; wall ms/arrival per cycle %.4g; modeled session ms %s; set-up CPU s %s; set-up wall s %s\n",
		len(cpuMSPerArrival), c.traces, cpuMSPerArrival, wallMSPerArrival, lat, summarize(setup), summarize(setupWall))
	if !b.traced {
		b.set("setup_s", median(setup))
		b.set("cpu_ms_per_op", median(cpuMSPerArrival))
		b.set("op_latency_p50_ms", lat.p50)
		b.set("op_latency_tail_ms", lat.tail)
		return nil
	}
	tally.report(b)
	for _, app := range c.apps {
		b.set("btapps.build_ms."+app, median(b.spans.durationsMS("btapps.ByName", app+"#")))
	}
	place := summarize(b.spans.durationsMS("fleet.Place", ""))
	b.set("fleet.place_ms_p50", place.p50)
	b.set("fleet.place_ms_tail", place.tail)
	b.set("runtime.session_run_ms_p50", median(b.spans.durationsMS("departure", "")))
	fmt.Printf("traced: placement ms %s; traced walk %.4g wall ms/arrival (spans, exhaustive rank, CPU profile on)\n",
		place, walkWall.Seconds()*1e3/float64(walkArrivals))
	return nil
}

// placedLatenciesMS returns the modeled latency of every placed session,
// in milliseconds.
func placedLatenciesMS(records []fleet.PlacementRecord) []float64 {
	var ms []float64
	for _, r := range records {
		if !r.Rejected {
			ms = append(ms, r.Elapsed*1e3)
		}
	}
	return ms
}

// add folds one first-cycle replay's layer counters into the tally.
func (t *fleetTally) add(f *fleet.Fleet, res fleet.ReplayResult) {
	for _, n := range f.Stats().PerNode {
		t.attempts += n.Placed + n.Rejected
		t.placed += n.Placed
	}
	t.spills += res.Spilled
	for _, n := range f.Nodes() {
		t.skipped += n.RT.ReplansSkipped()
		for _, s := range n.RT.Sessions() {
			t.replans += s.Replans()
		}
	}
	if c := f.Cache(); c != nil {
		st := c.Stats()
		t.hits += st.Hits
		t.misses += st.Misses
		t.evictions += st.Evictions
	}
}

func (t *fleetTally) report(b *bench) {
	b.set("fleet.admit_attempts", float64(t.attempts))
	if t.attempts > 0 {
		b.set("fleet.admit_yield", float64(t.placed)/float64(t.attempts))
	}
	b.set("fleet.spills", float64(t.spills))
	b.set("runtime.replans", float64(t.replans))
	b.set("runtime.replans_skipped", float64(t.skipped))
	b.set("schedcache.hits", float64(t.hits))
	b.set("schedcache.misses", float64(t.misses))
	b.set("schedcache.evictions", float64(t.evictions))
	if t.hits+t.misses > 0 {
		b.set("schedcache.hit_ratio", float64(t.hits)/float64(t.hits+t.misses))
	}
	if t.replayed > 0 {
		b.set("go.alloc_mb_per_arrival", float64(t.allocBytes)/float64(t.replayed)/(1<<20))
	}
}

// checkReplay checks one replay's outputs by properties that hold for
// any correct replay: every arrival is accounted for, every placed
// session ran and reported a modeled latency, and once the trace is over
// every node is empty again.
func checkReplay(b *bench, label string, f *fleet.Fleet, tr fleet.Trace, res fleet.ReplayResult) {
	n := len(tr.Arrivals)
	if res.Arrivals != n || res.Placed+res.Rejected != n || len(res.Records) != n {
		b.violate("%s: %d arrivals, result counts %d arrivals = %d placed + %d rejected, %d records",
			label, n, res.Arrivals, res.Placed, res.Rejected, len(res.Records))
		return
	}
	if st := f.Stats(); st.Arrivals != n || st.Placed != res.Placed || st.Rejected != res.Rejected {
		b.violate("%s: fleet stats %d/%d/%d disagree with the replay result", label, st.Arrivals, st.Placed, st.Rejected)
	}
	for i, r := range res.Records {
		a := tr.Arrivals[i]
		if r.Seq != i || r.App != a.App || r.Session != a.Session {
			b.violate("%s: record %d is %d %s %s", label, i, r.Seq, r.App, r.Session)
		}
		if !r.Rejected && (r.Node == "" || !(r.Elapsed > 0)) {
			b.violate("%s: placed record %d has node %q and modeled latency %v", label, i, r.Node, r.Elapsed)
		}
	}
	for _, node := range f.Nodes() {
		h := node.RT.AdmissionHeadroom()
		if h.BWDemandGBs != 0 || h.CoresDemand != 0 || h.ResidentCount != 0 {
			b.violate("%s: node %s still holds demand %+v after the trace", label, node.ID, h)
		}
		for _, s := range node.RT.Sessions() {
			select {
			case <-s.Done():
			default:
				b.violate("%s: session %s on %s is not done after the trace", label, s.Name(), node.ID)
			}
		}
	}
}

// compareRecords checks that two runs over one trace decided the same:
// node, choice, rejection and modeled latency, record by record.
func compareRecords(b *bench, label string, want, got []fleet.PlacementRecord) {
	if len(want) != len(got) {
		b.violate("%s: %d records, want %d", label, len(got), len(want))
		return
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Session != g.Session || w.Node != g.Node || w.Choice != g.Choice || w.Rejected != g.Rejected || w.Elapsed != g.Elapsed {
			b.violate("%s: record %d is %s on %q choice %d rejected %v elapsed %v, want %q choice %d rejected %v elapsed %v",
				label, i, g.Session, g.Node, g.Choice, g.Rejected, g.Elapsed, w.Node, w.Choice, w.Rejected, w.Elapsed)
			return
		}
	}
}

// walk replays a trace through the fleet's public calls itself, with a
// span around each: btapps.ByName and Fleet.Place (held) per arrival,
// Session.Start and Session.Wait per departure. Events run in
// ReplayWith's order — time, then departures before arrivals, then trace
// order — on a fleet using the exhaustive reference rank, so its records
// must equal the timed replay's.
func (c fleetConfig) walk(b *bench, tr fleet.Trace) ([]fleet.PlacementRecord, error) {
	sp := b.spans.begin("fleet.New", "", -1)
	f, err := fleet.New(c.config(b.seed, -1))
	b.spans.end(sp)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	type event struct {
		at     float64
		depart bool
		seq, i int
	}
	events := make([]event, 0, 2*len(tr.Arrivals))
	for i, a := range tr.Arrivals {
		events = append(events, event{a.At, false, 2 * i, i}, event{a.At + a.Dwell, true, 2*i + 1, i})
	}
	sort.Slice(events, func(x, y int) bool {
		ex, ey := events[x], events[y]
		if ex.at != ey.at {
			return ex.at < ey.at
		}
		if ex.depart != ey.depart {
			return ex.depart
		}
		return ex.seq < ey.seq
	})
	recs := make([]fleet.PlacementRecord, len(tr.Arrivals))
	sessions := make([]*runtime.Session, len(tr.Arrivals))
	for _, ev := range events {
		a, rec := tr.Arrivals[ev.i], &recs[ev.i]
		if !ev.depart {
			*rec = fleet.PlacementRecord{Seq: ev.i, At: a.At, App: a.App, Session: a.Session}
			root := b.spans.begin("arrival", a.Session, -1)
			sp := b.spans.begin("btapps.ByName", a.Session, root)
			app, err := btapps.ByName(a.App)
			b.spans.end(sp)
			if err != nil {
				return nil, err
			}
			sp = b.spans.begin("fleet.Place", a.Session, root)
			p, err := f.Place(app, runtime.AdmitOptions{Name: a.Session, Tasks: a.Tasks, Seed: a.Seed, Hold: true})
			b.spans.end(sp)
			b.spans.end(root)
			var perr *fleet.PlacementError
			switch {
			case errors.As(err, &perr):
				rec.Rejected = true
			case err != nil:
				return nil, err
			default:
				rec.Node, rec.Choice = p.Node.ID, p.Choice
				sessions[ev.i] = p.Session
			}
			continue
		}
		s := sessions[ev.i]
		if s == nil {
			continue
		}
		root := b.spans.begin("departure", a.Session, -1)
		sp := b.spans.begin("runtime.Session.Start", a.Session, root)
		s.Start()
		b.spans.end(sp)
		sp = b.spans.begin("runtime.Session.Wait", a.Session, root)
		r := s.Wait()
		b.spans.end(sp)
		b.spans.end(root)
		if r.Err != nil {
			return nil, fmt.Errorf("walk: session %s: %w", a.Session, r.Err)
		}
		rec.Elapsed = r.Elapsed
	}
	return recs, nil
}
