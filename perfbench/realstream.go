package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"bettertogether/internal/apps/octree"
	"bettertogether/internal/apps/vision"
	"bettertogether/internal/core"
	"bettertogether/internal/metrics"
	"bettertogether/internal/pipeline"
	"bettertogether/internal/profiler"
	"bettertogether/internal/sched"
	"bettertogether/internal/soc"
	"bettertogether/internal/trace"
	"bettertogether/pkg/btapps"
)

// Real-stream shape. Each round streams octree and vision frames through
// their BetterTogether schedules on the real engine and checks every
// task, then runs one octree stream whose ShutdownTimeout is shorter
// than the stream itself (see shutdownStream).
const (
	streamDevice  = "pixel7a"
	frames        = 12 // distinct input frames per application
	octreeTasks   = 100
	visionTasks   = 50
	streamSetups  = 15
	planSeed      = 1 // planning is configuration, not input: fixed
	shutdownTasks = 60
	shutdownBound = 250 * time.Millisecond
)

// streamApp is one application of the workload, wrapped so every task's
// output is digested before its TaskObject is recycled.
type streamApp struct {
	name  string
	base  *core.Application // as built, used for the serial reference
	plan  *pipeline.Plan    // on the wrapped application
	out   *outputs
	stats []*metrics.Pipeline // traced run: one collector per checked stream
}

// realStream runs the real-stream workload.
func realStream(b *bench) error {
	dev, err := soc.DeviceByName(streamDevice)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.seed))
	octFrames := make([][]float32, frames)
	visFrames := make([][]float32, frames)
	for i := range octFrames {
		octFrames[i] = octreeFrame(rng, octree.DefaultPoints, i%3)
		visFrames[i] = visionFrame(rng, vision.DefaultWidth, vision.DefaultHeight)
	}

	var setup, setupWall []float64
	var apps []*streamApp
	var shutdown *pipeline.Plan
	for i := 0; i < streamSetups; i++ {
		settle()
		c0 := cpuSeconds()
		t0 := time.Now()
		apps, shutdown, err = planStreams(b, dev, octFrames, visFrames)
		if err != nil {
			return err
		}
		setupWall = append(setupWall, time.Since(t0).Seconds())
		setup = append(setup, cpuSeconds()-c0)
	}
	oct, vis := apps[0], apps[1]

	var cpuMSPerTask, wallMSPerTask, p50s, tails []float64
	var allocated uint64
	var checkedTasks int
	stageMS := map[string][]float64{}
	shutdownOutcomes := map[string]int{}
	var tailPermil int
	err = b.loop(func(round int) error {
		var wall time.Duration
		var cpu float64
		var lat []float64
		tasks := 0
		for _, s := range []struct {
			app   *streamApp
			tasks int
		}{{oct, octreeTasks}, {vis, visionTasks}} {
			tl := &trace.Timeline{}
			opts := pipeline.Options{Tasks: s.tasks, Trace: tl}
			if b.traced {
				opts.Metrics = pipeline.NewMetricsFor(s.app.plan, opts)
				s.app.stats = append(s.app.stats, opts.Metrics)
			}
			s.app.out.reset(s.tasks)
			id := fmt.Sprintf("%s#%d", s.app.name, round)
			settle()
			sp := b.spans.begin("pipeline.RealEngine.Run", id, -1)
			a0 := allocBytes()
			c0 := cpuSeconds()
			t0 := time.Now()
			r := pipeline.RealEngine{}.Run(context.Background(), s.app.plan, opts)
			d := time.Since(t0)
			c := cpuSeconds() - c0
			allocated += allocBytes() - a0
			b.spans.end(sp)
			if r.Err != nil || len(r.Completions) != s.tasks {
				fmt.Printf("stream %s: err %v, %d of %d tasks completed\n", id, r.Err, len(r.Completions), s.tasks)
				b.ops.add(1, 1)
				continue
			}
			b.ops.add(1, 0)
			s.app.out.collect()
			s.app.out.check(b, id)
			wall += d
			cpu += c
			tasks += s.tasks
			checkedTasks += s.tasks
			appLat := taskLatenciesMS(b, id, tl, s.tasks)
			fmt.Printf("stream %s: %.4g CPU ms/task, %.4g wall ms/task, task latency ms %s\n",
				id, c*1e3/float64(s.tasks), d.Seconds()*1e3/float64(s.tasks), summarize(appLat))
			lat = append(lat, appLat...)
			if b.traced {
				for _, sp := range tl.Spans {
					key := s.app.name + "." + sp.Stage
					stageMS[key] = append(stageMS[key], (sp.End-sp.Start)*1e3)
				}
			}
		}
		outcome := shutdownStream(b, shutdown, round)
		shutdownOutcomes[outcome]++
		if len(lat) > 0 {
			sum := summarize(lat)
			tailPermil = sum.tailPermil
			cpuMSPerTask = append(cpuMSPerTask, cpu*1e3/float64(tasks))
			wallMSPerTask = append(wallMSPerTask, wall.Seconds()*1e3/float64(tasks))
			p50s = append(p50s, sum.p50)
			tails = append(tails, sum.tail)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(cpuMSPerTask) == 0 {
		return errors.New("no round completed its checked streams")
	}
	fmt.Printf("%d rounds; CPU ms/task per round %.4g; wall ms/task per round %.4g; task latency ms per round p50 %.4g p%s %.4g (n=%d per round); set-up CPU s %s; set-up wall s %s; shutdown-bounded stream outcomes %v\n",
		len(cpuMSPerTask), cpuMSPerTask, wallMSPerTask, p50s, permilleName(tailPermil), tails, octreeTasks+visionTasks, summarize(setup), summarize(setupWall), shutdownOutcomes)
	if !b.traced {
		b.set("setup_s", median(setup))
		b.set("cpu_ms_per_op", median(cpuMSPerTask))
		b.set("op_latency_p50_ms", median(p50s))
		b.set("op_latency_tail_ms", median(tails))
		return nil
	}
	b.set("btapps.build_ms.octree", median(b.spans.durationsMS("btapps.build", "octree")))
	b.set("btapps.build_ms.vision", median(b.spans.durationsMS("btapps.build", "vision")))
	for _, a := range apps {
		b.set("profiler.profile_ms."+a.name, median(b.spans.durationsMS("profiler.ProfileBoth", a.name)))
		b.set("sched.optimize_ms."+a.name, median(b.spans.durationsMS("sched.Optimize", a.name)))
		for _, st := range a.base.Stages {
			b.set("pipeline.stage_ms_p50."+a.name+"."+st.Name, median(stageMS[a.name+"."+st.Name]))
		}
		a.reportEngine(b)
	}
	b.set("go.alloc_kb_per_task", float64(allocated)/float64(checkedTasks)/1024)
	return nil
}

// planStreams is the workload's set-up: build both applications, profile
// them, pick their BetterTogether schedules and compile the plans, plus
// the plan of the shutdown-bounded stream.
func planStreams(b *bench, dev *soc.Device, octFrames, visFrames [][]float32) ([]*streamApp, *pipeline.Plan, error) {
	root := b.spans.begin("setup", "", -1)
	defer b.spans.end(root)
	builders := []struct {
		name  string
		build func() (*core.Application, error)
		out   *outputs
	}{
		{"octree", func() (*core.Application, error) {
			return octree.NewApplication(octree.DefaultPoints, frameGen(octFrames)), nil
		}, newOutputs(octreeDigest, nil, octreeVerify(octFrames))},
		{"vision", btapps.Vision, newOutputs(visionDigest, visionInput(visFrames), nil)},
	}
	var apps []*streamApp
	for _, bl := range builders {
		sp := b.spans.begin("btapps.build", bl.name, root)
		app, err := bl.build()
		b.spans.end(sp)
		if err != nil {
			return nil, nil, err
		}
		sp = b.spans.begin("profiler.ProfileBoth", bl.name, root)
		tables := profiler.ProfileBoth(app, dev, profiler.Config{Seed: planSeed})
		b.spans.end(sp)
		sp = b.spans.begin("sched.Optimize", bl.name, root)
		_, _, best, err := sched.New(app, dev, tables).Optimize(sched.BetterTogether, pipeline.Options{Warmup: 2, Seed: planSeed})
		b.spans.end(sp)
		if err != nil {
			return nil, nil, fmt.Errorf("planning %s: %w", bl.name, err)
		}
		sp = b.spans.begin("pipeline.NewPlan", bl.name, root)
		plan, err := pipeline.NewPlan(bl.out.wrap(app), dev, best.Schedule)
		b.spans.end(sp)
		if err != nil {
			return nil, nil, err
		}
		apps = append(apps, &streamApp{name: bl.name, base: app, plan: plan, out: bl.out})
	}
	shutdown, err := pipeline.NewPlan(btapps.Octree(), dev, apps[0].plan.Schedule)
	return apps, shutdown, err
}

// shutdownStream runs the round's octree stream on fixed inputs (the
// application's own generator, independent of --seed) with a
// ShutdownTimeout well below the stream's run time. The real engine arms
// that timeout when its dispatchers launch rather than after the last
// task, so the stream is cut short — returning no error with too few
// completions, or a *ShutdownTimeoutError when a kernel outlives the
// grace period. Either way it is a failed operation, kept out of every
// metric, until the engine is mended.
func shutdownStream(b *bench, plan *pipeline.Plan, round int) string {
	id := fmt.Sprintf("shutdown-bounded#%d", round)
	sp := b.spans.begin("pipeline.RealEngine.Run", id, -1)
	r := pipeline.RealEngine{}.Run(context.Background(), plan, pipeline.Options{Tasks: shutdownTasks, ShutdownTimeout: shutdownBound})
	b.spans.end(sp)
	var terr *pipeline.ShutdownTimeoutError
	switch {
	case r.Err == nil && len(r.Completions) == shutdownTasks:
		b.ops.add(1, 0)
		return "complete"
	case r.Err == nil:
		b.ops.add(1, 1)
		return "truncated"
	case errors.As(r.Err, &terr):
		b.ops.add(1, 1)
		return "shutdown-timeout"
	default:
		b.ops.add(1, 1)
		return "error"
	}
}

// taskLatenciesMS returns each task's host latency, from its first
// stage's start to its last stage's end, from the engine's timeline.
func taskLatenciesMS(b *bench, id string, tl *trace.Timeline, tasks int) []float64 {
	first := make([]float64, tasks)
	last := make([]float64, tasks)
	for i := range first {
		first[i], last[i] = math.Inf(1), math.Inf(-1)
	}
	for _, sp := range tl.Spans {
		if sp.Task < 0 || sp.Task >= tasks {
			b.violate("%s: span for task %d of %d", id, sp.Task, tasks)
			continue
		}
		first[sp.Task] = min(first[sp.Task], sp.Start)
		last[sp.Task] = max(last[sp.Task], sp.End)
	}
	out := make([]float64, 0, tasks)
	for i := range first {
		if math.IsInf(first[i], 0) {
			b.violate("%s: task %d has no stage spans", id, i)
			continue
		}
		out = append(out, (last[i]-first[i])*1e3)
	}
	return out
}

// reportEngine turns the traced run's engine collectors into per-layer
// metrics: mean queue wait and stall per task, and each PU pool's
// utilization, as medians over the application's checked streams.
func (a *streamApp) reportEngine(b *bench) {
	var wait, stall []float64
	util := map[string][]float64{}
	for _, m := range a.stats {
		var w, s time.Duration
		var tasks uint64
		for e := 0; e < m.NumQueues(); e++ {
			w += m.Queue(e).Wait().Sum()
			s += m.Queue(e).Stall().Sum()
		}
		tasks = m.Stage(len(a.base.Stages) - 1).Dispatches()
		if tasks == 0 {
			continue
		}
		wait = append(wait, w.Seconds()*1e3/float64(tasks))
		stall = append(stall, s.Seconds()*1e3/float64(tasks))
		for i := 0; i < m.NumPools(); i++ {
			p := m.Pool(i)
			util[p.PU] = append(util[p.PU], p.Utilization(m.Elapsed()))
		}
	}
	b.set("pipeline.queue_wait_ms."+a.name, median(wait))
	b.set("pipeline.queue_stall_ms."+a.name, median(stall))
	for _, pu := range []core.PUClass{core.ClassLittle, core.ClassMedium, core.ClassBig, core.ClassGPU} {
		v := 0.0
		if u := util[string(pu)]; len(u) > 0 {
			v = median(u)
		}
		b.set("pipeline.pool_util."+a.name+"."+string(pu), v)
	}
}

// frameGen feeds the octree pipeline the benchmark's own point clouds:
// task seq gets frame seq mod len(frames).
type frameGen [][]float32

func (g frameGen) Name() string { return "perfbench" }

func (g frameGen) Fill(points []float32, n, seq int) {
	copy(points[:3*n], g[seq%len(g)])
}

// visionInput overwrites a recycled vision task's Bayer frame with the
// benchmark's frame for its seq.
func visionInput(fr [][]float32) func(any, int) {
	return func(payload any, seq int) {
		copy(vision.Unwrap(payload).Bayer.Data, fr[seq%len(fr)])
	}
}

// octreeFrame draws n points in [0,1)^3 of one of three shapes: a uniform
// scatter, tight clusters with many duplicate cells, or a curved sheet.
// The seed moves the points, not the shape's parameters, so the work per
// frame of a shape stays about the same from seed to seed.
func octreeFrame(rng *rand.Rand, n, kind int) []float32 {
	pts := make([]float32, 3*n)
	clamp := func(v float64) float32 { return float32(min(max(v, 0), 0.999999)) }
	switch kind {
	case 0:
		for i := range pts {
			pts[i] = rng.Float32()
		}
	case 1:
		const k, sigma = 8, 0.02
		centers := make([]float64, 3*k)
		for i := range centers {
			centers[i] = 0.1 + 0.8*rng.Float64()
		}
		for i := 0; i < n; i++ {
			c := rng.Intn(k)
			for a := 0; a < 3; a++ {
				pts[3*i+a] = clamp(centers[3*c+a] + rng.NormFloat64()*sigma)
			}
		}
	default:
		const bend = 0.2
		for i := 0; i < n; i++ {
			x, y := rng.Float64(), rng.Float64()
			pts[3*i], pts[3*i+1] = float32(x), float32(y)
			pts[3*i+2] = clamp(0.5 + bend*(x*x-y*y) + rng.NormFloat64()*0.003)
		}
	}
	return pts
}

// visionFrame draws a w×h Bayer mosaic: a gradient in a random direction
// with sensor noise and occasional hot pixels.
func visionFrame(rng *rand.Rand, w, h int) []float32 {
	img := make([]float32, w*h)
	dx, dy := rng.Float64(), rng.Float64()
	const noise = 0.02
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 0.2 + 0.6*(dx*float64(x)+dy*float64(y))/((dx+dy)*float64(w+h)/2+1e-9)/2 + rng.NormFloat64()*noise
			if rng.Float64() < 0.001 {
				v = 1
			}
			img[y*w+x] = float32(min(max(v, 0), 1))
		}
	}
	return img
}

// octreeCodes is the benchmark's own computation of a frame's unique
// Morton codes: encode every point, sort, drop repeats.
func octreeCodes(pts []float32) []uint32 {
	codes := make([]uint32, len(pts)/3)
	for i := range codes {
		codes[i] = octree.EncodePoint(pts[3*i], pts[3*i+1], pts[3*i+2])
	}
	slices.Sort(codes)
	return slices.Compact(codes)
}
