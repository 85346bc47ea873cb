package main

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"bettertogether/internal/apps/octree"
	"bettertogether/internal/apps/vision"
	"bettertogether/internal/core"
	"bettertogether/internal/pipeline"
	"bettertogether/internal/soc"
	"bettertogether/pkg/btapps"
)

// stream runs tasks through app's wrapped copy on the real engine with a
// three-chunk schedule, so TaskObjects recycle across chunks.
func stream(t *testing.T, o *outputs, app *core.Application, tasks int) {
	t.Helper()
	dev, err := soc.DeviceByName("pixel7a")
	if err != nil {
		t.Fatal(err)
	}
	n := len(app.Stages)
	assign := make([]core.PUClass, n)
	for i := range assign {
		assign[i] = []core.PUClass{core.ClassBig, core.ClassGPU, core.ClassLittle}[3*i/n]
	}
	plan, err := pipeline.NewPlan(o.wrap(app), dev, core.Schedule{Assign: assign})
	if err != nil {
		t.Fatal(err)
	}
	o.reset(tasks)
	r := pipeline.RealEngine{}.Run(context.Background(), plan, pipeline.Options{Tasks: tasks})
	if r.Err != nil || len(r.Completions) != tasks {
		t.Fatalf("stream: err %v, %d of %d tasks", r.Err, len(r.Completions), tasks)
	}
}

func testFrames(gen func(*rand.Rand, int) []float32) [][]float32 {
	rng := rand.New(rand.NewSource(7))
	out := make([][]float32, frames)
	for i := range out {
		out[i] = gen(rng, i)
	}
	return out
}

func TestSerialReferenceAcceptsAndRejects(t *testing.T) {
	const w, h, tasks = 16, 16, 30
	fr := testFrames(func(rng *rand.Rand, _ int) []float32 { return visionFrame(rng, w, h) })
	app, err := btapps.VisionSized(w, h)
	if err != nil {
		t.Fatal(err)
	}
	o := newOutputs(visionDigest, visionInput(fr), nil)
	stream(t, o, app, tasks)
	o.collect()
	b := newBench(1, 0, false)
	if bad := o.check(b, "clean"); bad != 0 || len(b.violations) != 0 {
		t.Fatalf("clean stream: %d bad tasks: %v", bad, b.violations)
	}

	// Corrupt one output still held by a TaskObject when the stream ended.
	stream(t, o, app, tasks)
	held := o.objs[0]
	vision.Unwrap(held.inner.Payload).Out.Data[5] += 0.25
	o.collect()
	b = newBench(1, 0, false)
	if bad := o.check(b, "corrupt"); bad != 1 || len(b.violations) != 1 ||
		!strings.Contains(b.violations[0], "serial reference") {
		t.Fatalf("corrupted task %d: %d bad, violations %v", held.seq, bad, b.violations)
	}

	// A task that never reported its output is caught too.
	stream(t, o, app, tasks)
	b = newBench(1, 0, false)
	if bad := o.check(b, "uncollected"); bad == 0 || !strings.Contains(b.violations[0], "left no output") {
		t.Fatalf("uncollected stream: %d bad, violations %v", bad, b.violations)
	}
}

func TestOctreeReferenceMatchesStandardLibrary(t *testing.T) {
	const points, tasks = 512, 24
	fr := testFrames(func(rng *rand.Rand, i int) []float32 { return octreeFrame(rng, points, i%3) })
	app := octree.NewApplication(points, frameGen(fr))
	o := newOutputs(octreeDigest, nil, octreeVerify(fr))
	stream(t, o, app, tasks)
	o.collect()
	b := newBench(1, 0, false)
	if bad := o.check(b, "octree"); bad != 0 {
		t.Fatalf("octree stream: %v", b.violations)
	}

	// Checked against other points, the reference's codes must disagree.
	other := testFrames(func(rng *rand.Rand, i int) []float32 { return octreeFrame(rng, points, (i+1)%3) })
	o = newOutputs(octreeDigest, nil, octreeVerify(other))
	o.wrap(app)
	o.reset(1)
	if _, err := o.reference(0); err == nil {
		t.Fatal("octree reference agreed with the codes of different points")
	}
}

func TestDigestSeesOneWordChange(t *testing.T) {
	a, b := newHasher(), newHasher()
	for i := uint64(0); i < 100; i++ {
		a.add(i)
		if i == 50 {
			b.add(i ^ 1)
		} else {
			b.add(i)
		}
	}
	if a == b {
		t.Fatal("digests of different words agree")
	}
}
