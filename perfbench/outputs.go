package main

import (
	"fmt"
	"math"
	"slices"

	"bettertogether/internal/apps/octree"
	"bettertogether/internal/apps/vision"
	"bettertogether/internal/core"
)

// outputs captures one stream's per-task results. The real engine
// recycles TaskObjects, so a task's output survives only until its
// object is reset for the next task: the wrapped application digests it
// at that moment, and collect digests the objects still holding the
// stream's last tasks. check compares every digest with the serial
// reference for the same seq.
type outputs struct {
	digest func(payload any) uint64
	input  func(payload any, seq int) // overwrites a task's input; nil keeps the application's own
	// verify, when set, checks a reference output against a computation
	// made apart from the program.
	verify func(payload any, seq int) error

	base *core.Application
	refs map[int]uint64 // frame (seq mod frames) -> reference digest
	sums []uint64
	seen []bool
	objs []*tracked
}

// tracked is one TaskObject of the wrapped application and the seq of
// the task it last carried (-1 before its first task).
type tracked struct {
	inner *core.TaskObject
	seq   int
}

func newOutputs(digest func(any) uint64, input func(any, int), verify func(any, int) error) *outputs {
	return &outputs{digest: digest, input: input, verify: verify, refs: map[int]uint64{}}
}

// wrap returns a copy of app whose TaskObjects digest their finished
// task's output before every reset.
func (o *outputs) wrap(app *core.Application) *core.Application {
	o.base = app
	w := *app
	w.NewTask = func() *core.TaskObject {
		t := &tracked{inner: app.NewTask(), seq: -1}
		o.objs = append(o.objs, t)
		return core.NewTaskObject(t.inner.Payload, t.inner.Buffers, func(obj *core.TaskObject) {
			o.record(t)
			t.inner.Reset(obj.Seq)
			if o.input != nil {
				o.input(t.inner.Payload, obj.Seq)
			}
			t.seq = obj.Seq
		})
	}
	return &w
}

// reset prepares for a stream of n tasks.
func (o *outputs) reset(n int) {
	o.sums = make([]uint64, n)
	o.seen = make([]bool, n)
	o.objs = nil
}

func (o *outputs) record(t *tracked) {
	if t.seq >= 0 && t.seq < len(o.sums) {
		o.sums[t.seq] = o.digest(t.inner.Payload)
		o.seen[t.seq] = true
	}
}

// collect digests the outputs still held when the stream ended.
func (o *outputs) collect() {
	for _, t := range o.objs {
		o.record(t)
	}
}

// check compares every task of the stream with the serial reference.
// It reports the first few mismatches and returns how many tasks failed.
func (o *outputs) check(b *bench, id string) int {
	bad := 0
	for seq := range o.sums {
		want, err := o.reference(seq)
		switch {
		case err != nil:
			b.violate("%s: reference for task %d: %v", id, seq, err)
		case !o.seen[seq]:
			b.violate("%s: task %d left no output", id, seq)
		case o.sums[seq] != want:
			b.violate("%s: task %d output digest %016x, serial reference %016x", id, seq, o.sums[seq], want)
		default:
			continue
		}
		if bad++; bad >= 3 {
			break
		}
	}
	return bad
}

// reference is the digest of the application's kernels run one after
// another on one goroutine (core.SerialFor) for seq's input, computed
// once per distinct frame.
func (o *outputs) reference(seq int) (uint64, error) {
	f := seq % frames
	if d, ok := o.refs[f]; ok {
		return d, nil
	}
	to := o.base.NewTask()
	to.Reset(f)
	if o.input != nil {
		o.input(to.Payload, f)
	}
	for _, st := range o.base.Stages {
		st.CPU(to, core.SerialFor)
	}
	if o.verify != nil {
		if err := o.verify(to.Payload, f); err != nil {
			return 0, err
		}
	}
	d := o.digest(to.Payload)
	o.refs[f] = d
	return d, nil
}

// hasher folds 64-bit words into a digest. Each step is a bijection of
// the state, so two outputs that differ in exactly one word always
// digest differently.
type hasher uint64

func newHasher() hasher { return 14695981039346656037 }

func (h *hasher) add(v uint64) { *h = (*h ^ hasher(v)) * 1099511628211 }

// octreeDigest covers the unique Morton codes and every octree node.
func octreeDigest(payload any) uint64 {
	t := payload.(*octree.Task)
	h := newHasher()
	h.add(uint64(t.NumUnique))
	for _, c := range t.Codes.Data[:t.NumUnique] {
		h.add(uint64(c))
	}
	h.add(uint64(t.Result.Root))
	h.add(uint64(len(t.Result.Nodes)))
	for i := range t.Result.Nodes {
		n := &t.Result.Nodes[i]
		for j := 0; j < 8; j += 2 {
			h.add(uint64(uint32(n.Children[j])) | uint64(uint32(n.Children[j+1]))<<32)
		}
		h.add(uint64(uint32(n.Leaf)) | uint64(n.Mask)<<32)
	}
	return uint64(h)
}

// octreeVerify checks a reference frame's unique codes against the
// benchmark's own sort and dedupe of the frame's points.
func octreeVerify(fr [][]float32) func(any, int) error {
	return func(payload any, seq int) error {
		t := payload.(*octree.Task)
		want := octreeCodes(fr[seq%len(fr)])
		if got := t.Codes.Data[:t.NumUnique]; !slices.Equal(got, want) {
			return fmt.Errorf("serial octree has %d unique codes, the standard-library sort gives %d (or they differ)", len(got), len(want))
		}
		return nil
	}
}

// visionDigest covers the downscaled output and the luminance histogram.
func visionDigest(payload any) uint64 {
	t := vision.Unwrap(payload)
	h := newHasher()
	for _, v := range t.Out.Data {
		h.add(uint64(math.Float32bits(v)))
	}
	for _, v := range t.Hist.Data {
		h.add(uint64(uint32(v)))
	}
	return uint64(h)
}
