package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// stack is one CPU-profile sample: its function names from the leaf
// (innermost call) to the root, and its sample count.
type stack struct {
	frames []string
	count  int64
}

// parseProfile decodes a gzipped pprof protobuf as runtime/pprof writes
// it, keeping only what attribution needs: each sample's function names
// and its first value (the sample count).
func parseProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(field int, wire int, v uint64, msg []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := eachField(msg, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var funcs []uint64
			err := eachField(msg, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(msg, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stack{count: s.values[0]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx < 0 || int(idx) >= len(strs) {
					return nil, fmt.Errorf("function %d names string %d of %d", fn, idx, len(strs))
				}
				st.frames = append(st.frames, strs[idx])
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and wire type and either its varint value (wire types 0, 1, 5)
// or its length-delimited payload (wire type 2).
func eachField(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, packed (wire
// type 2) or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// packageOf returns the import path of a profiled function name, e.g.
// "bettertogether/internal/fleet" for
// "bettertogether/internal/fleet.(*Fleet).Place". Type parameters may
// carry slashes of their own, so the path ends at the first '.' after the
// last '/' that precedes any '(' or '['.
func packageOf(fn string) string {
	head := fn
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		head = fn[:i]
	}
	start := strings.LastIndex(head, "/") + 1
	if dot := strings.Index(head[start:], "."); dot >= 0 {
		return fn[:start+dot]
	}
	return head
}

// layerOf maps a package to the layer it belongs to, "" for packages
// outside every layer (the Go runtime, the standard library, this
// benchmark). internal/des serves both the fleet replay and the pipeline
// simulator, so it belongs to neither: its samples go to whichever layer
// called it.
func layerOf(pkg string) string {
	const mod = "bettertogether/"
	rest, ok := strings.CutPrefix(pkg, mod)
	if !ok {
		return ""
	}
	switch {
	case rest == "pkg/btapps", strings.HasPrefix(rest, "internal/apps/"),
		rest == "internal/sparse", rest == "internal/tensor":
		return "btapps"
	case rest == "internal/fleet":
		return "fleet"
	case rest == "internal/runtime":
		return "runtime"
	case rest == "internal/profiler":
		return "profiler"
	case rest == "internal/sched", rest == "internal/solver":
		return "sched"
	case rest == "internal/schedcache":
		return "schedcache"
	case rest == "internal/soc":
		return "soc"
	case rest == "internal/pipeline", rest == "internal/queue", rest == "internal/metrics":
		return "pipeline"
	}
	return ""
}

// attribute splits a CPU profile by layer. Shares are of all samples:
//
//   - btapps.cpu_share, profiler.cpu_share: samples with any frame in the
//     layer (inclusive).
//   - sched.solve_cpu_share: samples inside the candidate search
//     (sched.(*Optimizer).Candidates or the solver); sched.autotune_cpu_share:
//     samples inside sched.(*Optimizer).Autotune, its worker goroutines
//     included.
//   - pipeline.sim_cpu_share: samples inside the simulator engine's
//     executor, pipeline.simRun.
//   - fleet.cpu_self_share, soc.cpu_share: samples whose innermost layer
//     frame is in the layer (self time).
func attribute(stacks []stack) map[string]float64 {
	var total int64
	counts := map[string]int64{}
	for _, s := range stacks {
		total += s.count
		for _, m := range classify(s.frames) {
			counts[m] += s.count
		}
	}
	out := map[string]float64{}
	for _, m := range []string{"btapps.cpu_share", "profiler.cpu_share", "sched.solve_cpu_share",
		"sched.autotune_cpu_share", "pipeline.sim_cpu_share", "fleet.cpu_self_share", "soc.cpu_share"} {
		if total > 0 {
			out[m] = float64(counts[m]) / float64(total)
		} else {
			out[m] = 0
		}
	}
	return out
}

// classify names the share metrics one sample counts toward; frames run
// from the leaf to the root.
func classify(frames []string) []string {
	var in []string
	seen := map[string]bool{}
	mark := func(m string) {
		if !seen[m] {
			seen[m] = true
			in = append(in, m)
		}
	}
	self := ""
	for _, fn := range frames {
		layer := layerOf(packageOf(fn))
		if self == "" && layer != "" {
			self = layer
		}
		switch layer {
		case "btapps":
			mark("btapps.cpu_share")
		case "profiler":
			mark("profiler.cpu_share")
		case "sched":
			if strings.HasPrefix(fn, "bettertogether/internal/solver.") ||
				strings.HasPrefix(fn, "bettertogether/internal/sched.(*Optimizer).Candidates") {
				mark("sched.solve_cpu_share")
			}
			if strings.HasPrefix(fn, "bettertogether/internal/sched.(*Optimizer).Autotune") {
				mark("sched.autotune_cpu_share")
			}
		case "pipeline":
			if strings.HasPrefix(fn, "bettertogether/internal/pipeline.simRun") {
				mark("pipeline.sim_cpu_share")
			}
		}
	}
	switch self {
	case "fleet":
		mark("fleet.cpu_self_share")
	case "soc":
		mark("soc.cpu_share")
	}
	return in
}
