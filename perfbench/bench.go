package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// bench is one run's state: the measured loop's budget, the operation
// and correctness tallies, the metric values, and — in a traced run —
// the span log and the CPU profile.
type bench struct {
	seed    int64
	seconds time.Duration
	traced  bool

	ops        opCount
	violations []string
	values     map[string]float64

	spans   *spanLog      // nil unless traced
	profile *bytes.Buffer // CPU profile of the traced run
	gcStart gcSample
}

func newBench(seed int64, seconds time.Duration, traced bool) *bench {
	b := &bench{seed: seed, seconds: seconds, traced: traced, values: map[string]float64{}}
	if traced {
		b.spans = newSpanLog()
	}
	return b
}

// start begins the traced run's CPU profile; untraced runs profile nothing.
func (b *bench) start() error {
	if !b.traced {
		return nil
	}
	b.profile = &bytes.Buffer{}
	b.gcStart = readGC()
	return pprof.StartCPUProfile(b.profile)
}

// finish records the process-wide metrics, and in a traced run stops the
// profile, attributes it to layers and writes spans and profile out.
func (b *bench) finish(dir, stem string) error {
	if !b.traced {
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		b.set("peak_rss_mb", rss)
		return nil
	}
	pprof.StopCPUProfile()
	gc := readGC().minus(b.gcStart)
	if gc.busy > 0 {
		b.set("go.gc_cpu_share", gc.gc/gc.busy)
	}
	stacks, err := parseProfile(b.profile.Bytes())
	if err != nil {
		return fmt.Errorf("reading the CPU profile: %w", err)
	}
	for name, share := range attribute(stacks) {
		b.set(name, share)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, stem+".cpu.pprof"), b.profile.Bytes(), 0o644); err != nil {
		return err
	}
	return b.spans.write(filepath.Join(dir, stem+".spans.json"))
}

func (b *bench) set(name string, v float64) { b.values[name] = v }

// violate records a failed output check; the run then reports
// correct=false.
func (b *bench) violate(format string, args ...any) {
	b.violations = append(b.violations, fmt.Sprintf(format, args...))
}

// loop runs whole rounds until the run's budget is spent, at least once.
// Whole rounds keep the failed share of attempted operations the same in
// every run, whatever its length.
func (b *bench) loop(round func(i int) error) error {
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < b.seconds; i++ {
		if err := round(i); err != nil {
			return err
		}
	}
	return nil
}

// opCount tallies operations attempted and failed.
type opCount struct{ attempted, failed int }

// add counts n attempted operations of which failed did not complete.
func (c *opCount) add(n, failed int) {
	c.attempted += n
	c.failed += failed
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// settle collects the garbage earlier work left behind, outside any
// timed section, so each timed call starts from the same heap state
// instead of paying for its predecessor's garbage.
func settle() { runtime.GC() }

// cpuSeconds is the CPU time the process has used so far, every thread,
// user and system. A timed call's cost is read from it rather than from
// the wall clock: on a virtual machine whose kernel accounts steal time
// (CONFIG_PARAVIRT_TIME_ACCOUNTING), time the host takes a virtual CPU
// away counts toward wall time but not toward the process's CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// gcSample is the runtime's cumulative CPU accounting: time spent on
// garbage collection and time spent on anything but idling.
type gcSample struct{ gc, busy float64 }

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return gcSample{gc: s[0].Value.Float64(), busy: s[1].Value.Float64() - s[2].Value.Float64()}
}

func (a gcSample) minus(b gcSample) gcSample { return gcSample{a.gc - b.gc, a.busy - b.busy} }

// span is one timed call the benchmark made into the program. Start and
// End are nanoseconds since the run began; Parent indexes the enclosing
// span (-1 for a root); ID is shared by every span of one session or
// stream.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span and returns its index; end closes it. A nil log
// (untraced run) records nothing.
func (l *spanLog) begin(name, id string, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Start: int64(time.Since(l.origin))})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	if l == nil {
		return
	}
	l.spans[i].End = int64(time.Since(l.origin))
}

// durationsMS returns, in milliseconds, the durations of the spans with
// the given name whose ID starts with idPrefix.
func (l *spanLog) durationsMS(name, idPrefix string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name && strings.HasPrefix(s.ID, idPrefix) {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

func (l *spanLog) write(path string) error {
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
