package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// span is one timed call from the benchmark into a layer. Start and end
// are nanoseconds since the tracer was created; parent is the index of
// the enclosing span (-1 for none); id is shared by every span of one
// event or request.
type span struct {
	name       string
	start, end int64
	parent     int32
	id         uint64
}

// tracer keeps spans, samples and counts in memory for a traced run and
// writes the spans out when the run ends. A disabled tracer records
// nothing: Start returns -1 and End ignores it, so untraced runs pay one
// branch per call site.
type tracer struct {
	on      bool
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	samples map[string][]float64
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now(), samples: map[string][]float64{}}
}

// Start opens a span and returns its handle.
func (t *tracer) Start(name string, parent int32, id uint64) int32 {
	if !t.on {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, id: id})
	t.mu.Unlock()
	return i
}

// End closes a span opened by Start.
func (t *tracer) End(i int32) {
	if i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// Sample records one value of a named distribution.
func (t *tracer) Sample(name string, v float64) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the durations (in ns) of every closed span named
// name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.end >= s.start {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

func (t *tracer) sampled(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.samples[name]...)
}

// selfTimes sums each layer's self time: a span's duration minus the
// durations of its child spans. The layer is the span name up to the
// first dot.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= s.start {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		if s.end < s.start {
			continue
		}
		self := s.end - s.start - child[i]
		if self < 0 {
			self = 0
		}
		layer, _, _ := strings.Cut(s.name, ".")
		out[layer] += time.Duration(self)
	}
	return out
}

// write stores the spans as gzip-compressed CSV, one span per line,
// after a header naming the host.
func (t *tracer) write(path, host string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintf(bw, "# host %s\nindex,name,start_ns,end_ns,parent,id\n", host)
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d,%s,%d,%d,%d,%d\n", i, s.name, s.start, s.end, s.parent, s.id)
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printSelfTimes(t *tracer) {
	self := t.selfTimes()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Printf("self %-12s %10.4f s\n", l, self[l].Seconds())
	}
}

// ---- statistics ----

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty input).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// scaled returns xs multiplied by f (unit conversion).
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// pct is a percentile metric over samples.
func pct(xs []float64, q float64, unit string) metric {
	return metric{Value: quantile(xs, q), Unit: unit, Samples: len(xs)}
}

func one(v float64, unit string) metric { return metric{Value: v, Unit: unit, Samples: 1} }

// ---- process resources ----

// rssSampler samples the process's resident set every rssEvery until
// stopped. Its high quantile is the run's memory footprint: the absolute
// peak swings with where garbage collections happen to fall.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MiB
}

const rssEvery = 10 * time.Millisecond

// startRSS first returns freed memory to the operating system, so that
// the samples are the assembled system's footprint rather than what
// generating the inputs left behind, then starts sampling.
func startRSS() *rssSampler {
	debug.FreeOSMemory()
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			if mb, ok := residentMB(); ok {
				r.samples = append(r.samples, mb)
			}
			select {
			case <-r.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

// finish stops sampling and returns the p95 resident set in MiB.
func (r *rssSampler) finish() metric {
	close(r.stop)
	<-r.done
	return pct(r.samples, 0.95, "MB")
}

// residentMB reads the current resident set from /proc/self/statm.
func residentMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
