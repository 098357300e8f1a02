// Command perfbench is the repository's end-to-end benchmark. It
// assembles the system in process from its public packages (collector,
// pipeline and its intake, journal, relay, serve, viz, core/stemming,
// core/tamp), drives one workload against it, checks the outputs, and
// prints every metric by name with its unit and sample count. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the run
// records spans around every call it makes into a layer and the metrics
// are the per-layer set derived from them. See README.md for the
// workloads, the metric → layer → workload map, and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"rex/internal/obs"
)

// metric is one reported number. Samples is the count behind it (1 for
// a single measurement, the population size for a percentile).
type metric struct {
	Value   float64
	Unit    string
	Samples int
}

// report is what a workload run hands back to main.
type report struct {
	// e2e holds the contract's end-to-end metrics (the JSON keys of an
	// untraced run); named holds the same figures under the names the
	// workload's own definition uses, for the human-readable table.
	e2e   map[string]metric
	named map[string]metric
	// layer holds the per-layer metrics of a traced run.
	layer map[string]metric

	// rss samples the resident set from when the workload's inputs are
	// generated until it returns.
	rss *rssSampler

	attempted, failed int
	checks            []check
	digest            string
	notes             []string
}

// check is one output-correctness assertion.
type check struct {
	name   string
	ok     bool
	detail string
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, named: map[string]metric{}, layer: map[string]metric{}}
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return len(r.checks) > 0
}

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	workdir string
}

var workloads = map[string]func(options, *tracer) (*report, error){
	"wire-live":      runWireLive,
	"window-replay":  runWindowReplay,
	"ingest-history": runIngestHistory,
}

// e2eNames and layerUnits are the metric keys of the final JSON line,
// in BENCHMARK.json order. Every workload reports every key.
var e2eNames = []string{"setup_s", "latency_ms_p50", "latency_ms_p90", "events_per_s", "rss_p95_mb"}

// layerUnits lists every per-layer metric with its unit.
var layerUnits = []struct{ name, unit string }{
	{"collector.deliver_ms_p50", "ms"}, {"collector.deliver_ms_p90", "ms"}, {"bgp.decode_ns_per_msg", "ns"}, {"collector.events", "count"},
	{"intake.offer_blocked_s", "s"},
	{"journal.append_us_p50", "us"}, {"journal.append_us_p90", "us"}, {"journal.append_busy_s", "s"}, {"journal.bytes_per_event", "bytes"}, {"journal.scan_ms_p50", "ms"},
	{"relay.hop_ms_p50", "ms"}, {"relay.hop_ms_p90", "ms"}, {"relay.backlog_events_max", "count"},
	{"pipeline.ingest_busy_s", "s"}, {"pipeline.snapshot_lag_ms_p50", "ms"}, {"pipeline.snapshot_lag_ms_p90", "ms"}, {"pipeline.snapshots", "count"},
	{"pipeline.window_events_mean", "count"}, {"pipeline.workers_speedup", "x"}, {"pipeline.replay_ms_p50", "ms"},
	{"stemming.add_ns_per_event", "ns"}, {"stemming.evict_ns_per_event", "ns"}, {"stemming.snapshot_ms_p50", "ms"}, {"stemming.snapshot_ms_p90", "ms"}, {"stemming.components_mean", "count"},
	{"tamp.route_op_ns", "ns"}, {"tamp.merge_snapshot_ms_p50", "ms"}, {"tamp.graph_snapshot_ms_p50", "ms"},
	{"viz.svg_ms_p50", "ms"}, {"viz.json_ms_p50", "ms"}, {"viz.svg_bytes_mean", "bytes"},
	{"serve.publish_us_p90", "us"}, {"serve.sse_ms_p50", "ms"}, {"serve.sse_ms_p90", "ms"}, {"serve.at_svg_ms_p50", "ms"}, {"serve.at_hit_ms_p50", "ms"},
	{"serve.replay_records_mean", "count"}, {"serve.shed", "count"}, {"serve.sse_resyncs", "count"},
	{"process.cpu_us_per_event", "us"}, {"gen.late_ms_p90", "ms"}, {"trace.overhead_frac", "frac"},
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: wire-live, window-replay or ingest-history")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "how long the measured phase runs")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	workdir := fs.String("workdir", ".bench_build/run", "scratch directory for journals and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, *workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	opts := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, workdir: dir}
	tr := newTracer(opts.trace)
	obs.SetLogLevel(obs.Warn)
	host := hostFingerprint()
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)
	fmt.Printf("host %s\n", host)

	rep, err := fn(opts, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	rss95 := rep.rss.finish()
	rep.e2e["rss_p95_mb"] = rss95
	rep.named["rss_p95_mb"] = rss95
	if opts.trace {
		spans := filepath.Join(*workdir, "..", "trace", fmt.Sprintf("%s-seed%d.spans.csv.gz", *workload, *seed))
		if err := tr.write(spans, host); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Printf("spans: %s (%d spans)\n", spans, tr.count())
		printSelfTimes(tr)
	}
	printReport(rep, opts.trace)

	out := map[string]any{}
	names, src := e2eNames, rep.e2e
	if opts.trace {
		names = nil
		for _, l := range layerUnits {
			names = append(names, l.name)
		}
		src = rep.layer
	}
	for _, n := range names {
		m, ok := src[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s not measured\n", n)
			return 1
		}
		out[n] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": rep.correct(), "attempted": rep.attempted, "failed": rep.failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.correct() {
		return 1
	}
	return 0
}

// printReport writes the human-readable result: checks, the workload's
// own metric names with units and sample counts, then the metric set the
// JSON line carries.
func printReport(r *report, traced bool) {
	for _, c := range r.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
		}
		fmt.Printf("check %s %-40s %s\n", status, c.name, c.detail)
	}
	for _, n := range r.notes {
		fmt.Printf("note %s\n", n)
	}
	fmt.Printf("digest %s\n", r.digest)
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("failed_frac %.6f (%d of %d)\n", frac, r.failed, r.attempted)
	printTable("metric", r.named)
	if traced {
		printTable("layer", r.layer)
	}
}

func printTable(kind string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		fmt.Printf("%s %-32s %14.4f %-6s n=%d\n", kind, n, m.Value, m.Unit, m.Samples)
	}
}

// hostFingerprint identifies the machine a result was taken on.
func hostFingerprint() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					model = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), model)
}
