// Command benchjson is the benchmark regression harness behind
// `make bench`: it runs the streaming-pipeline benchmarks
// (BenchmarkPipelineWindow and BenchmarkParallelWindow, plus
// BenchmarkReplayAt for the time-travel replay latency) and distills the
// `go test -bench` output into a stable JSON file — ns/op, events/sec
// and allocs/op per benchmark — so successive PRs can diff throughput
// without re-parsing bench text. The format is documented in
// EXPERIMENTS.md.
//
// With -compare OLD.json (`make bench-check`) it instead diffs the
// fresh run against a committed baseline and exits non-zero when
// allocs/op grew or events/sec shrank beyond the thresholds — the CI
// smoke that keeps the allocation diet from silently regressing.
// Allocation counts are deterministic, so their threshold is tight;
// events/sec on shared runners is noisy, so its threshold is
// deliberately loose and only catches collapses.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// Result is one benchmark line, distilled.
type Result struct {
	Name         string  `json:"name"`
	Iterations   int64   `json:"iterations"`
	NsPerOp      float64 `json:"ns_per_op"`
	EventsPerOp  float64 `json:"events_per_op,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
}

// File is the top-level BENCH_<label>.json document.
type File struct {
	GoVersion  string             `json:"go_version"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	NumCPU     int                `json:"num_cpu"`
	Benchtime  string             `json:"benchtime"`
	Benchmarks []Result           `json:"benchmarks"`
	Speedups   map[string]float64 `json:"parallel_speedup_vs_workers_1,omitempty"`
}

func main() {
	benchtime := flag.String("benchtime", "1x", "go test -benchtime value")
	pattern := flag.String("bench", "^(BenchmarkPipelineWindow|BenchmarkParallelWindow|BenchmarkReplayAt)$", "benchmark regexp")
	out := flag.String("out", "BENCH_local.json", "output JSON path (the committed BENCH_pr*.json files are baselines; keep them out of local runs)")
	compare := flag.String("compare", "", "baseline JSON to diff against instead of writing (exit 1 on regression)")
	maxAllocRatio := flag.Float64("max-alloc-ratio", 1.25, "compare: fail when allocs/op exceeds baseline by this factor")
	minEventsRatio := flag.Float64("min-events-ratio", 0.5, "compare: fail when events/sec falls below this fraction of baseline")
	flag.Parse()

	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", *pattern, "-benchmem", "-benchtime", *benchtime, "-cpu", strconv.Itoa(runtime.NumCPU()), ".")
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: go test -bench failed: %v\n", err)
		os.Exit(1)
	}
	os.Stdout.Write(raw)

	doc := File{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Benchtime: *benchtime,
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if r, ok := parseLine(sc.Text()); ok {
			doc.Benchmarks = append(doc.Benchmarks, r)
		}
	}
	doc.Speedups = speedups(doc.Benchmarks)

	if *compare != "" {
		os.Exit(compareAgainst(*compare, doc.Benchmarks, *maxAllocRatio, *minEventsRatio))
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(doc.Benchmarks), *out)
}

// compareAgainst diffs fresh results against the committed baseline
// file and returns the process exit code: 0 when every matching
// benchmark is within thresholds, 1 on any regression. Benchmarks
// present on only one side are reported but do not fail the run — the
// benchmark set may legitimately change between PRs.
func compareAgainst(path string, fresh []Result, maxAllocRatio, minEventsRatio float64) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read baseline: %v\n", err)
		return 1
	}
	var base File
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: parse baseline %s: %v\n", path, err)
		return 1
	}
	old := make(map[string]Result, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		old[r.Name] = r
	}
	regressions := 0
	matched := 0
	for _, r := range fresh {
		b, ok := old[r.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: %s: not in baseline, skipped\n", r.Name)
			continue
		}
		matched++
		delete(old, r.Name)
		if b.AllocsPerOp > 0 && r.AllocsPerOp > b.AllocsPerOp*maxAllocRatio {
			fmt.Fprintf(os.Stderr, "benchjson: REGRESSION %s: allocs/op %.0f vs baseline %.0f (limit %.2fx)\n",
				r.Name, r.AllocsPerOp, b.AllocsPerOp, maxAllocRatio)
			regressions++
		} else {
			fmt.Fprintf(os.Stderr, "benchjson: ok %s: allocs/op %.0f vs baseline %.0f\n",
				r.Name, r.AllocsPerOp, b.AllocsPerOp)
		}
		if b.EventsPerSec > 0 && r.EventsPerSec < b.EventsPerSec*minEventsRatio {
			fmt.Fprintf(os.Stderr, "benchjson: REGRESSION %s: events/sec %.0f vs baseline %.0f (floor %.2fx)\n",
				r.Name, r.EventsPerSec, b.EventsPerSec, minEventsRatio)
			regressions++
		}
	}
	for name := range old {
		fmt.Fprintf(os.Stderr, "benchjson: %s: in baseline but not in this run\n", name)
	}
	if matched == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmarks matched the baseline — nothing was checked")
		return 1
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) vs %s\n", regressions, path)
		return 1
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) within thresholds of %s\n", matched, path)
	return 0
}

// parseLine handles one `go test -bench` result line: the name and
// iteration count, then (value, unit) pairs.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: trimCPUSuffix(fields[0]), Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "events":
			r.EventsPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		}
	}
	if r.NsPerOp > 0 && r.EventsPerOp > 0 {
		r.EventsPerSec = r.EventsPerOp / r.NsPerOp * 1e9
	}
	return r, true
}

// trimCPUSuffix drops go test's "-N" GOMAXPROCS suffix so names are
// stable across machines.
func trimCPUSuffix(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// speedups reports each BenchmarkParallelWindow variant's events/sec
// relative to the workers=1 run on the same stream.
func speedups(rs []Result) map[string]float64 {
	var base float64
	for _, r := range rs {
		if r.Name == "BenchmarkParallelWindow/workers=1" {
			base = r.EventsPerSec
		}
	}
	if base == 0 {
		return nil
	}
	out := map[string]float64{}
	for _, r := range rs {
		if strings.HasPrefix(r.Name, "BenchmarkParallelWindow/workers=") && r.EventsPerSec > 0 {
			out[strings.TrimPrefix(r.Name, "BenchmarkParallelWindow/")] = r.EventsPerSec / base
		}
	}
	return out
}
