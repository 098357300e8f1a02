package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"rex/internal/core/pipeline"
	"rex/internal/event"
	"rex/internal/journal"
	"rex/internal/serve"
	"rex/internal/sim"
)

// ingest-history: batch writes beside a closed loop of time-travel
// reads. A write pass appends each churn event to the journal and then
// ingests it (rexd's intake order) with snapshots off; the read phase
// runs one keep-alive HTTP client over distinct instants drawn from the
// seed: a cold /api/at (a replay from journal seq 0, which the untrimmed
// journal forces), the picture at the same instant, and a repeat that
// the replay cache answers. The first write pass builds the system the
// reads query; the others, each on a fresh system, are spread evenly
// over the run between reads, so that the write figure is a median over
// the whole run rather than over its first seconds.
const (
	// historyRoutes sizes the baseline below the other workloads' 23k:
	// every cold query replays the journal from seq 0, baseline
	// included, and the read phase must fit historyMinInstants queries
	// in one run.
	historyRoutes      = 10_000
	historyChurn       = 10_000
	historyWritePasses = 24 // per run, the first building the read phase's system
	historySpan        = 2 * time.Hour
	historyWindow      = 30 * time.Minute
	historyMinInstants = 100
	historyProbes      = 20 // instants re-timed through journal.Scan and ReplayState directly
)

// historySystem is the assembled write path plus the serving tier.
type historySystem struct {
	dir  string
	w    *journal.Writer
	p    *pipeline.Pipeline
	api  *serve.Server
	addr string
	done chan struct{}
}

// openHistory assembles journal, pipeline and serving tier in dir and
// writes the baseline table through them.
func openHistory(dir string, cfg pipeline.Config, base event.Stream) (*historySystem, error) {
	w, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncInterval})
	if err != nil {
		return nil, fmt.Errorf("open journal: %w", err)
	}
	s := &historySystem{dir: dir, w: w, p: pipeline.New(cfg), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for range s.p.Snapshots() {
		}
	}()
	s.api = serve.New(serve.Config{HistoryDir: dir, Replay: cfg})
	bound, err := s.api.Serve("127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.addr = bound.String()
	for i := range base {
		if _, err := w.Append(&base[i]); err != nil {
			s.close()
			return nil, fmt.Errorf("append baseline: %w", err)
		}
		s.p.Ingest(base[i])
	}
	s.p.TriggerQuery() // barrier: the baseline is in the pipeline
	return s, nil
}

// write runs the measured write phase, every event appended and then
// ingested until the pipeline has drained, and returns the append
// failures. It leaves the journal open: under the interval fsync policy
// a phase this short would otherwise time one whole flush and fsync,
// many times its steady-state share, and with it the disk's noise.
func (s *historySystem) write(churn event.Stream, tr *tracer) (failed int) {
	for i := range churn {
		sp := tr.Start("journal.append", -1, uint64(i))
		_, err := s.w.Append(&churn[i])
		tr.End(sp)
		if err != nil {
			failed++
		}
		sp = tr.Start("pipeline.ingest", -1, uint64(i))
		s.p.Ingest(churn[i])
		tr.End(sp)
	}
	s.p.Close()
	<-s.done
	return failed
}

func (s *historySystem) close() {
	s.api.Close()
	s.p.Close()
	<-s.done
	s.w.Close()
}

// writePass opens a fresh system in dir, times its write phase and
// tears it down: the untraced and Workers=1 baselines of a traced run.
func writePass(dir string, cfg pipeline.Config, base, churn event.Stream) (float64, error) {
	s, err := openHistory(dir, cfg, base)
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	defer s.close()
	t0 := time.Now()
	s.write(churn, newTracer(false))
	return float64(len(churn)) / time.Since(t0).Seconds(), nil
}

func runIngestHistory(o options, tr *tracer) (*report, error) {
	b := newBerkeley(historyRoutes)
	base := b.baselineEvents(benchStart)
	churn := sim.BenchEvents(b.site.Site, b.baseline, historyChurn, historySpan, benchStart.Add(time.Second), o.seed)
	cfg := analysisConfig(historyWindow, 0, runtime.GOMAXPROCS(0))
	rep := newReport()
	rep.rss = startRSS()

	// writeOnce assembles a fresh system, times its write phase and
	// returns it with the journal closed.
	var setups, eps []float64
	var writeTime, cpuWrite time.Duration
	writeOnce := func() (*historySystem, error) {
		runtime.GC() // each pass starts without the previous one's garbage
		t0 := time.Now()
		s, err := openHistory(filepath.Join(o.workdir, fmt.Sprintf("history-%d", len(eps))), cfg, base)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		cpu0 := cpuTime()
		w0 := time.Now()
		rep.failed += s.write(churn, tr)
		d := time.Since(w0)
		cpuWrite += cpuTime() - cpu0
		if err := s.w.Close(); err != nil {
			rep.failed++
		}
		writeTime += d
		rep.attempted += len(churn)
		eps = append(eps, float64(len(churn))/d.Seconds())
		return s, nil
	}
	start := time.Now()
	sys, err := writeOnce()
	if err != nil {
		return nil, err
	}
	defer sys.api.Close()

	total := len(base) + len(churn)
	var recs int
	stats, err := journal.Scan(sys.dir, 0, func(uint64, *event.Event) error { recs++; return nil })
	if err != nil {
		return nil, fmt.Errorf("scan journal: %w", err)
	}
	rep.check("ingest-history.journal-records", recs == total && stats.Skipped == 0, "%d records journaled, %d events written", recs, total)

	// Read phase: distinct instants over the churn's span, drawn from the
	// seed, until the run's time is used and at least
	// historyMinInstants were asked.
	times := make([]time.Time, 0, total)
	for _, e := range base {
		times = append(times, e.Time)
	}
	for _, e := range churn {
		times = append(times, e.Time)
	}
	rng := rand.New(rand.NewSource(o.seed))
	lo, hi := churn[0].Time, churn[len(churn)-1].Time
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}, Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	var cold, svg, hit, records []float64
	var instants []time.Time
	badRecords, badRepeat, shed := 0, 0, 0
	bodies := sha256.New() // digest of the first instants' answers
	r0 := time.Now()
	seen := map[int64]bool{}
	for len(instants) < historyMinInstants || time.Since(start) < o.seconds {
		// The next write pass is due once its share of the run has
		// passed.
		if len(eps) < historyWritePasses && time.Since(start) >= time.Duration(len(eps))*o.seconds/historyWritePasses {
			extra, err := writeOnce()
			if err != nil {
				return nil, err
			}
			extra.close()
			os.RemoveAll(extra.dir)
		}
		t := lo.Add(time.Duration(rng.Int63n(int64(hi.Sub(lo)))))
		if seen[t.UnixNano()] {
			continue
		}
		seen[t.UnixNano()] = true
		instants = append(instants, t)
		q := "?t=" + url.QueryEscape(t.UTC().Format(time.RFC3339Nano))
		id := uint64(len(instants))

		first, d, err := get(client, sys.addr, "/api/at"+q, tr, "serve.at", id)
		rep.attempted++
		if err != nil || first.status != http.StatusOK {
			rep.failed++
			shed += first.shed()
			continue
		}
		cold = append(cold, ms(d))
		if len(cold) <= historyMinInstants {
			bodies.Write([]byte(first.body))
		}
		want := sort.Search(len(times), func(i int) bool { return times[i].After(t) })
		n, _ := strconv.Atoi(first.header.Get("X-Rex-Replay-Records"))
		records = append(records, float64(n))
		if n != want {
			badRecords++
		}

		pic, d, err := get(client, sys.addr, "/api/at/picture.svg"+q, tr, "serve.at_svg", id)
		rep.attempted++
		if err != nil || pic.status != http.StatusOK {
			rep.failed++
			shed += pic.shed()
		} else {
			svg = append(svg, ms(d))
		}

		again, d, err := get(client, sys.addr, "/api/at"+q, tr, "serve.at_hit", id)
		rep.attempted++
		if err != nil || again.status != http.StatusOK {
			rep.failed++
			shed += again.shed()
			continue
		}
		hit = append(hit, ms(d))
		if again.header.Get("ETag") != first.header.Get("ETag") || again.body != first.body {
			badRepeat++
		}
	}
	rep.check("ingest-history.replay-records", badRecords == 0 && len(cold) > 0, "%d of %d cold queries replayed the expected record count", len(cold)-badRecords, len(cold))
	rep.check("ingest-history.repeat-identical", badRepeat == 0 && len(hit) > 0, "%d of %d repeats returned the same ETag and body", len(hit)-badRepeat, len(hit))
	rep.failed += badRecords + badRepeat
	rep.digest = hex.EncodeToString(bodies.Sum(nil)[:8])

	setup := one(median(setups), "s")
	setup.Samples = len(setups)
	rep.e2e["setup_s"] = setup
	rep.e2e["latency_ms_p50"] = pct(cold, 0.5, "ms")
	rep.e2e["latency_ms_p90"] = pct(cold, 0.9, "ms")
	rep.e2e["events_per_s"] = metric{Value: median(eps), Unit: "1/s", Samples: len(eps)}
	rep.named["setup_s"] = setup
	rep.named["at_ms_p50"] = rep.e2e["latency_ms_p50"]
	rep.named["at_ms_p90"] = rep.e2e["latency_ms_p90"]
	rep.named["events_per_s"] = rep.e2e["events_per_s"]
	rep.notes = append(rep.notes, fmt.Sprintf("%d write passes of %d events after a %d-event baseline, %.2fs of writing in all; %d instants read over %.2fs",
		len(eps), len(churn), len(base), writeTime.Seconds(), len(instants), time.Since(r0).Seconds()))

	if !o.trace {
		return rep, nil
	}
	// Traced run: time journal.Scan and ReplayState directly over the
	// first instants' prefixes, re-drive stemming/tamp over the whole
	// stream (final state must equal a direct replay), and write again
	// untraced at GOMAXPROCS and at Workers=1.
	stream := append(append(event.Stream{}, base...), churn...)
	var scanMs, replayMs []float64
	var finalSnap pipeline.Snapshot
	for i, t := range instants {
		if i == historyProbes {
			break
		}
		sp := tr.Start("journal.scan", -1, uint64(i+1))
		t0 := time.Now()
		_, err := journal.Scan(sys.dir, 0, func(_ uint64, e *event.Event) error {
			if e.Time.After(t) {
				return journal.ErrStop
			}
			return nil
		})
		scanMs = append(scanMs, ms(time.Since(t0)))
		tr.End(sp)
		if err != nil {
			return nil, fmt.Errorf("scan journal: %w", err)
		}
		sp = tr.Start("pipeline.replay", -1, uint64(i+1))
		t0 = time.Now()
		_, err = pipeline.ReplayState(cfg, nil, func(ingest func(e *event.Event)) error {
			_, err := journal.Scan(sys.dir, 0, func(_ uint64, e *event.Event) error {
				if e.Time.After(t) {
					return journal.ErrStop
				}
				ingest(e)
				return nil
			})
			return err
		})
		replayMs = append(replayMs, ms(time.Since(t0)))
		tr.End(sp)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	finalSnap, err = pipeline.ReplayState(cfg, nil, func(ingest func(e *event.Event)) error {
		for i := range stream {
			ingest(&stream[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rd := redrive(cfg, nil, stream, []int{len(stream) - 1}, []pipeline.Trigger{pipeline.TriggerFinal}, tr)
	same := pipeline.RenderSnapshots(rd) == pipeline.RenderSnapshots([]pipeline.Snapshot{finalSnap})
	rep.check("ingest-history.redrive-equals-pipeline", same, "final state re-driven through stemming/tamp")
	renderPictures([]pipeline.Snapshot{finalSnap}, tr)
	wire, err := encodeEvents(stream)
	if err != nil {
		return nil, err
	}
	if err := decodeProbe(wire, len(stream), tr); err != nil {
		return nil, err
	}
	size, err := dirSize(sys.dir)
	if err != nil {
		return nil, err
	}

	tr.on = false
	untracedEPS, err := writePass(filepath.Join(o.workdir, "history-untraced"), cfg, base, churn)
	if err != nil {
		return nil, err
	}
	seqEPS, err := writePass(filepath.Join(o.workdir, "history-seq"), analysisConfig(historyWindow, 0, 1), base, churn)
	if err != nil {
		return nil, err
	}
	tr.on = true

	layerCommon(rep, tr)
	rep.layer["journal.bytes_per_event"] = one(float64(size)/float64(total), "bytes")
	rep.layer["journal.scan_ms_p50"] = pct(scanMs, 0.5, "ms")
	rep.layer["pipeline.replay_ms_p50"] = pct(replayMs, 0.5, "ms")
	rep.layer["pipeline.snapshots"] = one(1, "count")
	rep.layer["pipeline.window_events_mean"] = windowMean([]pipeline.Snapshot{finalSnap})
	rep.layer["pipeline.workers_speedup"] = one(untracedEPS/seqEPS, "x")
	rep.layer["serve.at_svg_ms_p50"] = pct(svg, 0.5, "ms")
	rep.layer["serve.at_hit_ms_p50"] = pct(hit, 0.5, "ms")
	rep.layer["serve.replay_records_mean"] = metric{Value: mean(records), Unit: "count", Samples: len(records)}
	rep.layer["serve.shed"] = one(float64(shed), "count")
	rep.layer["process.cpu_us_per_event"] = one(float64(cpuWrite.Microseconds())/float64(len(eps)*len(churn)), "us")
	rep.layer["trace.overhead_frac"] = one((untracedEPS-median(eps))/untracedEPS, "frac")
	rep.notes = append(rep.notes, fmt.Sprintf("write phase workers=%d %.0f events/s, workers=1 %.0f events/s (untraced)", cfg.Workers, untracedEPS, seqEPS))
	setDefault(rep)
	return rep, nil
}

// response is one fully read HTTP response.
type response struct {
	status int
	header http.Header
	body   string
}

// shed reports whether the serving tier refused the request for load.
func (r response) shed() int {
	if r.status == http.StatusTooManyRequests {
		return 1
	}
	return 0
}

// get issues one GET on the keep-alive client and reads the whole body,
// recording a span named name.
func get(c *http.Client, addr, path string, tr *tracer, name string, id uint64) (response, time.Duration, error) {
	sp := tr.Start(name, -1, id)
	t0 := time.Now()
	resp, err := c.Get("http://" + addr + path)
	if err != nil {
		tr.End(sp)
		return response{}, time.Since(t0), err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	tr.End(sp)
	return response{status: resp.StatusCode, header: resp.Header, body: string(body)}, d, err
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
