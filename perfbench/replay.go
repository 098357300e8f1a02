package main

import (
	"fmt"
	"runtime"
	"time"

	"rex/internal/core/pipeline"
	"rex/internal/core/stemming"
	"rex/internal/event"
	"rex/internal/serve"
	"rex/internal/sim"
)

// window-replay: a closed loop over Pipeline.Ingest, heavy on tick
// snapshots. The Berkeley baseline is seeded into the TAMP shadow; the
// churn is replayEvents sim.BenchEvents over replaySpan of event time,
// ticked every replayTick over a replayWindow window, so each pass
// emits replaySpan/replayTick tick snapshots plus the final one. Every
// snapshot is published to an in-process serve.Server with no readers.
// Passes are kept short so that a run holds several and reports their
// median.
const (
	replayEvents = 50_000
	replaySpan   = time.Hour
	replayWindow = 30 * time.Minute
	replayTick   = time.Minute
)

// tickPlan returns, for each tick snapshot the pipeline will emit over
// stream, the index of the event whose arrival fires it — the pipeline's
// own event-time tick rule, computed ahead.
func tickPlan(stream event.Stream, every time.Duration) []int {
	var plan []int
	var clock, next time.Time
	for i, e := range stream {
		first := clock.IsZero()
		if first || e.Time.After(clock) {
			clock = e.Time
		}
		if first {
			next = e.Time.Add(every)
		}
		for !clock.Before(next) {
			plan = append(plan, i)
			next = next.Add(every)
		}
	}
	return plan
}

// replayPass is one closed-loop pass over a fresh pipeline.
type replayPass struct {
	setup, elapsed time.Duration
	cpu            time.Duration
	detect         []float64 // ms, one per tick snapshot
	snaps          []pipeline.Snapshot
}

func runReplayPass(cfg pipeline.Config, seeds, churn event.Stream, plan []int, tr *tracer) replayPass {
	var res replayPass
	runtime.GC() // each pass starts without the previous one's garbage
	t0 := time.Now()
	p := pipeline.New(cfg)
	api := serve.New(serve.Config{})
	ingestAt := make([]time.Time, len(plan))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s := range p.Snapshots() {
			now := time.Now()
			if k := len(res.detect); s.Trigger == pipeline.TriggerTick && k < len(ingestAt) {
				// ingestAt[k] was written before the Ingest whose
				// processing emitted this snapshot.
				res.detect = append(res.detect, ms(now.Sub(ingestAt[k])))
			}
			sp := tr.Start("serve.publish", -1, uint64(len(res.snaps)))
			api.Publish(s, nil)
			tr.End(sp)
			res.snaps = append(res.snaps, s)
		}
	}()
	for i := range seeds {
		p.Seed(seeds[i])
	}
	p.TriggerQuery() // barrier: every seed applied
	res.setup = time.Since(t0)

	cpu0 := cpuTime()
	m0 := time.Now()
	k := 0
	for i := range churn {
		for k < len(plan) && plan[k] == i {
			ingestAt[k] = time.Now()
			k++
		}
		sp := tr.Start("pipeline.ingest", -1, uint64(i))
		p.Ingest(churn[i])
		tr.End(sp)
	}
	p.Close()
	<-done
	res.elapsed = time.Since(m0)
	res.cpu = cpuTime() - cpu0
	api.Close()
	return res
}

func runWindowReplay(o options, tr *tracer) (*report, error) {
	b := newBerkeley(23_000)
	seeds := b.baselineEvents(benchStart)
	churn := sim.BenchEvents(b.site.Site, b.baseline, replayEvents, replaySpan, benchStart.Add(time.Second), o.seed)
	plan := tickPlan(churn, replayTick)
	cfg := analysisConfig(replayWindow, replayTick, runtime.GOMAXPROCS(0))
	rep := newReport()
	rep.rss = startRSS()

	// Untimed warm-up over the first fifth of the churn, so that the
	// heap has grown before the first timed pass.
	warm := churn[:len(churn)/5]
	runReplayPass(cfg, seeds, warm, tickPlan(warm, replayTick), newTracer(false))

	var setups, eps, detect []float64
	var measured, cpu time.Duration
	var last replayPass
	// Passes run back to back while another one fits in the run's time.
	for measured == 0 || measured+last.elapsed <= o.seconds {
		last = runReplayPass(cfg, seeds, churn, plan, tr)
		measured += last.elapsed
		cpu += last.cpu
		setups = append(setups, last.setup.Seconds())
		eps = append(eps, float64(len(churn))/last.elapsed.Seconds())
		detect = append(detect, last.detect...)
		rep.attempted += len(plan)
		rep.failed += len(plan) - len(last.detect)
	}
	passes := len(eps)

	// Output checks: every expected tick arrived in every pass, and the
	// last pass's final window decomposition equals batch
	// stemming.Analyze.
	rep.check("window-replay.ticks", rep.failed == 0, "%d of %d tick snapshots over %d passes", len(detect), rep.attempted, passes)
	final := last.snaps[len(last.snaps)-1]
	ok := final.Trigger == pipeline.TriggerFinal
	if ok {
		win := finalWindow(churn, cfg.Window)
		want := stemming.Analyze(win, cfg.Stemming)
		ok = sameComponents(final.Components, want)
		rep.check("window-replay.final-vs-analyze", ok, "%d components over %d window events", len(want), len(win))
	} else {
		rep.check("window-replay.final-vs-analyze", false, "no final snapshot")
	}
	if !ok {
		rep.failed++
	}
	rep.digest = digest(last.snaps)

	setup := one(median(setups), "s")
	setup.Samples = passes
	rep.e2e["setup_s"] = setup
	rep.e2e["latency_ms_p50"] = pct(detect, 0.5, "ms")
	rep.e2e["latency_ms_p90"] = pct(detect, 0.9, "ms")
	rep.e2e["events_per_s"] = metric{Value: median(eps), Unit: "1/s", Samples: passes}
	rep.named["setup_s"] = rep.e2e["setup_s"]
	rep.named["detect_ms_p50"] = rep.e2e["latency_ms_p50"]
	rep.named["detect_ms_p90"] = rep.e2e["latency_ms_p90"]
	rep.named["events_per_s"] = rep.e2e["events_per_s"]
	rep.notes = append(rep.notes, fmt.Sprintf("%d passes of %d events, %d ticks each, measured %.2fs", passes, len(churn), len(plan), measured.Seconds()))

	if !o.trace {
		return rep, nil
	}
	// Traced run: re-drive stemming/tamp at the pipeline's snapshot
	// positions (and require the same output), render every picture,
	// decode the stream as wire UPDATEs, then two untraced passes for
	// the tracing overhead and the Workers=1 baseline.
	pos := append(append([]int(nil), plan...), len(churn)-1)
	trig := make([]pipeline.Trigger, len(pos))
	for i := range trig {
		trig[i] = pipeline.TriggerTick
	}
	trig[len(trig)-1] = pipeline.TriggerFinal
	rd := redrive(cfg, seeds, churn, pos, trig, tr)
	same := pipeline.RenderSnapshots(rd) == pipeline.RenderSnapshots(last.snaps)
	rep.check("window-replay.redrive-equals-pipeline", same, "%d snapshots re-driven through stemming/tamp", len(rd))
	renderPictures(last.snaps, tr)
	wire, err := encodeEvents(churn)
	if err != nil {
		return nil, err
	}
	if err := decodeProbe(wire, len(churn), tr); err != nil {
		return nil, err
	}

	tracedEPS := median(eps)
	tr.on = false
	untraced := runReplayPass(cfg, seeds, churn, plan, tr)
	seq := runReplayPass(analysisConfig(replayWindow, replayTick, 1), seeds, churn, plan, tr)
	tr.on = true
	untracedEPS := float64(len(churn)) / untraced.elapsed.Seconds()
	seqEPS := float64(len(churn)) / seq.elapsed.Seconds()

	layerCommon(rep, tr)
	rep.layer["pipeline.snapshots"] = one(float64(len(last.snaps)), "count")
	rep.layer["pipeline.window_events_mean"] = windowMean(last.snaps)
	rep.layer["pipeline.workers_speedup"] = one(untracedEPS/seqEPS, "x")
	rep.layer["process.cpu_us_per_event"] = one(float64(cpu.Microseconds())/float64(passes*len(churn)), "us")
	rep.layer["trace.overhead_frac"] = one((untracedEPS-tracedEPS)/untracedEPS, "frac")
	rep.notes = append(rep.notes, fmt.Sprintf("workers=%d %.0f events/s, workers=1 %.0f events/s (untraced)", cfg.Workers, untracedEPS, seqEPS))
	setDefault(rep)
	return rep, nil
}

// finalWindow is the suffix of stream the pipeline's window holds after
// the last event: everything at or after clock−window.
func finalWindow(stream event.Stream, window time.Duration) event.Stream {
	cutoff := stream[len(stream)-1].Time.Add(-window)
	i := 0
	for i < len(stream) && stream[i].Time.Before(cutoff) {
		i++
	}
	return stream[i:]
}

// sameComponents compares two decompositions by their deterministic
// rendering.
func sameComponents(a, b []stemming.Component) bool {
	return pipeline.RenderSnapshots([]pipeline.Snapshot{{Components: a}}) ==
		pipeline.RenderSnapshots([]pipeline.Snapshot{{Components: b}})
}

func windowMean(snaps []pipeline.Snapshot) metric {
	xs := make([]float64, len(snaps))
	for i, s := range snaps {
		xs[i] = float64(s.Events)
	}
	return metric{Value: mean(xs), Unit: "count", Samples: len(xs)}
}
