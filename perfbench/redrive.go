package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/netip"
	"time"

	"rex/internal/bgp"
	"rex/internal/core/pipeline"
	"rex/internal/core/stemming"
	"rex/internal/core/tamp"
	"rex/internal/event"
	"rex/internal/sim"
	"rex/internal/viz"
)

// benchStart anchors every generated event stream in event time.
var benchStart = time.Date(2003, 8, 1, 0, 0, 0, 0, time.UTC)

// berkeley is a Berkeley-shaped site and its baseline table.
type berkeley struct {
	site     *sim.BerkeleySite
	baseline []sim.SiteRoute
}

// newBerkeley builds the site at about routes baseline routes; 23_000 is
// the paper's Table I(a) size.
func newBerkeley(routes int) berkeley {
	site := sim.BerkeleyScale(routes)
	return berkeley{site: site, baseline: site.BaselineRoutes()}
}

// baselineEvents is the baseline table as announcements at t.
func (b berkeley) baselineEvents(t time.Time) event.Stream {
	out := make(event.Stream, len(b.baseline))
	for i, r := range b.baseline {
		out[i] = r.Event(t, event.Announce)
	}
	return out
}

// analysisConfig is the pipeline configuration rexd runs (hierarchical
// pruning at depth 3, every core working), with the given window and
// tick and the spike trigger off so snapshot counts are fixed by
// construction.
func analysisConfig(window, tick time.Duration, workers int) pipeline.Config {
	return pipeline.Config{
		Window:        window,
		SnapshotEvery: tick,
		SpikeK:        -1,
		Site:          "berkeley",
		Prune:         tamp.PruneOptions{KeepDepth: 3},
		Workers:       workers,
	}
}

// digest hashes the deterministic rendering of snapshots; informational,
// so later changes see when output moves.
func digest(snaps []pipeline.Snapshot) string {
	h := sha256.Sum256([]byte(pipeline.RenderSnapshots(snaps)))
	return hex.EncodeToString(h[:8])
}

// redrive replays seeds and stream through a stemming.Window and
// per-shard tamp.Graphs exactly as the pipeline's coordinator does
// (window add picks the shard, a (router, prefix) RIB shadow turns
// events into route ops, eviction at clock−window), and snapshots after
// stream[pos[k]] with trigger trig[k]. One extra unsharded graph holds
// the same routes so a single Graph.Snapshot can be timed beside the
// sharded merge. Every call is timed into tr.
func redrive(cfg pipeline.Config, seeds, stream event.Stream, pos []int, trig []pipeline.Trigger, tr *tracer) []pipeline.Snapshot {
	shards := cfg.Shards
	if shards <= 0 {
		shards = pipeline.DefaultShards
	}
	win := stemming.NewWindow(cfg.Stemming, shards)
	graphs := make([]*tamp.Graph, shards)
	for i := range graphs {
		graphs[i] = tamp.New(cfg.Site)
	}
	whole := tamp.New(cfg.Site)
	type key struct {
		router string
		prefix netip.Prefix
	}
	rib := map[key]tamp.RouteEntry{}
	names := map[netip.Addr]string{}
	apply := func(shard int, e *event.Event) {
		router, ok := names[e.Peer]
		if !ok {
			router = e.Peer.String()
			names[e.Peer] = router
		}
		k := key{router, e.Prefix}
		switch e.Type {
		case event.Announce:
			entry := tamp.EntryFromEventNamed(router, e)
			if old, ok := rib[k]; ok {
				if !sameRoute(old, entry) {
					graphs[shard].ReplaceRoute(old, entry)
					whole.ReplaceRoute(old, entry)
					rib[k] = entry
				}
			} else {
				graphs[shard].AddRoute(entry)
				whole.AddRoute(entry)
				rib[k] = entry
			}
		case event.Withdraw:
			if old, ok := rib[k]; ok {
				graphs[shard].RemoveRoute(old)
				whole.RemoveRoute(old)
				delete(rib, k)
			}
		}
	}
	for i := range seeds {
		apply(win.ShardFor(seeds[i].Prefix), &seeds[i])
	}

	var out []pipeline.Snapshot
	var clock time.Time
	var addNs, evictNs, routeNs time.Duration
	next := 0
	for i := range stream {
		e := stream[i]
		if clock.IsZero() || e.Time.After(clock) {
			clock = e.Time
		}
		t0 := time.Now()
		shard := win.Add(e)
		t1 := time.Now()
		apply(shard, &e)
		t2 := time.Now()
		win.EvictBefore(clock.Add(-cfg.Window))
		t3 := time.Now()
		addNs += t1.Sub(t0)
		routeNs += t2.Sub(t1)
		evictNs += t3.Sub(t2)
		for next < len(pos) && pos[next] == i {
			s := pipeline.Snapshot{At: clock, Trigger: trig[next], Events: win.Len()}
			sp := tr.Start("stemming.snapshot", -1, uint64(next))
			s.Components = win.Snapshot()
			tr.End(sp)
			sp = tr.Start("tamp.merge_snapshot", -1, uint64(next))
			s.Picture = tamp.MergeSnapshot(cfg.Site, graphs, cfg.Prune)
			tr.End(sp)
			sp = tr.Start("tamp.graph_snapshot", -1, uint64(next))
			whole.Snapshot(cfg.Prune)
			tr.End(sp)
			if first, last, ok := win.TimeRange(); ok {
				s.WindowStart, s.WindowEnd = first, last
			}
			tr.Sample("stemming.components_mean", float64(len(s.Components)))
			out = append(out, s)
			next++
		}
	}
	n := float64(len(stream))
	if n > 0 {
		tr.Sample("stemming.add_ns_per_event", float64(addNs)/n)
		tr.Sample("stemming.evict_ns_per_event", float64(evictNs)/n)
		tr.Sample("tamp.route_op_ns", float64(routeNs)/n)
	}
	return out
}

func sameRoute(a, b tamp.RouteEntry) bool {
	if a.Router != b.Router || a.Nexthop != b.Nexthop || a.Prefix != b.Prefix || len(a.ASPath) != len(b.ASPath) {
		return false
	}
	for i := range a.ASPath {
		if a.ASPath[i] != b.ASPath[i] {
			return false
		}
	}
	return true
}

// renderPictures renders every snapshot picture to SVG and JSON, timing
// each render.
func renderPictures(snaps []pipeline.Snapshot, tr *tracer) {
	for i, s := range snaps {
		if s.Picture == nil {
			continue
		}
		sp := tr.Start("viz.svg", -1, uint64(i))
		svg := viz.SVG(s.Picture)
		tr.End(sp)
		tr.Sample("viz.svg_bytes_mean", float64(len(svg)))
		sp = tr.Start("viz.json", -1, uint64(i))
		viz.JSON(s.Picture)
		tr.End(sp)
	}
}

// layerCommon fills the per-layer metrics every traced run derives the
// same way from its spans and samples. Layers a workload does not cross
// report 0 with 0 samples.
func layerCommon(r *report, tr *tracer) {
	nsToMs := 1e-6
	durs := func(name string, f float64) []float64 { return scaled(tr.durations(name), f) }
	set := func(name string, m metric) { r.layer[name] = m }
	meanOf := func(name, unit string) {
		xs := tr.sampled(name)
		set(name, metric{Value: mean(xs), Unit: unit, Samples: len(xs)})
	}

	meanOf("stemming.add_ns_per_event", "ns")
	meanOf("stemming.evict_ns_per_event", "ns")
	meanOf("tamp.route_op_ns", "ns")
	snap := durs("stemming.snapshot", nsToMs)
	set("stemming.snapshot_ms_p50", pct(snap, 0.5, "ms"))
	set("stemming.snapshot_ms_p90", pct(snap, 0.9, "ms"))
	meanOf("stemming.components_mean", "count")
	set("tamp.merge_snapshot_ms_p50", pct(durs("tamp.merge_snapshot", nsToMs), 0.5, "ms"))
	set("tamp.graph_snapshot_ms_p50", pct(durs("tamp.graph_snapshot", nsToMs), 0.5, "ms"))
	set("viz.svg_ms_p50", pct(durs("viz.svg", nsToMs), 0.5, "ms"))
	set("viz.json_ms_p50", pct(durs("viz.json", nsToMs), 0.5, "ms"))
	meanOf("viz.svg_bytes_mean", "bytes")
	meanOf("bgp.decode_ns_per_msg", "ns")
	pub := durs("serve.publish", 1e-3)
	set("serve.publish_us_p90", pct(pub, 0.9, "us"))
	ing := tr.durations("pipeline.ingest")
	set("pipeline.ingest_busy_s", metric{Value: sum(ing) / 1e9, Unit: "s", Samples: len(ing)})
	app := durs("journal.append", 1e-3)
	set("journal.append_us_p50", pct(app, 0.5, "us"))
	set("journal.append_us_p90", pct(app, 0.9, "us"))
	set("journal.append_busy_s", metric{Value: sum(app) / 1e6, Unit: "s", Samples: len(app)})
}

// setDefault reports 0 with 0 samples for each per-layer metric the
// workload did not set: a layer it does not cross.
func setDefault(r *report) {
	for _, l := range layerUnits {
		if _, ok := r.layer[l.name]; !ok {
			r.layer[l.name] = metric{Unit: l.unit}
		}
	}
}

// updateFor is the one-prefix BGP UPDATE that carries e on the wire.
func updateFor(e *event.Event) *bgp.Update {
	if e.Type == event.Withdraw {
		return &bgp.Update{Withdrawn: []netip.Prefix{e.Prefix}}
	}
	return &bgp.Update{Attrs: e.Attrs, NLRI: []netip.Prefix{e.Prefix}}
}

// decodeProbe times bgp.ReadMessage over wire bytes (the exact messages
// a session carried, or the workload's events encoded as UPDATEs) and
// records the mean cost per message.
func decodeProbe(wire []byte, msgs int, tr *tracer) error {
	if !tr.on || msgs == 0 {
		return nil
	}
	r := bytes.NewReader(wire)
	sp := tr.Start("bgp.decode", -1, 0)
	t0 := time.Now()
	for i := 0; i < msgs; i++ {
		if _, err := bgp.ReadMessage(r, true); err != nil {
			return fmt.Errorf("decode message %d: %w", i, err)
		}
	}
	elapsed := time.Since(t0)
	tr.End(sp)
	tr.Sample("bgp.decode_ns_per_msg", float64(elapsed)/float64(msgs))
	return nil
}

// encodeEvents marshals each event as its wire UPDATE.
func encodeEvents(s event.Stream) ([]byte, error) {
	var buf []byte
	for i := range s {
		b, err := bgp.Marshal(updateFor(&s[i]), true)
		if err != nil {
			return nil, fmt.Errorf("encode event %d: %w", i, err)
		}
		buf = append(buf, b...)
	}
	return buf, nil
}
