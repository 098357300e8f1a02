package pipeline

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"rex/internal/bgp"
	"rex/internal/core/stemming"
	"rex/internal/core/tamp"
	"rex/internal/event"
)

var t0 = time.Date(2003, 8, 1, 10, 0, 0, 0, time.UTC)

func mkEvent(typ event.Type, at time.Duration, peer, nexthop, prefix string, asns ...uint32) event.Event {
	e := event.Event{
		Time:   t0.Add(at),
		Type:   typ,
		Peer:   netip.MustParseAddr(peer),
		Prefix: netip.MustParsePrefix(prefix),
	}
	e.Attrs = &bgp.PathAttrs{
		Origin: bgp.OriginIGP,
		ASPath: bgp.Sequence(asns...),
	}
	if nexthop != "" {
		e.Attrs.Nexthop = netip.MustParseAddr(nexthop)
	}
	return e
}

// churnStream is n events of background churn, spaced step apart.
func churnStream(n int, step time.Duration, seed int64) event.Stream {
	rng := rand.New(rand.NewSource(seed))
	peers := []string{"128.32.1.3", "128.32.1.200"}
	var s event.Stream
	for i := 0; i < n; i++ {
		typ := event.Announce
		if rng.Intn(4) == 0 {
			typ = event.Withdraw
		}
		prefix := fmt.Sprintf("10.%d.0.0/16", rng.Intn(30))
		s = append(s, mkEvent(typ, time.Duration(i)*step, peers[rng.Intn(2)], "128.32.0.66",
			prefix, 11423, uint32(200+rng.Intn(5)), uint32(700+rng.Intn(10))))
	}
	return s
}

// TestReplayFinalMatchesBatch: the final snapshot's decomposition must be
// exactly what batch Analyze produces over the window contents it
// reports — the streaming engine adds no approximation.
func TestReplayFinalMatchesBatch(t *testing.T) {
	s := churnStream(400, 3*time.Second, 1)
	cfg := Config{Window: 10 * time.Minute, IncludeEvents: true}
	snaps := Replay(s, cfg)
	if len(snaps) == 0 {
		t.Fatal("no snapshots")
	}
	final := snaps[len(snaps)-1]
	if final.Trigger != TriggerFinal {
		t.Fatalf("last snapshot trigger = %v, want final", final.Trigger)
	}
	if final.Events == 0 || len(final.Stream) != final.Events {
		t.Fatalf("final window: Events=%d, len(Stream)=%d", final.Events, len(final.Stream))
	}
	// The window must hold exactly the trailing 10 minutes.
	cutoff := s[len(s)-1].Time.Add(-cfg.Window)
	for _, e := range final.Stream {
		if e.Time.Before(cutoff) {
			t.Fatalf("window holds stale event at %v, cutoff %v", e.Time, cutoff)
		}
	}
	want := stemming.Analyze(final.Stream, cfg.Stemming)
	if !reflect.DeepEqual(final.Components, want) {
		t.Errorf("streamed components diverge from batch Analyze:\n got %+v\nwant %+v", final.Components, want)
	}
}

// TestTickSnapshots: event-time ticks fire at the configured cadence
// regardless of replay speed.
func TestTickSnapshots(t *testing.T) {
	s := churnStream(600, time.Second, 2) // 10 minutes of events
	snaps := Replay(s, Config{Window: 5 * time.Minute, SnapshotEvery: 2 * time.Minute})
	ticks := 0
	for _, sn := range snaps {
		if sn.Trigger == TriggerTick {
			ticks++
			if sn.WindowEnd.Sub(sn.WindowStart) > 5*time.Minute {
				t.Errorf("tick window spans %v, cap 5m", sn.WindowEnd.Sub(sn.WindowStart))
			}
		}
	}
	// 10 minutes of stream, tick every 2 minutes past the first event: 4.
	if ticks != 4 {
		t.Errorf("tick snapshots = %d, want 4", ticks)
	}
}

// TestSnapshotStageHistograms: every snapshot observes the Stemming and
// TAMP stage histograms exactly once each, beside the whole-snapshot one.
func TestSnapshotStageHistograms(t *testing.T) {
	before := [3]uint64{mSnapshotSeconds.Count(), mSnapshotStemmingSeconds.Count(), mSnapshotTAMPSeconds.Count()}
	snaps := Replay(churnStream(600, time.Second, 2), Config{Window: 5 * time.Minute, SnapshotEvery: 2 * time.Minute})
	n := uint64(len(snaps))
	if n < 2 {
		t.Fatalf("only %d snapshots", n)
	}
	for i, h := range []interface{ Count() uint64 }{mSnapshotSeconds, mSnapshotStemmingSeconds, mSnapshotTAMPSeconds} {
		if got := h.Count() - before[i]; got != n {
			t.Errorf("histogram %d observed %d times for %d snapshots", i, got, n)
		}
	}
}

// TestSpikeTriggeredSnapshot: a surge above the MAD threshold must emit a
// TriggerSpike snapshot whose decomposition names the surge's shared
// trunk, while quiet churn alone emits none.
func TestSpikeTriggeredSnapshot(t *testing.T) {
	// 30 minutes of 1-per-minute background, then 60 withdrawals through
	// a common 11423→209 trunk inside one minute, then quiet again.
	var s event.Stream
	for i := 0; i < 30; i++ {
		s = append(s, mkEvent(event.Announce, time.Duration(i)*time.Minute, "128.32.1.3", "128.32.0.66",
			fmt.Sprintf("10.%d.0.0/16", i), 11423, 300, uint32(800+i)))
	}
	burstAt := 30 * time.Minute
	for i := 0; i < 60; i++ {
		s = append(s, mkEvent(event.Withdraw, burstAt+time.Duration(i)*time.Second, "128.32.1.3", "128.32.0.66",
			fmt.Sprintf("172.16.%d.0/24", i), 11423, 209, uint32(700+i%4)))
	}
	for i := 31; i < 40; i++ {
		s = append(s, mkEvent(event.Announce, time.Duration(i)*time.Minute, "128.32.1.3", "128.32.0.66",
			fmt.Sprintf("10.%d.0.0/16", i), 11423, 300, uint32(800+i)))
	}

	snaps := Replay(s, Config{Window: 20 * time.Minute, SpikeK: 5})
	var spike *Snapshot
	for i := range snaps {
		if snaps[i].Trigger == TriggerSpike {
			if spike != nil {
				t.Fatalf("spike reported twice: %v and %v", spike.Spike, snaps[i].Spike)
			}
			spike = &snaps[i]
		}
	}
	if spike == nil {
		t.Fatal("no spike snapshot for a 60x surge")
	}
	if spike.Spike == nil || spike.Spike.Total < 60 {
		t.Fatalf("spike metadata = %+v, want Total >= 60", spike.Spike)
	}
	want := t0.Add(burstAt)
	if st := spike.Spike.Start; st.Before(want.Add(-time.Minute)) || st.After(want.Add(time.Minute)) {
		t.Errorf("spike start = %v, want within a bucket of %v", st, want)
	}
	if len(spike.Components) == 0 {
		t.Fatal("spike snapshot carries no components")
	}
	stem := spike.Components[0].Stem
	if stem.From.AS != 11423 || stem.To.AS != 209 {
		t.Errorf("strongest stem = %v→%v, want AS11423→AS209", stem.From, stem.To)
	}

	// Control: the background alone must not trigger.
	quiet := Replay(s[:30], Config{Window: 20 * time.Minute, SpikeK: 5})
	for _, sn := range quiet {
		if sn.Trigger == TriggerSpike {
			t.Errorf("quiet churn produced a spike snapshot: %+v", sn.Spike)
		}
	}
}

// TestPictureTracksRIB: the snapshot picture reflects current routing
// state — withdrawn routes are gone, replaced routes count once.
func TestPictureTracksRIB(t *testing.T) {
	var s event.Stream
	// Ten prefixes via AS path 1 2; then five of them withdrawn.
	for i := 0; i < 10; i++ {
		s = append(s, mkEvent(event.Announce, time.Duration(i)*time.Second, "128.32.1.3", "128.32.0.66",
			fmt.Sprintf("10.%d.0.0/16", i), 1, 2))
	}
	// Duplicate announcements: must not double-count.
	for i := 0; i < 10; i++ {
		s = append(s, mkEvent(event.Announce, time.Duration(10+i)*time.Second, "128.32.1.3", "128.32.0.66",
			fmt.Sprintf("10.%d.0.0/16", i), 1, 2))
	}
	for i := 0; i < 5; i++ {
		s = append(s, mkEvent(event.Withdraw, time.Duration(20+i)*time.Second, "128.32.1.3", "128.32.0.66",
			fmt.Sprintf("10.%d.0.0/16", i), 1, 2))
	}
	snaps := Replay(s, Config{})
	final := snaps[len(snaps)-1]
	if final.Picture == nil {
		t.Fatal("no picture")
	}
	if final.Picture.Total != 5 {
		t.Errorf("picture total = %d, want 5 routed prefixes", final.Picture.Total)
	}
	if e, ok := final.Picture.Edge(tamp.ASNode(1), tamp.ASNode(2)); !ok || e.Weight != 5 {
		t.Errorf("AS1→AS2 edge = %+v (present=%v), want weight 5", e, ok)
	}
}

// TestIngestAfterClose: a handler still firing after Close must neither
// block nor panic, and the snapshot channel still closes.
func TestIngestAfterClose(t *testing.T) {
	p := New(Config{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range p.Snapshots() {
		}
	}()
	p.Ingest(mkEvent(event.Announce, 0, "128.32.1.3", "", "10.0.0.0/16", 1))
	p.Close()
	p.Close() // idempotent
	for i := 0; i < 100; i++ {
		p.Ingest(mkEvent(event.Announce, time.Duration(i)*time.Second, "128.32.1.3", "", "10.0.0.0/16", 1))
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("snapshot channel never closed")
	}
}
