package stemming

import (
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"time"

	"rex/internal/bgp"
	"rex/internal/event"
	"rex/internal/traffic"
)

// trafficWeight is a §III-D.2 traffic weight over the prefixes of s:
// Zipf volumes, so weights are fractional and mostly distinct.
func trafficWeight(s event.Stream) func(*event.Event) float64 {
	seen := make(map[netip.Prefix]bool)
	var prefixes []netip.Prefix
	for _, e := range s {
		if !seen[e.Prefix] {
			seen[e.Prefix] = true
			prefixes = append(prefixes, e.Prefix)
		}
	}
	return traffic.GenerateZipf(prefixes, 1<<30, 1.8, rand.New(rand.NewSource(1))).WeightFunc(100)
}

// TestWindowWeightedMatchesBatch: under traffic weights the sliding
// window, at any shard count, still decomposes exactly as batch Analyze
// over the live events. Both quantize each weight once, and fixed-point
// counts make the window's add/evict history irrelevant.
func TestWindowWeightedMatchesBatch(t *testing.T) {
	s := windyStream(1500, 5)
	cfg := Config{Weight: trafficWeight(s)}
	const window = 600 * time.Second
	for _, shards := range []int{1, 4, 16} {
		w := NewWindow(cfg, shards)
		w.settleBatch = 97
		fractional := false
		for i, e := range s {
			w.Add(e)
			w.EvictBefore(e.Time.Add(-window))
			if i == 0 || i%250 != 0 {
				continue
			}
			got := w.Snapshot()
			if len(got) == 0 {
				t.Fatalf("shards=%d step %d: no components", shards, i)
			}
			requireSameComponents(t, got, Analyze(w.Events(), cfg))
			for _, c := range got {
				if c.Score != float64(int64(c.Score)) {
					fractional = true
				}
			}
		}
		if !fractional {
			t.Fatalf("shards=%d: every score was integral; the weights were not exercised", shards)
		}
	}
}

// TestWindowWeightedExactCancel: evicting every weighted event returns
// every count to exactly 0 and empties the live-key set. Float tables
// could only get within an epsilon of 0 and had to delete by threshold.
func TestWindowWeightedExactCancel(t *testing.T) {
	s := windyStream(2000, 9)
	weight := trafficWeight(s)
	w := NewWindow(Config{Weight: func(e *event.Event) float64 { return weight(e) + 0.1 }}, 4)
	for _, e := range s {
		w.Add(e)
	}
	if len(w.counts.live) == 0 {
		t.Fatal("no live keys after adding the stream")
	}
	// Evict in uneven steps so cancellation runs interleaved with the
	// settle batches.
	for i := 0; i < len(s); i += 37 {
		w.EvictBefore(s[i].Time)
	}
	if n := w.EvictBefore(s[len(s)-1].Time.Add(time.Second)); w.Len() != 0 || n == 0 {
		t.Fatalf("window not emptied: len=%d after final evict of %d", w.Len(), n)
	}
	for id, c := range w.counts.n {
		if c != 0 {
			t.Fatalf("key %s: count %d after evicting everything, want exactly 0", decodedKey(w.in, uint32(id)), c)
		}
	}
	if len(w.counts.live) != 0 {
		t.Fatalf("%d live keys after evicting everything, want 0", len(w.counts.live))
	}
	if w.Snapshot() != nil {
		t.Fatal("snapshot of an emptied window is not empty")
	}
}

// TestSnapshotCostTracksLiveKeys: the interner only grows, so a
// long-lived window has seen far more keys than its events use. The
// live-ID list must track exactly the nonzero counts, and the snapshot
// scratch must hold exactly those IDs — its copy and best() scan
// iterate the list, so their cost follows the live keys, not the
// interner.
func TestSnapshotCostTracksLiveKeys(t *testing.T) {
	w := NewWindow(Config{}, 4)
	const window = 40 * time.Second
	peer := netip.MustParseAddr("10.0.0.1")
	churn := func(from, to int) {
		for i := from; i < to; i++ {
			e := event.Event{
				Time:   t0.Add(time.Duration(i) * time.Second),
				Type:   event.Withdraw,
				Peer:   peer,
				Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i % 7), 0, 0}), 16),
				// A shared trunk plus a path tail unique to this event:
				// every event interns keys no later event reuses.
				Attrs: &bgp.PathAttrs{ASPath: bgp.Sequence(100, 200, uint32(1000+i), uint32(90000+i))},
			}
			w.Add(e)
			w.EvictBefore(e.Time.Add(-window))
		}
	}
	check := func() {
		t.Helper()
		counts := mergedCounts(t, w) // fails unless live == nonzero counts
		want := make(map[string]bool)
		for _, e := range w.Events() {
			for _, key := range refKeys(tokenSeq(w.in, &e), 0) {
				want[key] = true
			}
		}
		if len(counts) != len(want) {
			t.Fatalf("%d live keys, want the %d distinct keys of the live events", len(counts), len(want))
		}
		a := w.prepare()
		if !slices.Equal(a.counts.live, w.counts.live) {
			t.Fatalf("snapshot scratch holds %d live IDs, window %d", len(a.counts.live), len(w.counts.live))
		}
		nonzero := 0
		for id, c := range a.counts.n {
			if c != 0 {
				nonzero++
				if c != w.counts.n[id] {
					t.Fatalf("scratch count for %s = %d, window %d", decodedKey(w.in, uint32(id)), c, w.counts.n[id])
				}
			}
		}
		if nonzero != len(w.counts.live) {
			t.Fatalf("scratch has %d nonzero counts, want %d", nonzero, len(w.counts.live))
		}
		if keys := len(w.in.keys); keys < 20*len(w.counts.live) {
			t.Fatalf("interner holds %d keys for %d live; churn did not outgrow the window", keys, len(w.counts.live))
		}
	}
	churn(0, 3000)
	check()
	// A full snapshot mutates the scratch; after more churn the next load
	// must leave no stale entries behind.
	if len(w.Snapshot()) == 0 {
		t.Fatal("no components in the churned window")
	}
	churn(3000, 6000)
	check()
}
