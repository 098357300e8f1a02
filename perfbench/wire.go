package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rex/internal/bgp"
	"rex/internal/bgp/fsm"
	"rex/internal/collector"
	"rex/internal/core/pipeline"
	"rex/internal/event"
	"rex/internal/journal"
	"rex/internal/relay"
	"rex/internal/serve"
	"rex/internal/sim"
)

// wire-live: an open loop over the whole deployment. One BGP session
// (fsm.Dial) feeds the collector; its intake journals every event
// (fsync interval, rexd's default) ahead of a local pipeline with ticks
// off (rexd's default -snapshot-every 0); a relay feed streams the
// journal to a durable receiver whose pipeline ticks every wireTick of
// collector wall-clock time over a wireWindow window and publishes to a
// serve.Server; one SSE subscriber reads the snapshots. Setup announces
// the Berkeley baseline; one wireWindow of one-prefix UPDATEs at
// wireRate then warms the window up, untimed, so that eviction is active
// for every sample of the measured phase that follows at the same rate
// on a fixed schedule.
const (
	wireRoutes          = 23_000
	wireWindow          = 10 * time.Second
	wireTick            = 200 * time.Millisecond
	wireRate            = 300 // nominal events/s of the measured phase
	wireSetups          = 5
	wireCheckpointEvery = 3 * time.Second
	wireFeedID          = "pop1"
	wireRedriveEvery    = 4 // traced runs re-drive every 4th node tick snapshot
)

// The traced run also climbs a ladder of rates, wireLadderStep each, to
// find the highest rate whose visible p90 stays within wireLatencyLimit
// without a growing backlog.
var wireLadder = []int{500, 1000, 2000, 3000, 4000, 6000, 8000}

const (
	wireLadderStep   = 3 * time.Second
	wireLatencyLimit = 1000 // ms
)

// deployment is one assembled collector → relay → analysis node → serve
// chain with its BGP session and SSE subscriber.
type deployment struct {
	tr   *tracer
	dirs []string

	sess  *fsm.Session
	col   *collector.Collector
	colLn net.Listener
	in    *pipeline.Intake
	local *pipeline.Pipeline
	jw    *journal.Writer
	feed  *relay.Feed
	rcv   *relay.Receiver
	node  *pipeline.Pipeline
	api   *serve.Server
	sse   *sseReader

	localDone, nodeDone chan struct{}

	delivered atomic.Int64
	mu        sync.Mutex // guards the delivery log and node-side records
	deliverAt []time.Time
	evTime    []time.Time
	prefixes  []netip.Prefix
	events    event.Stream         // traced runs: every delivered event, for the re-drive
	appendAt  map[uint64]time.Time // traced runs: journal append times, for relay hops
	publishAt map[int64]time.Time  // traced runs: serve.Publish time by snapshot At
	lag       []lagSample          // traced runs: snapshot At until it leaves the receiver
	nodeSnaps []pipeline.Snapshot  // traced runs: every wireRedriveEvery-th tick snapshot, for the re-drive
	ticks     int
}

type lagSample struct {
	at time.Time
	ms float64
}

func openDeployment(dir string, tr *tracer) (*deployment, error) {
	d := &deployment{tr: tr, localDone: make(chan struct{}), nodeDone: make(chan struct{})}
	if tr.on {
		d.appendAt = map[uint64]time.Time{}
		d.publishAt = map[int64]time.Time{}
	}
	cdir, rdir := filepath.Join(dir, "collector"), filepath.Join(dir, "node")
	d.dirs = []string{cdir, rdir}
	workers := runtime.GOMAXPROCS(0)

	// Analysis node: durable receiver → pipeline → serve.
	ncfg := analysisConfig(wireWindow, wireTick, workers)
	d.node = pipeline.New(ncfg)
	d.api = serve.New(serve.Config{Dir: rdir, HistoryDir: rdir, Replay: ncfg})
	apiAddr, err := d.api.Serve("127.0.0.1:0")
	if err != nil {
		d.node.Close()
		return nil, fmt.Errorf("serve: %w", err)
	}
	rcv, err := relay.OpenReceiver(relay.ReceiverConfig{
		Pipeline:        d.node,
		ExpectFeeds:     []string{wireFeedID},
		Dir:             rdir,
		Fsync:           journal.FsyncInterval,
		CheckpointEvery: wireCheckpointEvery,
		Window:          wireWindow,
		SnapshotSink: func(s relay.Snapshot) {
			sp := tr.Start("serve.publish", -1, uint64(s.At.UnixNano()))
			d.api.Publish(s.Snapshot, nil)
			tr.End(sp)
			if tr.on {
				d.mu.Lock()
				d.publishAt[s.At.UnixNano()] = time.Now()
				d.mu.Unlock()
			}
		},
	})
	if err != nil {
		d.api.Close()
		d.node.Close()
		return nil, fmt.Errorf("receiver: %w", err)
	}
	d.rcv = rcv
	go func() {
		defer close(d.nodeDone)
		for s := range rcv.Snapshots() {
			if !tr.on || s.Trigger != pipeline.TriggerTick {
				continue
			}
			now := time.Now()
			d.mu.Lock()
			d.lag = append(d.lag, lagSample{at: s.At, ms: ms(now.Sub(s.At))})
			if d.ticks%wireRedriveEvery == 0 {
				d.nodeSnaps = append(d.nodeSnaps, s.Snapshot)
			}
			d.ticks++
			d.mu.Unlock()
		}
	}()
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	go rcv.Serve(rln)

	// Collector side: journal + relay feed, intake, collector.
	d.feed = relay.NewFeed(relay.FeedConfig{ID: wireFeedID, Dir: cdir, Addr: rln.Addr().String(), IdleWatermark: time.Now})
	d.jw, err = journal.Open(cdir, journal.Options{Fsync: journal.FsyncInterval, OnAppend: func(uint64) { d.feed.Wake() }})
	if err != nil {
		d.close()
		return nil, fmt.Errorf("open journal: %w", err)
	}
	go d.feed.Run()
	d.local = pipeline.New(analysisConfig(wireWindow, 0, workers))
	go func() {
		defer close(d.localDone)
		for range d.local.Snapshots() {
		}
	}()
	d.in = pipeline.NewIntake(pipeline.IntakeConfig{Journal: d.journalEvent}, d.local)
	d.col = collector.New(collector.Config{
		LocalAS:               25,
		LocalID:               netip.MustParseAddr("10.255.0.1"),
		HoldTime:              90 * time.Second,
		WithdrawOnSessionLoss: true,
	}, d.handle)
	d.colLn, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	go d.col.Serve(d.colLn)

	d.sse, err = openSSE(apiAddr.String())
	if err != nil {
		d.close()
		return nil, err
	}
	d.sess, err = fsm.Dial(d.colLn.Addr().String(), fsm.Config{LocalAS: 25, LocalID: netip.MustParseAddr("10.0.0.2"), HoldTime: 90 * time.Second})
	if err != nil {
		d.close()
		return nil, fmt.Errorf("bgp session: %w", err)
	}
	return d, nil
}

// handle is the collector's handler: log the delivery, offer to intake.
func (d *deployment) handle(e event.Event) {
	now := time.Now()
	d.mu.Lock()
	k := len(d.deliverAt)
	d.deliverAt = append(d.deliverAt, now)
	d.evTime = append(d.evTime, e.Time)
	d.prefixes = append(d.prefixes, e.Prefix)
	if d.tr.on {
		d.events = append(d.events, e)
	}
	d.mu.Unlock()
	sp := d.tr.Start("intake.offer", -1, uint64(k))
	d.in.Offer(e)
	d.tr.End(sp)
	d.delivered.Add(1)
}

// journalEvent is the intake's durability hook. The intake's single
// drainer appends in delivery order, so the next journal sequence is the
// event's delivery index: its spans share that id.
func (d *deployment) journalEvent(e *event.Event) error {
	sp := d.tr.Start("journal.append", -1, d.jw.NextSeq())
	seq, err := d.jw.Append(e)
	d.tr.End(sp)
	if d.tr.on && err == nil {
		d.mu.Lock()
		d.appendAt[seq] = time.Now()
		d.mu.Unlock()
	}
	return err
}

// nodeCursor is the receiver's resume cursor for the feed: every
// journal sequence below it has been released to the node's pipeline.
func (d *deployment) nodeCursor() uint64 {
	for _, st := range d.rcv.Statuses() {
		if st.ID == wireFeedID {
			return st.NextSeq
		}
	}
	return 0
}

// waitFor polls cond every millisecond until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// close tears the deployment down in rexd's order: serving tier drain,
// session, collector, intake, journal and feed, then the node.
func (d *deployment) close() {
	if d.api != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		d.api.Drain(ctx)
		cancel()
	}
	if d.sse != nil {
		d.sse.close()
	}
	if d.sess != nil {
		d.sess.Close()
	}
	if d.col != nil {
		d.col.Close()
	}
	if d.in != nil {
		d.in.Close()
	}
	if d.local != nil {
		d.local.Close()
		<-d.localDone
	}
	if d.feed != nil {
		d.feed.Close()
	}
	if d.jw != nil {
		d.jw.Close()
	}
	if d.rcv != nil {
		d.rcv.Close()
		<-d.nodeDone
	} else if d.node != nil {
		d.node.Close()
	}
	if d.api != nil {
		d.api.Close()
	}
	for _, dir := range d.dirs {
		os.RemoveAll(dir)
	}
}

// sseFrame is one server-sent event the subscriber received.
type sseFrame struct {
	event   string
	arrival time.Time
	Seq     uint64    `json:"seq"`
	At      time.Time `json:"at"`
	Events  int       `json:"events"`
}

// sseReader is the single SSE subscriber.
type sseReader struct {
	resp  *http.Response
	done  chan struct{}
	maxAt atomic.Int64 // newest snapshot At seen, UnixNano
	mu    sync.Mutex
	all   []sseFrame
}

func openSSE(addr string) (*sseReader, error) {
	resp, err := http.Get("http://" + addr + "/api/stream")
	if err != nil {
		return nil, fmt.Errorf("sse: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("sse: status %d", resp.StatusCode)
	}
	r := &sseReader{resp: resp, done: make(chan struct{})}
	go r.read()
	return r, nil
}

func (r *sseReader) read() {
	defer close(r.done)
	br := bufio.NewReader(r.resp.Body)
	var name string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return // closed at teardown
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			f := sseFrame{event: name, arrival: time.Now()}
			if name == "snapshot" || name == "resync" {
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f); err != nil {
					return // an unreadable frame ends the stream; the coverage check reports it
				}
				if at := f.At.UnixNano(); at > r.maxAt.Load() {
					r.maxAt.Store(at)
				}
			}
			r.mu.Lock()
			r.all = append(r.all, f)
			r.mu.Unlock()
		}
	}
}

func (r *sseReader) close() {
	r.resp.Body.Close()
	<-r.done
}

func (r *sseReader) frames() []sseFrame {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]sseFrame(nil), r.all...)
}

// sender is the open-loop generator over one BGP session: one-prefix
// UPDATEs that toggle each prefix between withdrawn and announced, so
// every send yields exactly one collector event.
type sender struct {
	d       *deployment
	churn   event.Stream
	attrs   map[netip.Prefix]*bgp.PathAttrs
	up      map[netip.Prefix]bool
	next    int
	due     []time.Time // per send, the scheduled time (zero for setup sends)
	sentAt  []time.Time
	prefix  []netip.Prefix
	late    []float64
	wire    []byte // traced runs: the exact bytes of the measured sends
	msgs    int
	sendErr int
}

func (s *sender) send(u *bgp.Update, p netip.Prefix, due time.Time) {
	now := time.Now()
	if s.d.tr.on {
		if b, err := bgp.Marshal(u, s.d.sess.FourByteAS()); err == nil {
			s.wire = append(s.wire, b...)
			s.msgs++
		}
	}
	if err := s.d.sess.Send(u); err != nil {
		s.sendErr++
		return
	}
	s.due = append(s.due, due)
	s.sentAt = append(s.sentAt, now)
	s.prefix = append(s.prefix, p)
}

// churnOne sends the next churn event due at due.
func (s *sender) churnOne(due time.Time) {
	e := &s.churn[s.next%len(s.churn)]
	s.next++
	p := e.Prefix
	if s.up[p] {
		s.up[p] = false
		s.send(&bgp.Update{Withdrawn: []netip.Prefix{p}}, p, due)
		return
	}
	a := e.Attrs
	if a == nil {
		a = s.attrs[p]
	}
	s.up[p] = true
	s.send(&bgp.Update{Attrs: a, NLRI: []netip.Prefix{p}}, p, due)
}

// run sends at rate events/s for dur starting at t0, each send timed
// from when it was due, until stop (if set) reports true.
func (s *sender) run(t0 time.Time, rate int, dur time.Duration, stop func() bool) {
	interval := time.Second / time.Duration(rate)
	n := int(dur / interval)
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(i) * interval)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		s.late = append(s.late, ms(time.Since(due)))
		s.churnOne(due)
		if stop != nil && stop() {
			return
		}
	}
}

func runWireLive(o options, tr *tracer) (*report, error) {
	b := newBerkeley(wireRoutes)
	// One session carries one route per prefix: the baseline's first
	// route for each.
	attrs := map[netip.Prefix]*bgp.PathAttrs{}
	var order []netip.Prefix
	for _, r := range b.baseline {
		if _, ok := attrs[r.Prefix]; !ok {
			attrs[r.Prefix] = r.Attrs
			order = append(order, r.Prefix)
		}
	}
	ladderEvents := 0
	for _, r := range wireLadder {
		ladderEvents += r * int(wireLadderStep/time.Second)
	}
	need := wireRate*int((wireWindow+o.seconds)/time.Second) + ladderEvents + 4*wireRate
	churn := sim.BenchEvents(b.site.Site, b.baseline, need, o.seconds, benchStart, o.seed)
	rep := newReport()
	rep.rss = startRSS()

	// Set up several times; the last deployment is measured.
	var setups []float64
	var d *deployment
	var s *sender
	for i := 0; i < wireSetups; i++ {
		if d != nil {
			d.close()
		}
		runtime.GC() // each setup starts without the previous one's garbage
		t0 := time.Now()
		var err error
		d, err = openDeployment(filepath.Join(o.workdir, fmt.Sprintf("wire-%d", i)), tr)
		if err != nil {
			return nil, err
		}
		s = &sender{d: d, churn: churn, attrs: attrs, up: map[netip.Prefix]bool{}}
		for _, p := range order {
			s.up[p] = true
			s.send(&bgp.Update{Attrs: attrs[p], NLRI: []netip.Prefix{p}}, p, time.Time{})
		}
		base := int64(len(order))
		ok := waitFor(30*time.Second, func() bool {
			return d.delivered.Load() == base && d.jw.NextSeq() == uint64(base) && d.nodeCursor() >= uint64(base)
		})
		if !ok {
			d.close()
			return nil, fmt.Errorf("setup: baseline not through the relay (%d of %d delivered)", d.delivered.Load(), base)
		}
		d.node.TriggerQuery() // barrier: the node's pipeline has it all
		setups = append(setups, time.Since(t0).Seconds())
		s.wire, s.msgs = nil, 0
	}
	defer d.close()
	runtime.GC() // start without the setups' garbage
	baseN := len(s.due)

	// Warm-up, then the measured phase: open loop at the nominal rate.
	s.run(time.Now(), wireRate, wireWindow, nil)
	warmEnd := len(s.due)
	cpu0 := cpuTime()
	m0 := time.Now()
	var relayStop chan struct{}
	var relayDone chan struct{}
	var hops []float64
	var backlogMax uint64
	if tr.on {
		relayStop, relayDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(relayDone)
			hops, backlogMax = d.sampleRelay(relayStop)
		}()
	}
	s.run(m0, wireRate, o.seconds, nil)
	scheduled := len(s.due) - warmEnd
	measuredEnd := time.Now()
	cpuMeasured := cpuTime() - cpu0
	if tr.on {
		close(relayStop)
		<-relayDone
	}

	// Traced runs climb the rate ladder after the nominal phase.
	var ladder []ladderStep
	if tr.on {
		for _, rate := range wireLadder {
			from := len(s.due)
			s.run(time.Now(), rate, wireLadderStep, nil)
			ladder = append(ladder, ladderStep{rate: rate, from: from, to: len(s.due), end: time.Now()})
		}
	}

	// Trailing sends let a tick cover the last scheduled event.
	lastIdx := len(s.due) - 1
	covered := func() bool {
		if d.delivered.Load() <= int64(lastIdx) {
			return false
		}
		d.mu.Lock()
		t := d.evTime[lastIdx]
		d.mu.Unlock()
		return d.sse.maxAt.Load() >= t.UnixNano()
	}
	s.run(time.Now(), wireRate, 5*time.Second, covered)
	waitFor(20*time.Second, covered)

	// Drain: every send delivered and journaled, and the feed's acked
	// cursor reaches the appended head (acks advance at the receiver's
	// checkpoints).
	sent := int64(len(s.due))
	waitFor(5*time.Second, func() bool { return d.delivered.Load() == sent && d.jw.NextSeq() == uint64(sent) })
	head := d.jw.NextSeq()
	acked := waitFor(wireCheckpointEvery+5*time.Second, func() bool { return d.feed.Acked() >= head })
	frames := d.sse.frames()
	d.mu.Lock()
	evTime := append([]time.Time(nil), d.evTime...)
	deliverAt := append([]time.Time(nil), d.deliverAt...)
	prefixes := append([]netip.Prefix(nil), d.prefixes...)
	d.mu.Unlock()

	rep.check("wire-live.journal-records", head == uint64(len(evTime)), "%d journal records, %d delivered events", head, len(evTime))
	rep.check("wire-live.feed-acked", acked, "feed acked %d of %d appended", d.feed.Acked(), head)
	sameOrder := len(prefixes) == len(s.prefix)
	for k := 0; sameOrder && k < len(prefixes); k++ {
		sameOrder = prefixes[k] == s.prefix[k]
	}
	rep.check("wire-live.delivery", sameOrder && s.sendErr == 0, "%d sends, %d delivered in order, %d send errors", len(s.prefix), len(prefixes), s.sendErr)
	monotonic, snaps, resyncs := true, 0, 0
	var lastSeq uint64
	for _, f := range frames {
		if f.event != "snapshot" && f.event != "resync" {
			continue
		}
		if f.event == "resync" {
			resyncs++
		}
		snaps++
		if f.Seq <= lastSeq {
			monotonic = false
		}
		lastSeq = f.Seq
	}
	rep.check("wire-live.sse-seq", monotonic && snaps > 0, "%d SSE snapshots, seq increasing", snaps)

	// e2e visible latency: per SSE snapshot, from the due time of the
	// newest event it contains to the frame's arrival. The newest event
	// is the tick-crossing one: the first whose collector stamp reaches
	// the snapshot's At.
	posOf := func(at time.Time) int {
		return sort.Search(len(evTime), func(i int) bool { return !evTime[i].Before(at) })
	}
	var visible []float64
	coveredTo := -1
	for _, f := range frames {
		if f.event != "snapshot" && f.event != "resync" {
			continue
		}
		k := posOf(f.At)
		if k >= len(evTime) {
			continue
		}
		if k > coveredTo {
			coveredTo = k
		}
		if k >= warmEnd && k < warmEnd+scheduled && f.arrival.Before(measuredEnd.Add(5*time.Second)) {
			visible = append(visible, ms(f.arrival.Sub(s.due[k])))
		}
	}
	rep.attempted = lastIdx + 1 - baseN
	uncovered := lastIdx - coveredTo
	if uncovered < 0 {
		uncovered = 0
	}
	rep.failed = uncovered + s.sendErr
	rep.check("wire-live.all-covered", uncovered == 0, "%d scheduled events not covered by any SSE snapshot", uncovered)
	var deliver []float64
	for k := baseN; k < len(deliverAt) && k < len(s.sentAt); k++ {
		deliver = append(deliver, ms(deliverAt[k].Sub(s.sentAt[k])))
	}

	// Visible throughput: scheduled events an SSE snapshot had shown by
	// the end of the nominal phase, per second of it.
	shown := 0
	for _, f := range frames {
		if (f.event == "snapshot" || f.event == "resync") && !f.arrival.After(measuredEnd) {
			if k := posOf(f.At) + 1 - warmEnd; k > shown {
				shown = min(k, scheduled)
			}
		}
	}
	setup := one(median(setups), "s")
	setup.Samples = len(setups)
	eps := float64(shown) / measuredEnd.Sub(m0).Seconds()
	rep.e2e["setup_s"] = setup
	rep.e2e["latency_ms_p50"] = pct(visible, 0.5, "ms")
	rep.e2e["latency_ms_p90"] = pct(visible, 0.9, "ms")
	rep.e2e["events_per_s"] = one(eps, "1/s")
	rep.named["setup_s"] = setup
	rep.named["e2e_visible_ms_p50"] = rep.e2e["latency_ms_p50"]
	rep.named["e2e_visible_ms_p90"] = rep.e2e["latency_ms_p90"]
	rep.named["events_per_s"] = rep.e2e["events_per_s"]
	rep.named["gen.late_ms_p90"] = pct(s.late, 0.9, "ms")
	rep.notes = append(rep.notes, fmt.Sprintf("nominal %d events/s for %s (%d sends) after a %s warm-up (%d sends), baseline %d prefixes",
		wireRate, o.seconds, scheduled, wireWindow, warmEnd-baseN, baseN))
	rep.digest = fmt.Sprintf("%d-snapshots", snaps) // wall-clock stamped: informational only

	if !tr.on {
		return rep, nil
	}

	// Traced run: per-layer rows, the ladder's sustained rate, and the
	// re-drive of stemming/tamp over the delivered stream at the node's
	// tick positions.
	d.mu.Lock()
	events := append(event.Stream(nil), d.events...)
	nodeSnaps := append([]pipeline.Snapshot(nil), d.nodeSnaps...)
	nodeTicks := len(d.lag)
	var lag []float64
	for _, l := range d.lag {
		if l.at.After(m0) && l.at.Before(measuredEnd) {
			lag = append(lag, l.ms)
		}
	}
	publishAt := d.publishAt
	d.mu.Unlock()
	var pos []int
	var trig []pipeline.Trigger
	var want []pipeline.Snapshot
	for _, sn := range nodeSnaps {
		k := posOf(sn.At)
		if k >= len(events) || (len(pos) > 0 && k < pos[len(pos)-1]) {
			continue
		}
		pos = append(pos, k)
		trig = append(trig, sn.Trigger)
		want = append(want, sn)
	}
	rd := redrive(analysisConfig(wireWindow, wireTick, runtime.GOMAXPROCS(0)), nil, events, pos, trig, tr)
	same := pipeline.RenderSnapshots(rd) == pipeline.RenderSnapshots(want)
	rep.check("wire-live.redrive-equals-pipeline", same, "%d node snapshots re-driven through stemming/tamp", len(want))
	renderPictures(want, tr)
	if err := decodeProbe(s.wire, s.msgs, tr); err != nil {
		return nil, err
	}
	var sseMs []float64
	for _, f := range frames {
		if t, ok := publishAt[f.At.UnixNano()]; ok && f.event != "hello" {
			sseMs = append(sseMs, ms(f.arrival.Sub(t)))
		}
	}

	layerCommon(rep, tr)
	rep.layer["collector.deliver_ms_p50"] = pct(deliver, 0.5, "ms")
	rep.layer["collector.deliver_ms_p90"] = pct(deliver, 0.9, "ms")
	rep.layer["collector.events"] = one(float64(len(evTime)), "count")
	offer := tr.durations("intake.offer")
	rep.layer["intake.offer_blocked_s"] = metric{Value: sum(offer) / 1e9, Unit: "s", Samples: len(offer)}
	size, err := dirSize(d.dirs[0])
	if err == nil && head > 0 {
		rep.layer["journal.bytes_per_event"] = one(float64(size)/float64(head), "bytes")
	}
	rep.layer["relay.hop_ms_p50"] = pct(hops, 0.5, "ms")
	rep.layer["relay.hop_ms_p90"] = pct(hops, 0.9, "ms")
	rep.layer["relay.backlog_events_max"] = one(float64(backlogMax), "count")
	rep.layer["pipeline.snapshot_lag_ms_p50"] = pct(lag, 0.5, "ms")
	rep.layer["pipeline.snapshot_lag_ms_p90"] = pct(lag, 0.9, "ms")
	rep.layer["pipeline.snapshots"] = one(float64(nodeTicks), "count")
	rep.layer["pipeline.window_events_mean"] = windowMean(nodeSnaps)
	rep.layer["serve.sse_ms_p50"] = pct(sseMs, 0.5, "ms")
	rep.layer["serve.sse_ms_p90"] = pct(sseMs, 0.9, "ms")
	rep.layer["serve.sse_resyncs"] = one(float64(resyncs), "count")
	rep.layer["process.cpu_us_per_event"] = one(float64(cpuMeasured.Microseconds())/float64(scheduled), "us")
	rep.layer["gen.late_ms_p90"] = pct(s.late, 0.9, "ms")

	sustained := 0
	for _, st := range ladder {
		p90, growing := st.judge(frames, s.due, posOf, evTime)
		rep.notes = append(rep.notes, fmt.Sprintf("ladder %d events/s: visible p90 %.1f ms, backlog growing %v", st.rate, p90, growing))
		if p90 <= wireLatencyLimit && !growing {
			sustained = st.rate
		}
	}
	rep.named["sustained_eps"] = one(float64(sustained), "1/s")
	setDefault(rep)
	return rep, nil
}

// sampleRelay polls the receiver's cursor until stop closes, sampling
// every 16th journal sequence appended from its start on (append until
// the node's cursor passes it) and the largest append-to-release
// backlog.
func (d *deployment) sampleRelay(stop <-chan struct{}) (hops []float64, backlogMax uint64) {
	seen := d.jw.NextSeq()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return hops, backlogMax
		case <-tick.C:
		}
		cur := d.nodeCursor()
		head := d.jw.NextSeq()
		if head > cur && head-cur > backlogMax {
			backlogMax = head - cur
		}
		now := time.Now()
		d.mu.Lock()
		for ; seen < cur; seen++ {
			if seen%16 == 0 {
				if t, ok := d.appendAt[seen]; ok {
					hops = append(hops, ms(now.Sub(t)))
				}
			}
		}
		d.mu.Unlock()
	}
}

// ladderStep is one rate of the traced run's ladder: sends [from, to).
type ladderStep struct {
	rate     int
	from, to int
	end      time.Time
}

// judge returns the step's visible p90 and whether its backlog grew:
// the unseen sends when the step ended exceed a second's worth of the
// rate.
func (st ladderStep) judge(frames []sseFrame, due []time.Time, posOf func(time.Time) int, evTime []time.Time) (float64, bool) {
	var vis []float64
	coveredAtEnd := st.from
	for _, f := range frames {
		if f.event != "snapshot" && f.event != "resync" {
			continue
		}
		k := posOf(f.At)
		if k >= len(evTime) {
			continue
		}
		if k >= st.from && k < st.to {
			vis = append(vis, ms(f.arrival.Sub(due[k])))
		}
		if !f.arrival.After(st.end) && k > coveredAtEnd {
			coveredAtEnd = k
		}
	}
	if len(vis) == 0 {
		return float64(time.Hour / time.Millisecond), true
	}
	return quantile(vis, 0.9), st.to-coveredAtEnd > st.rate
}
