package stemming

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"sort"

	"rex/internal/event"
)

// Token IDs pack a kind (top 2 bits) and an intern-table index (low 30
// bits) into a uint32, so sequences are flat []uint32 and sub-sequence
// keys are compact byte strings.
const (
	kindShift        = 30
	idxMask   uint32 = (1 << kindShift) - 1
	idBytes          = 4

	// maxInternEntries bounds each intern table: past 2^30 entries an
	// index would bleed into the kind bits and packID would silently
	// corrupt both fields. The tables fail loudly instead.
	maxInternEntries = 1 << kindShift
)

// internIdx converts an intern-table length to the next index, panicking
// (with context) before the index could overflow into the kind bits.
func internIdx(n int, what string) uint32 {
	if n >= maxInternEntries {
		panic(fmt.Sprintf("stemming: %s intern table full (%d entries): token ID space exhausted", what, n))
	}
	return uint32(n)
}

func packID(k Kind, idx uint32) uint32 { return uint32(k-1)<<kindShift | idx }

func unpackID(id uint32) (Kind, uint32) { return Kind(id>>kindShift) + 1, id & idxMask }

// interner assigns dense IDs to peers, nexthops, ASNs and prefixes,
// interns whole event sequences (see seqEntry), and gives every distinct
// sub-sequence key a dense key ID for the count tables. Intern tables
// only grow; a long-lived Window's interner retains every distinct
// token, sequence and key it has ever seen, which is the deliberate
// trade that makes the steady-state count path allocation-free.
type interner struct {
	peerIDs map[netip.Addr]uint32
	nhIDs   map[netip.Addr]uint32
	asIDs   map[uint32]uint32
	pfxIDs  map[netip.Prefix]uint32
	peers   []netip.Addr
	nhs     []netip.Addr
	asns    []uint32
	pfxs    []netip.Prefix

	// Sequence interning: one entry per distinct packed sequence, keyed
	// by the big-endian byte form. maxSubseqLen is fixed at construction
	// (it shapes each entry's key set).
	seqs         map[string]*seqEntry
	maxSubseqLen int
	scratchSeq   []uint32
	scratchRaw   []byte

	// Key interning: keyIDs maps a sub-sequence key's byte form to its
	// dense ID; keys decodes an ID back, for the component report and
	// the content-order tie-break. paths caches, per distinct path (a
	// sequence without its prefix), the IDs of the keys within it.
	keyIDs map[string]uint32
	keys   []string
	paths  map[string][]uint32
}

// seqEntry is one interned event sequence: its prefix ID (always the
// last token) and the key ID of every contiguous sub-sequence of >= 2
// tokens, resolved once. An entry costs a handful of allocations no
// matter how often its sequence recurs, and count updates index dense
// tables by kids without hashing anything.
type seqEntry struct {
	pid  uint32
	kids []uint32
}

func newInterner(maxSubseqLen int) *interner {
	return &interner{
		peerIDs:      make(map[netip.Addr]uint32),
		nhIDs:        make(map[netip.Addr]uint32),
		asIDs:        make(map[uint32]uint32),
		pfxIDs:       make(map[netip.Prefix]uint32),
		seqs:         make(map[string]*seqEntry),
		maxSubseqLen: maxSubseqLen,
		keyIDs:       make(map[string]uint32),
		paths:        make(map[string][]uint32),
	}
}

func (in *interner) peer(a netip.Addr) uint32 {
	id, ok := in.peerIDs[a]
	if !ok {
		id = packID(KindPeer, internIdx(len(in.peers), "peer"))
		in.peerIDs[a] = id
		in.peers = append(in.peers, a)
	}
	return id
}

func (in *interner) nexthop(a netip.Addr) uint32 {
	id, ok := in.nhIDs[a]
	if !ok {
		id = packID(KindNexthop, internIdx(len(in.nhs), "nexthop"))
		in.nhIDs[a] = id
		in.nhs = append(in.nhs, a)
	}
	return id
}

func (in *interner) as(asn uint32) uint32 {
	id, ok := in.asIDs[asn]
	if !ok {
		id = packID(KindAS, internIdx(len(in.asns), "AS"))
		in.asIDs[asn] = id
		in.asns = append(in.asns, asn)
	}
	return id
}

func (in *interner) prefix(p netip.Prefix) uint32 {
	id, ok := in.pfxIDs[p]
	if !ok {
		id = packID(KindPrefix, internIdx(len(in.pfxs), "prefix"))
		in.pfxIDs[p] = id
		in.pfxs = append(in.pfxs, p)
	}
	return id
}

// tokenCompare orders two token IDs by decoded content: kind first, then
// the kind's natural value order. Unlike comparing the IDs themselves,
// the result does not depend on the order values were interned in.
func (in *interner) tokenCompare(a, b uint32) int {
	if a == b {
		return 0
	}
	ka, ia := unpackID(a)
	kb, ib := unpackID(b)
	if ka != kb {
		if ka < kb {
			return -1
		}
		return 1
	}
	switch ka {
	case KindPeer:
		return in.peers[ia].Compare(in.peers[ib])
	case KindNexthop:
		return in.nhs[ia].Compare(in.nhs[ib])
	case KindAS:
		switch x, y := in.asns[ia], in.asns[ib]; {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	case KindPrefix:
		pa, pb := in.pfxs[ia], in.pfxs[ib]
		if c := pa.Addr().Compare(pb.Addr()); c != 0 {
			return c
		}
		switch {
		case pa.Bits() < pb.Bits():
			return -1
		case pa.Bits() > pb.Bits():
			return 1
		}
	}
	return 0
}

// keyLess orders two equal-length sub-sequence keys token by token using
// tokenCompare.
func (in *interner) keyLess(a, b string) bool {
	for off := 0; off+idBytes <= len(a) && off+idBytes <= len(b); off += idBytes {
		ida := uint32(a[off])<<24 | uint32(a[off+1])<<16 | uint32(a[off+2])<<8 | uint32(a[off+3])
		idb := uint32(b[off])<<24 | uint32(b[off+1])<<16 | uint32(b[off+2])<<8 | uint32(b[off+3])
		if c := in.tokenCompare(ida, idb); c != 0 {
			return c < 0
		}
	}
	return len(a) < len(b)
}

// token decodes an ID back to display form.
func (in *interner) token(id uint32) Token {
	kind, idx := unpackID(id)
	t := Token{Kind: kind}
	switch kind {
	case KindPeer:
		t.Addr = in.peers[idx]
	case KindNexthop:
		t.Addr = in.nhs[idx]
	case KindAS:
		t.AS = in.asns[idx]
	case KindPrefix:
		t.Prefix = in.pfxs[idx]
	}
	return t
}

type analysis struct {
	cfg    Config
	stream event.Stream
	in     *interner

	ents    []*seqEntry // per-event interned sequence
	weights []int64     // per-event fixed-point weight
	alive   []bool
	liveN   int

	counts countTable
	// eventsByPrefix lists each prefix's live event indexes in arrival
	// order, indexed by the prefix's intern index. idxArena backs the
	// lists when the analysis is a Window's reused snapshot scratch (see
	// Window.Snapshot); the batch path builds them by plain append.
	eventsByPrefix [][]int
	idxArena       []int
	// pfxMark[idx] == epoch marks prefix idx as already in the component
	// being extracted; bumping epoch clears every mark at once.
	pfxMark []uint32
	epoch   uint32
}

func newAnalysis(s event.Stream, cfg Config) *analysis {
	a := &analysis{
		cfg:     cfg,
		stream:  s,
		in:      newInterner(cfg.MaxSubseqLen),
		ents:    make([]*seqEntry, len(s)),
		weights: make([]int64, len(s)),
		alive:   make([]bool, len(s)),
		liveN:   len(s),
	}
	for i := range s {
		e := &s[i]
		ent := a.in.seqFor(e)
		a.ents[i] = ent
		a.alive[i] = true
		w := int64(weightUnit)
		if cfg.Weight != nil {
			w = quantize(cfg.Weight(e))
		}
		a.weights[i] = w
		_, idx := unpackID(ent.pid)
		if int(idx) == len(a.eventsByPrefix) {
			a.eventsByPrefix = append(a.eventsByPrefix, nil)
		}
		a.eventsByPrefix[idx] = append(a.eventsByPrefix[idx], i)
		a.counts.fit(len(a.in.keys))
		a.counts.add(ent.kids, w)
	}
	return a
}

// reset prepares a reused analysis for n events: slices are regrown or
// cleared in place, so a steady-state Window snapshot reallocates none
// of its scratch. The count table is overwritten by countTable.load.
func (a *analysis) reset(n int) {
	if cap(a.ents) < n {
		a.stream = make(event.Stream, n)
		a.ents = make([]*seqEntry, n)
		a.weights = make([]int64, n)
		a.alive = make([]bool, n)
	} else {
		a.stream = a.stream[:n]
		a.ents = a.ents[:n]
		a.weights = a.weights[:n]
		a.alive = a.alive[:n]
	}
	a.liveN = n
	clear(a.eventsByPrefix)
	if grow := len(a.in.pfxs) - len(a.eventsByPrefix); grow > 0 {
		a.eventsByPrefix = append(a.eventsByPrefix, make([][]int, grow)...)
	}
	if cap(a.idxArena) < n {
		a.idxArena = make([]int, 0, n)
	} else {
		a.idxArena = a.idxArena[:0]
	}
}

// seqFor interns an event's sequence form c = x h a1 … an p. Repeat
// sequences — the common case in BGP churn, where one route flaps many
// times — return the existing entry without allocating: the sequence is
// built in scratch buffers and looked up by its byte form before
// anything is materialized.
func (in *interner) seqFor(e *event.Event) *seqEntry {
	seq := in.scratchSeq[:0]
	seq = append(seq, in.peer(e.Peer))
	if e.Attrs != nil {
		if e.Attrs.Nexthop.IsValid() {
			seq = append(seq, in.nexthop(e.Attrs.Nexthop))
		}
		for _, segment := range e.Attrs.ASPath {
			for _, segASN := range segment.ASNs {
				seq = append(seq, in.as(segASN))
			}
		}
	}
	pid := in.prefix(e.Prefix)
	seq = append(seq, pid)
	in.scratchSeq = seq

	raw := in.scratchRaw[:0]
	for _, id := range seq {
		raw = binary.BigEndian.AppendUint32(raw, id)
	}
	in.scratchRaw = raw

	if ent, ok := in.seqs[string(raw)]; ok {
		return ent
	}
	s := string(raw)
	ent := &seqEntry{pid: pid, kids: in.keyIDsOf(s)}
	in.seqs[s] = ent
	return ent
}

// keyIDsOf resolves the key ID of every contiguous sub-sequence of >= 2
// tokens (capped at maxSubseqLen when > 1) of the sequence whose byte
// form is s. The keys that end before the last token (the prefix)
// depend only on the path x h a1 … an, which every prefix routed along
// it shares, so they are resolved once per distinct path; a new
// sequence on a known path looks up only the keys ending at its prefix.
// A sequence that repeats a run (AS-path prepending) yields that key
// once per occurrence, and so counts it once per occurrence.
func (in *interner) keyIDsOf(s string) []uint32 {
	n := len(s) / idBytes
	maxLen := n
	if in.maxSubseqLen > 1 && in.maxSubseqLen < maxLen {
		maxLen = in.maxSubseqLen
	}
	path := s[:len(s)-idBytes]
	head, ok := in.paths[path]
	if !ok {
		for stop := 2; stop < n; stop++ {
			for start := max(stop-maxLen, 0); start <= stop-2; start++ {
				head = append(head, in.keyID(s[start*idBytes:stop*idBytes]))
			}
		}
		in.paths[path] = head
	}
	kids := make([]uint32, len(head), len(head)+maxLen-1)
	copy(kids, head)
	for start := n - maxLen; start <= n-2; start++ {
		kids = append(kids, in.keyID(s[start*idBytes:]))
	}
	return kids
}

// keyID returns key's dense ID, interning it on first sight. New keys
// are substrings of their sequence's byte form and share its backing
// string.
func (in *interner) keyID(key string) uint32 {
	id, ok := in.keyIDs[key]
	if !ok {
		id = internIdx(len(in.keys), "sub-sequence key")
		in.keyIDs[key] = id
		in.keys = append(in.keys, key)
	}
	return id
}

// best scans the live keys for the top-scoring sub-sequence.
func (a *analysis) best() (kid uint32, score float64, count float64, ok bool) {
	var key string
	for _, id := range a.counts.live {
		c := float64(a.counts.n[id]) / weightUnit
		if c < a.cfg.MinCount {
			continue
		}
		k := a.in.keys[id]
		s := a.cfg.Score(c, len(k)/idBytes)
		switch {
		case !ok || s > score:
			kid, key, score, count, ok = id, k, s, c, true
		case s == score:
			// Deterministic tie-break: longer wins, then smaller token
			// content. Comparing decoded content instead of key IDs keeps
			// the choice independent of interning order, so a sliding
			// window (whose interner has seen evicted events) and a batch
			// run over the same events pick the same winner.
			if len(k) > len(key) || (len(k) == len(key) && a.in.keyLess(k, key)) {
				kid, key, count = id, k, c
			}
		}
	}
	return kid, score, count, ok
}

// extract removes and returns the strongest component of the remaining
// stream.
func (a *analysis) extract() (Component, bool) {
	if a.liveN < a.cfg.MinEvents {
		return Component{}, false
	}
	kid, score, count, ok := a.best()
	if !ok || score < a.cfg.MinScore {
		return Component{}, false
	}

	// P: prefixes of live events whose sequence contains s', in
	// first-appearance order.
	if grow := len(a.in.pfxs) - len(a.pfxMark); grow > 0 {
		a.pfxMark = append(a.pfxMark, make([]uint32, grow)...)
	}
	if a.epoch++; a.epoch == 0 { // wrapped: stale marks could match
		clear(a.pfxMark)
		a.epoch = 1
	}
	var prefixIDs []uint32
	for i, ent := range a.ents {
		if a.alive[i] && slices.Contains(ent.kids, kid) {
			if _, idx := unpackID(ent.pid); a.pfxMark[idx] != a.epoch {
				a.pfxMark[idx] = a.epoch
				prefixIDs = append(prefixIDs, ent.pid)
			}
		}
	}
	if len(prefixIDs) == 0 {
		return Component{}, false
	}

	// E: every live event touching a prefix in P.
	var eventIdx []int
	for _, pid := range prefixIDs {
		_, idx := unpackID(pid)
		for _, i := range a.eventsByPrefix[idx] {
			if a.alive[i] {
				eventIdx = append(eventIdx, i)
			}
		}
	}
	sort.Ints(eventIdx)
	for _, i := range eventIdx {
		a.alive[i] = false
		a.liveN--
		a.counts.add(a.ents[i].kids, -a.weights[i])
	}

	want := decodeKey(a.in.keys[kid])
	comp := Component{
		Score:    score,
		Count:    int(count + 0.5),
		Prefixes: make([]netip.Prefix, len(prefixIDs)),
	}
	comp.Subsequence = make([]Token, len(want))
	for i, id := range want {
		comp.Subsequence[i] = a.in.token(id)
	}
	comp.Stem = Stem{
		From: comp.Subsequence[len(want)-2],
		To:   comp.Subsequence[len(want)-1],
	}
	for i, pid := range prefixIDs {
		_, idx := unpackID(pid)
		comp.Prefixes[i] = a.in.pfxs[idx]
	}
	comp.EventIndexes = eventIdx
	comp.First = a.stream[eventIdx[0]].Time
	comp.Last = comp.First
	for _, i := range eventIdx {
		t := a.stream[i].Time
		if t.Before(comp.First) {
			comp.First = t
		}
		if t.After(comp.Last) {
			comp.Last = t
		}
	}
	return comp, true
}

func decodeKey(key string) []uint32 {
	out := make([]uint32, len(key)/idBytes)
	for i := range out {
		out[i] = binary.BigEndian.Uint32([]byte(key[i*idBytes : (i+1)*idBytes]))
	}
	return out
}
