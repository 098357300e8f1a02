package stemming

import (
	"encoding/binary"
	"net/netip"
	"slices"
	"sort"

	"rex/internal/event"
)

// refAnalyze is the map-based reference Analyze: float count tables
// keyed by sub-sequence byte strings, rescanned in full for every
// component, membership by searching each event's token sequence. It is
// the representation the dense fixed-point tables replaced, kept as a
// test oracle: with unit weights every decomposition must match it
// exactly.
func refAnalyze(s event.Stream, cfg Config) []Component {
	cfg = cfg.withDefaults()
	in := newInterner(cfg.MaxSubseqLen)
	seqs := make([][]uint32, len(s))
	pids := make([]uint32, len(s))
	weights := make([]float64, len(s))
	alive := make([]bool, len(s))
	byPrefix := make(map[uint32][]int)
	counts := make(map[string]float64)
	add := func(i int, w float64) {
		for _, key := range refKeys(seqs[i], cfg.MaxSubseqLen) {
			if n := counts[key] + w; n <= 1e-9 {
				delete(counts, key)
			} else {
				counts[key] = n
			}
		}
	}
	for i := range s {
		seqs[i] = tokenSeq(in, &s[i])
		pids[i], alive[i] = seqs[i][len(seqs[i])-1], true
		weights[i] = 1
		if cfg.Weight != nil {
			weights[i] = cfg.Weight(&s[i])
		}
		byPrefix[pids[i]] = append(byPrefix[pids[i]], i)
		add(i, weights[i])
	}
	liveN := len(s)

	var out []Component
	for len(out) < cfg.MaxComponents && liveN >= cfg.MinEvents {
		var key string
		var score, count float64
		ok := false
		for k, c := range counts {
			if c < cfg.MinCount {
				continue
			}
			sc := cfg.Score(c, len(k)/idBytes)
			switch {
			case !ok || sc > score:
				key, score, count, ok = k, sc, c, true
			case sc == score:
				if len(k) > len(key) || (len(k) == len(key) && in.keyLess(k, key)) {
					key, count = k, c
				}
			}
		}
		if !ok || score < cfg.MinScore {
			break
		}
		want := decodeKey(key)
		var prefixIDs []uint32
		seen := make(map[uint32]bool)
		for i := range s {
			if alive[i] && seqContains(seqs[i], want) && !seen[pids[i]] {
				seen[pids[i]] = true
				prefixIDs = append(prefixIDs, pids[i])
			}
		}
		if len(prefixIDs) == 0 {
			break
		}
		var eventIdx []int
		for _, pid := range prefixIDs {
			for _, i := range byPrefix[pid] {
				if alive[i] {
					eventIdx = append(eventIdx, i)
				}
			}
		}
		sort.Ints(eventIdx)
		for _, i := range eventIdx {
			alive[i] = false
			liveN--
			add(i, -weights[i])
		}
		comp := Component{Score: score, Count: int(count + 0.5), EventIndexes: eventIdx}
		for _, id := range want {
			comp.Subsequence = append(comp.Subsequence, in.token(id))
		}
		comp.Stem = Stem{From: comp.Subsequence[len(want)-2], To: comp.Subsequence[len(want)-1]}
		comp.Prefixes = make([]netip.Prefix, len(prefixIDs))
		for i, pid := range prefixIDs {
			_, idx := unpackID(pid)
			comp.Prefixes[i] = in.pfxs[idx]
		}
		comp.First, comp.Last = s[eventIdx[0]].Time, s[eventIdx[0]].Time
		for _, i := range eventIdx {
			if t := s[i].Time; t.Before(comp.First) {
				comp.First = t
			} else if t.After(comp.Last) {
				comp.Last = t
			}
		}
		out = append(out, comp)
	}
	return out
}

// tokenSeq returns e's packed token sequence c = x h a1 … an p.
func tokenSeq(in *interner, e *event.Event) []uint32 {
	in.seqFor(e)
	return slices.Clone(in.scratchSeq)
}

// refKeys returns the byte form of every contiguous sub-sequence of seq
// with >= 2 tokens (capped at maxSubseqLen when > 1), one per occurrence.
func refKeys(seq []uint32, maxSubseqLen int) []string {
	maxLen := len(seq)
	if maxSubseqLen > 1 && maxSubseqLen < maxLen {
		maxLen = maxSubseqLen
	}
	var keys []string
	for start := 0; start < len(seq)-1; start++ {
		for stop := start + 2; stop <= len(seq) && stop-start <= maxLen; stop++ {
			var b []byte
			for _, id := range seq[start:stop] {
				b = binary.BigEndian.AppendUint32(b, id)
			}
			keys = append(keys, string(b))
		}
	}
	return keys
}

// seqContains reports whether want occurs as a contiguous run in seq.
func seqContains(seq, want []uint32) bool {
outer:
	for i := 0; i+len(want) <= len(seq); i++ {
		for j, id := range want {
			if seq[i+j] != id {
				continue outer
			}
		}
		return true
	}
	return false
}
