package stemming

import "math"

// weightUnit is the fixed-point scale of every sub-sequence count: an
// event of weight 1 adds weightUnit to each of its keys. Config.Weight
// values are rounded to the nearest 1/weightUnit once per event, so a
// count is an exact integer sum and an eviction cancels its add
// exactly, in any order. Unit weights convert back to float64 without
// rounding, which keeps unweighted scores identical to plain occurrence
// counts.
const weightUnit = 1 << 16

// quantize converts a Config.Weight value to fixed point.
func quantize(w float64) int64 { return int64(math.Round(w * weightUnit)) }

// countTable is the dense sub-sequence count table: fixed-point counts
// indexed by the interner's key IDs, plus the list of live IDs (those
// with a nonzero count). The interner only grows, so n spans every key
// ever seen; live keeps copying and scanning proportional to the keys
// the current events actually use.
type countTable struct {
	n    []int64  // count per key ID
	at   []int32  // 1 + the ID's index in live; 0 when its count is 0
	live []uint32 // IDs with a nonzero count, in no particular order
}

// fit grows the table to cover key IDs below keys.
func (t *countTable) fit(keys int) {
	if grow := keys - len(t.n); grow > 0 {
		t.n = append(t.n, make([]int64, grow)...)
		t.at = append(t.at, make([]int32, grow)...)
	}
}

// add adds w (negative to remove) to each key in kids, keeping live in
// step: a key joins it when its count leaves 0 and is swap-removed when
// its count returns to 0.
func (t *countTable) add(kids []uint32, w int64) {
	for _, id := range kids {
		old := t.n[id]
		c := old + w
		t.n[id] = c
		switch {
		case old == 0 && c != 0:
			t.live = append(t.live, id)
			t.at[id] = int32(len(t.live))
		case old != 0 && c == 0:
			i := t.at[id] - 1
			last := t.live[len(t.live)-1]
			t.live[i] = last
			t.at[last] = i + 1
			t.live = t.live[:len(t.live)-1]
			t.at[id] = 0
		}
	}
}

// load makes t an exact copy of src, touching only the IDs live in
// either table.
func (t *countTable) load(src *countTable) {
	for _, id := range t.live {
		t.n[id], t.at[id] = 0, 0
	}
	t.fit(len(src.n))
	t.live = append(t.live[:0], src.live...)
	for i, id := range t.live {
		t.n[id] = src.n[id]
		t.at[id] = int32(i + 1)
	}
}
