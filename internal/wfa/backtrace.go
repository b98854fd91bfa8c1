package wfa

import (
	"repro/internal/align"
	"repro/internal/invariant"
)

// trail keeps what the backtrace reads: for every score, a compact copy of
// the written range of each component's row, appended to one arena. A long
// alignment so retains O(cells computed), never a full-width row per score,
// and the arena's capacity carries over from pair to pair.
type trail struct {
	cells []int32
	rows  [][numComponents]span // index = score
}

// span locates one row's copy: cells[at : at+hi-lo+1] hold diagonals lo..hi.
type span struct {
	at     int
	lo, hi int32
}

// reset empties the trail for the next pair, keeping its capacity.
func (t *trail) reset() {
	t.cells = t.cells[:0]
	t.rows = t.rows[:0]
}

// record appends the next score's rows; scores are recorded in order from 0.
// Both arrays grow by doubling rather than by append's quarter steps, so a
// one-shot alignment copies its trail only a few times; a reused Aligner
// stops growing once it has seen its widest pair.
func (t *trail) record(iw, dw, mw *Wavefront) {
	if need := len(t.cells) + iw.Len() + dw.Len() + mw.Len(); need > cap(t.cells) {
		grown := make([]int32, len(t.cells), max(2*need, 512)) //vet:allow hotalloc trail growth by doubling, amortized across the pairs of a reused Aligner
		copy(grown, t.cells)
		t.cells = grown
	}
	if len(t.rows) == cap(t.rows) {
		grown := make([][numComponents]span, len(t.rows), max(2*len(t.rows), 64)) //vet:allow hotalloc trail growth by doubling, amortized across the pairs of a reused Aligner
		copy(grown, t.rows)
		t.rows = grown
	}
	var row [numComponents]span
	for c, w := range [numComponents]*Wavefront{CompM: mw, CompI: iw, CompD: dw} {
		row[c] = span{at: len(t.cells), lo: int32(w.Lo), hi: int32(w.Hi)}
		t.cells = append(t.cells, w.written()...)
	}
	t.rows = append(t.rows, row)
}

// cell returns the recorded cell of component c at (s, k), or InvalidCell
// when the score was not recorded or k lies outside the written range.
func (t *trail) cell(c Component, s, k int) int32 {
	if s < 0 || s >= len(t.rows) {
		return InvalidCell
	}
	sp := t.rows[s][c]
	if k < int(sp.lo) || k > int(sp.hi) {
		return InvalidCell
	}
	return t.cells[sp.at+k-int(sp.lo)]
}

// backtrace reconstructs the optimal CIGAR from the trail, walking the
// per-cell origin tags from the final cell back to M~(0,0) (Section 2.3's
// backtrace() operator). Matches are re-inserted from the difference
// between each M~ cell's post-extend offset and its computed (pre-extend)
// value.
func (al *Aligner) backtrace(finalScore int) align.CIGAR {
	x := al.pen.Mismatch
	oe := al.pen.GapOpen + al.pen.GapExtend
	e := al.pen.GapExtend
	t := &al.trail

	// The reversed-op scratch is owned by the Aligner and truncate-reset per
	// pair, so backtrace allocates only while the deepest alignment seen so
	// far is still growing the backing array.
	rev := al.btScratch[:0]
	s := finalScore
	k := al.alignK
	comp := CompM
	cur := int32(al.m) // current offset (j) along the walk

	for {
		c := t.cell(comp, s, k)
		if c < 0 {
			invariant.Failf("wfa", "backtrace lost %v~ cell (s=%d,k=%d)", comp, s, k)
		}
		if got := c >> originBits; got != cur {
			invariant.Failf("wfa", "backtrace offset mismatch at %v~(s=%d,k=%d): walk=%d stored=%d", comp, s, k, cur, got)
		}
		tag := CellOrigin(c)
		switch comp {
		case CompM:
			// Pre-extend value of this cell, from its origin.
			var pre int32
			switch tag {
			case MTagNone: // the initial cell M~(0,0)
				pre = 0
			case MTagSub:
				pre = t.cell(CompM, s-x, k)>>originBits + 1
			case MTagIOpen, MTagIExt:
				pre = t.cell(CompI, s, k) >> originBits
			case MTagDOpen, MTagDExt:
				pre = t.cell(CompD, s, k) >> originBits
			default:
				invariant.Failf("wfa", "bad M~ tag %d at (s=%d,k=%d)", tag, s, k)
			}
			for cur > pre {
				rev = append(rev, align.OpMatch)
				cur--
			}
			switch tag {
			case MTagNone:
				if s != 0 || k != 0 || cur != 0 {
					invariant.Failf("wfa", "backtrace ended at (s=%d,k=%d,off=%d)", s, k, cur)
				}
				al.btScratch = rev
				return reverseOps(rev)
			case MTagSub:
				rev = append(rev, align.OpMismatch)
				cur--
				s -= x
			case MTagIOpen:
				rev = append(rev, align.OpInsert)
				cur--
				k--
				s -= oe
			case MTagIExt:
				rev = append(rev, align.OpInsert)
				cur--
				k--
				s -= e
				comp = CompI
			case MTagDOpen:
				rev = append(rev, align.OpDelete)
				k++
				s -= oe
			case MTagDExt:
				rev = append(rev, align.OpDelete)
				k++
				s -= e
				comp = CompD
			}

		case CompI:
			rev = append(rev, align.OpInsert)
			cur--
			k--
			if tag == GTagOpen {
				s -= oe
				comp = CompM
			} else {
				s -= e
			}

		case CompD:
			rev = append(rev, align.OpDelete)
			k++
			if tag == GTagOpen {
				s -= oe
				comp = CompM
			} else {
				s -= e
			}
		}
	}
}

// reverseOps reverses the accumulated backtrace into forward CIGAR order.
// The result escapes to the caller as part of align.Result, so it cannot be
// pooled.
func reverseOps(rev []align.Op) align.CIGAR {
	out := make(align.CIGAR, len(rev)) //vet:allow hotalloc result buffer owned by the caller
	for i, op := range rev {
		out[len(rev)-1-i] = op
	}
	return out
}
