// Package wfa implements the WaveFront Alignment algorithm of the paper's
// Section 2.3 (Equation 3): exact gap-affine pairwise alignment in O(n*s)
// time, identical results to Smith-Waterman-Gotoh.
//
// The implementation mirrors the hardware faithfully:
//
//   - offsets follow Equation 4 (offset = j, i = offset - k, k = j - i);
//   - ties in the max-reductions are broken in a fixed order (substitution,
//     then insertion, then deletion; gap-open beats gap-extend) so the
//     software CIGAR matches the accelerator's backtrace bit-for-bit;
//   - each computed cell records its origin exactly as the Compute
//     sub-module emits it (3 bits for M~, 1 for I~, 1 for D~, Section 4.3.3);
//   - out-of-matrix cells (offset beyond |b|, or i beyond |a|) are trimmed to
//     the invalid sentinel immediately after compute, as the hardware's
//     column initialization/validity tracking does.
//
// # Cell layout
//
// A wavefront cell is one int32, offset<<3 | origin: the offset in bits
// [31:3] and the cell's origin tag in bits [2:0] (an MTag for M~ cells, a
// GTag for I~ and D~ cells). Every invalid cell holds the single value
// InvalidCell, which is negative and has zero origin bits; valid offsets are
// never negative, so validity is a sign test. The max-reductions compare
// cell>>3 only, never the origin bits, so the tie-break order above is
// decided by offsets alone.
//
// A wavefront is a padded row (Wavefront) that spans the pair's whole
// clamped diagonal range plus one sentinel cell on each side,
// [-min(|a|,k_max)-1, min(|b|,k_max)+1], indexed k+base. Cells outside the
// range the kernel wrote always hold InvalidCell, so the k±1 neighbour reads
// of Equation 3 need no range check, and an absent wavefront reads as a
// shared all-invalid row. A Window keeps the dependency window of rows; a
// reused row resets only the range it wrote before, never its full width.
// Rows are sized to the pair, never to k_max.
//
// Backtrace mode keeps a compact copy of each score's written ranges (the
// trail in backtrace.go), never full-width rows per score.
//
// # Length limit
//
// The offset field holds at most MaxSeqLen = 2^28-1, so neither sequence may
// be longer. Align and AlignBatch reject longer inputs with ErrTooLong;
// Aligner.Run reports them as unsuccessful.
package wfa

import (
	"errors"
	"math"

	"repro/internal/align"
)

// originBits is the width of the origin field at the bottom of a cell.
const originBits = 3

// originMask selects the origin field of a cell.
const originMask = 1<<originBits - 1

// MaxSeqLen is the longest sequence the packed cell can address: a cell
// keeps the offset in 29 signed bits and valid offsets are non-negative.
const MaxSeqLen = 1<<28 - 1

// ErrTooLong reports a sequence longer than MaxSeqLen.
var ErrTooLong = errors.New("wfa: sequence longer than MaxSeqLen")

// checkLengths rejects a pair the packed cell cannot address.
func checkLengths(n, m int) error {
	if n > MaxSeqLen || m > MaxSeqLen {
		return ErrTooLong
	}
	return nil
}

// InvalidCell is the value of every never-computed or trimmed cell: offset
// -2^27 with zero origin bits. Adding the +1 of a substitution or insertion
// leaves it negative, and a negative offset never survives the trim, so it
// can never win a max against a real offset. The hardware initializes
// Wavefront RAM columns to negative values for the same purpose (Section
// 4.3.1).
const InvalidCell int32 = math.MinInt32 / 2

// Pack builds a cell from an offset and an origin tag.
func Pack(off int32, origin uint8) int32 {
	return off<<originBits | int32(origin)
}

// CellOffset returns the offset field of a cell.
func CellOffset(c int32) int32 { return c >> originBits }

// CellOrigin returns the origin tag of a cell (0 for InvalidCell).
func CellOrigin(c int32) uint8 { return uint8(c & originMask) }

// CellValid reports whether a cell holds a real offset.
func CellValid(c int32) bool { return c >= 0 }

// Component selects one of the three wavefront matrices of Equation 3.
type Component uint8

// The three wavefront components.
const (
	CompM Component = iota
	CompI
	CompD
	numComponents
)

// String names the component with its conventional WFA letter.
func (c Component) String() string {
	switch c {
	case CompM:
		return "M"
	case CompI:
		return "I"
	case CompD:
		return "D"
	}
	return "?"
}

// Origin tags. MTag* values occupy 3 bits and enumerate the five origins of
// an M~ cell (Section 4.3.3: "the origin of a cell in the I~, D~, and M~
// wavefront matrices can come from 2, 2 and 5 positions, respectively").
// GTag* values are the 1-bit origins of I~ and D~ cells. The kernel derives
// an M~ cell's gap tags arithmetically: MTagIOpen+GTag and MTagDOpen+GTag.
const (
	MTagNone  uint8 = 0 // cell invalid or the initial cell M~(0,0)
	MTagSub   uint8 = 1 // from M~(s-x, k) + 1
	MTagIOpen uint8 = 2 // from I~(s,k) which opened from M~(s-o-e, k-1)
	MTagIExt  uint8 = 3 // from I~(s,k) which extended I~(s-e, k-1)
	MTagDOpen uint8 = 4 // from D~(s,k) which opened from M~(s-o-e, k+1)
	MTagDExt  uint8 = 5 // from D~(s,k) which extended D~(s-e, k+1)

	GTagOpen uint8 = 0 // gap opened from M~
	GTagExt  uint8 = 1 // gap extended the same-component chain
)

// PackOrigin packs the per-cell origin record the Compute sub-module emits:
// bits [4:2] the 3-bit M origin, bit 1 the I origin, bit 0 the D origin.
func PackOrigin(mTag, iTag, dTag uint8) uint8 {
	return mTag<<2 | (iTag&1)<<1 | dTag&1
}

// UnpackOrigin reverses PackOrigin.
func UnpackOrigin(o uint8) (mTag, iTag, dTag uint8) {
	return o >> 2, o >> 1 & 1, o & 1
}

// Wavefront is one vector of Equation 3 for a single score and component,
// held as a padded row over the pair's whole diagonal span. Lo..Hi is the
// range the kernel wrote; every other cell of the row holds InvalidCell.
type Wavefront struct {
	Lo, Hi int     // written diagonal range, inclusive; Lo > Hi means empty
	cells  []int32 // packed cells, diagonal k at index k+base
	base   int
}

// Len returns the number of diagonals the wavefront spans (0 when empty).
func (w *Wavefront) Len() int {
	if w.Hi < w.Lo {
		return 0
	}
	return w.Hi - w.Lo + 1
}

// Cell returns the packed cell of diagonal k, which must lie in the pair's
// padded span.
func (w *Wavefront) Cell(k int) int32 { return w.cells[k+w.base] }

// Span returns the cells of diagonals lo..hi, which must lie in the pair's
// padded span, as a slice the caller may read and write in place.
func (w *Wavefront) Span(lo, hi int) []int32 { return w.cells[lo+w.base : hi+w.base+1] }

// SetCell stores the packed cell of diagonal k, which must lie in Lo..Hi.
func (w *Wavefront) SetCell(k int, c int32) { w.cells[k+w.base] = c }

// Reached reports whether diagonal k holds a valid offset of at least off:
// the termination test against the pair's final cell. k may lie anywhere,
// including outside the pair's span under a k_max clamp.
func (w *Wavefront) Reached(k int, off int32) bool {
	if k < w.Lo || k > w.Hi {
		return false
	}
	c := w.cells[k+w.base]
	return c >= 0 && c>>originBits >= off
}

// written returns the cells of Lo..Hi (empty when the range is).
func (w *Wavefront) written() []int32 {
	if w.Hi < w.Lo {
		return nil
	}
	return w.Span(w.Lo, w.Hi)
}

// retarget makes lo..hi the written range, resetting to InvalidCell only
// the cells of the previous range that the new one does not cover: the
// caller overwrites every cell of lo..hi.
func (w *Wavefront) retarget(lo, hi int) { w.retargetOver(lo, hi, lo, hi) }

// retargetOver makes lo..hi the written range of a row whose caller
// overwrites every cell of wlo..whi, a range that covers lo..hi and may be
// wider (the cells between hold InvalidCell). Only the cells of the previous
// range outside wlo..whi are reset.
func (w *Wavefront) retargetOver(lo, hi, wlo, whi int) {
	if w.Lo <= w.Hi {
		if wlo > whi {
			fillInvalid(w.cells[w.Lo+w.base : w.Hi+w.base+1])
		} else {
			if w.Lo < wlo {
				fillInvalid(w.cells[w.Lo+w.base : min(w.Hi, wlo-1)+w.base+1])
			}
			if w.Hi > whi {
				fillInvalid(w.cells[max(w.Lo, whi+1)+w.base : w.Hi+w.base+1])
			}
		}
	}
	if lo > hi {
		lo, hi = 1, 0
	}
	w.Lo, w.Hi = lo, hi
}

func fillInvalid(cells []int32) {
	for i := range cells {
		cells[i] = InvalidCell
	}
}

// Window is the dependency window of one pair's wavefronts: the rows of the
// last scores each component's recurrence still reads, reused score after
// score and pair after pair. M~ keeps max(x, o+e)+1 scores; I~ and D~ are
// read only at s-e and s, so they keep e+1. All rows are cut from one slab.
// A Window is not safe for concurrent use.
type Window struct {
	kLo, kHi int // the pair's clamped diagonal range
	n, m     int32
	base     int                  // row index of diagonal 0
	width    int                  // cells per row
	score    [numComponents][]int // score held by each slot, -1 when free
	rows     [numComponents][]Wavefront
	blank    Wavefront // all-invalid row read for absent wavefronts
	slab     []int32   // backing store of blank and every row
	stride   int       // slab cells reserved per row
}

// Reset re-arms the window for a pair with |a| = n and |b| = m under the
// diagonal clamp kmax (<= 0: none) and the gap-affine penalties p. Rows
// keep their storage: each resets the range it wrote for the previous pair,
// and the slab grows only when this pair's span is wider than any before.
func (w *Window) Reset(n, m, kmax int, p align.Penalties) {
	mSlots := max(p.Mismatch, p.GapOpen+p.GapExtend) + 1
	w.reset(n, m, kmax, mSlots, p.GapExtend+1)
}

// reset is Reset with explicit slot counts for M~ and for each of I~, D~.
func (w *Window) reset(n, m, kmax, mSlots, gapSlots int) {
	w.kLo, w.kHi = -n, m
	if kmax > 0 {
		w.kLo, w.kHi = max(w.kLo, -kmax), min(w.kHi, kmax)
	}
	w.n, w.m = int32(n), int32(m)
	w.base = 1 - w.kLo
	w.width = w.kHi - w.kLo + 3

	regrow := w.width > w.stride
	for c := range w.rows {
		slots := gapSlots
		if Component(c) == CompM {
			slots = mSlots
		}
		if len(w.score[c]) != slots {
			w.score[c] = make([]int, slots)
			w.rows[c] = make([]Wavefront, slots)
			regrow = true
		}
		for i := range w.score[c] {
			w.score[c][i] = -1
		}
	}
	if regrow {
		// Every row starts over in a new all-invalid slab. A slab that
		// outgrew an earlier one takes an eighth of headroom, so pairs of
		// nearly equal length settle on one allocation.
		if w.stride > 0 {
			w.stride = w.width + w.width/8
		} else {
			w.stride = w.width
		}
		w.slab = make([]int32, (1+mSlots+2*gapSlots)*w.stride)
		fillInvalid(w.slab)
	}
	at := 0
	w.cut(&w.blank, &at, regrow)
	for c := range w.rows {
		for i := range w.rows[c] {
			w.cut(&w.rows[c][i], &at, regrow)
		}
	}
}

// cut gives row r the next stride of the slab, sized to the pair. A row
// that keeps its place first resets the range it wrote; every other cell
// of its stride already holds InvalidCell.
func (w *Window) cut(r *Wavefront, at *int, fresh bool) {
	if fresh {
		r.Lo, r.Hi = 1, 0
	} else {
		r.retarget(1, 0)
	}
	r.cells = w.slab[*at : *at+w.width : *at+w.stride]
	r.base = w.base
	*at += w.stride
}

// Get returns the row of component c at score s, or the shared all-invalid
// row when s is negative or not in the window.
func (w *Window) Get(c Component, s int) *Wavefront {
	if s < 0 {
		return &w.blank
	}
	slot := s % len(w.score[c])
	if w.score[c][slot] != s {
		return &w.blank
	}
	return &w.rows[c][slot]
}

// claim hands out component c's slot for score s, evicting the score it
// held.
func (w *Window) claim(c Component, s int) *Wavefront {
	slot := s % len(w.score[c])
	w.score[c][slot] = s
	return &w.rows[c][slot]
}

// clamp applies the pair's structural diagonal bounds to lo..hi.
func (w *Window) clamp(lo, hi int) (int, int) {
	return max(lo, w.kLo), min(hi, w.kHi)
}

// hull returns the smallest range covering lo1..hi1 and lo2..hi2, either
// of which may be empty (lo > hi); it is empty only when both are.
func hull(lo1, hi1, lo2, hi2 int) (int, int) {
	switch {
	case lo1 > hi1:
		return lo2, hi2
	case lo2 > hi2:
		return lo1, hi1
	}
	return min(lo1, lo2), max(hi1, hi2)
}

// union returns the hull of two written ranges shifted by d (empty when
// both are).
func union(a, b *Wavefront, d int) (lo, hi int) {
	return hull(a.Lo+d, a.Hi+d, b.Lo+d, b.Hi+d)
}

// Init stores the initial condition M~(0,0) = 0 (Section 2.3) as score 0
// and returns its row, not yet extended.
func (w *Window) Init() *Wavefront {
	w.claim(CompI, 0).retarget(1, 0)
	w.claim(CompD, 0).retarget(1, 0)
	mw := w.claim(CompM, 0)
	mw.retarget(0, 0)
	mw.SetCell(0, Pack(0, MTagNone))
	return mw
}

// Step is the wavefront kernel, the one I~/D~/M~ compute loop of the
// repository: it computes I~(s), D~(s) and M~(s) of Equation 3 (Figure 2)
// from the dependency rows in the window into the slot of score s and
// returns the three rows. M~(s) comes back un-extended; the software
// Aligner and the simulated hardware Aligner each run their own extend over
// it in place.
//
// Ranges follow the dependency rows: I~ spans the union of M~(s-o-e) and
// I~(s-e) shifted by +1, D~ the same union with D~(s-e) shifted by -1, and
// M~ the union of M~(s-x), I~(s) and D~(s), each clamped to the pair's span.
// The ranges depend only on the penalties, the lengths and k_max, so they
// equal the hardware RangeTracker's. An empty M~ range means an empty score:
// Step then claims no slot and returns the shared all-invalid row three
// times, so the rows the window holds are left as they are.
//
// The three components are computed in one pass over M~'s range, which
// covers both gap ranges. A gap cell outside its own range has two invalid
// sources and so computes to InvalidCell; writing it keeps the row
// invariant, and the row still publishes its own range as Lo..Hi.
func (w *Window) Step(s int, p align.Penalties) (iw, dw, mw *Wavefront) {
	x, oe, e := p.Mismatch, p.GapOpen+p.GapExtend, p.GapExtend
	srcMx, srcMoe := w.Get(CompM, s-x), w.Get(CompM, s-oe)
	srcIe, srcDe := w.Get(CompI, s-e), w.Get(CompD, s-e)
	iLo, iHi := w.clamp(union(srcMoe, srcIe, +1))
	dLo, dHi := w.clamp(union(srcMoe, srcDe, -1))
	lo, hi := hull(srcMx.Lo, srcMx.Hi, iLo, iHi)
	lo, hi = w.clamp(hull(lo, hi, dLo, dHi))
	if lo > hi {
		return &w.blank, &w.blank, &w.blank
	}
	iw, dw, mw = w.claim(CompI, s), w.claim(CompD, s), w.claim(CompM, s)
	iw.retargetOver(iLo, iHi, lo, hi)
	dw.retargetOver(dLo, dHi, lo, hi)
	mw.retarget(lo, hi)

	n, m, at, width := w.n, w.m, lo+w.base, hi-lo+1
	sub := srcMx.cells[at:][:width]
	openI, extI := srcMoe.cells[at-1:][:width], srcIe.cells[at-1:][:width]
	openD, extD := srcMoe.cells[at+1:][:width], srcDe.cells[at+1:][:width]
	ins, del, dst := iw.cells[at:][:width], dw.cells[at:][:width], mw.cells[at:][:width]
	for idx := range dst {
		k := int32(lo + idx)

		// I~(s,k) = max(M~(s-o-e, k-1), I~(s-e, k-1)) + 1; open wins a tie.
		ov, xv := openI[idx]>>originBits, extI[idx]>>originBits
		iv := max(ov, xv) + 1
		tag := int32(GTagOpen)
		if ov < xv {
			tag = int32(GTagExt)
		}
		ic := trim(iv<<originBits|tag, iv, k, n, m)

		// D~(s,k) = max(M~(s-o-e, k+1), D~(s-e, k+1)); open wins a tie.
		ov, xv = openD[idx]>>originBits, extD[idx]>>originBits
		dv := max(ov, xv)
		tag = int32(GTagOpen)
		if ov < xv {
			tag = int32(GTagExt)
		}
		dc := trim(dv<<originBits|tag, dv, k, n, m)
		ins[idx], del[idx] = ic, dc

		// M~(s,k) = max(M~(s-x, k) + 1, I~(s, k), D~(s, k)). The first of
		// substitution, insertion, deletion that reaches the maximum
		// offset names the origin.
		sv, iv, dv := sub[idx]>>originBits+1, ic>>originBits, dc>>originBits
		v := max(sv, iv, dv)
		tag = int32(MTagDOpen) | dc&originMask
		if iv == v {
			tag = int32(MTagIOpen) | ic&originMask
		}
		if sv == v {
			tag = int32(MTagSub)
		}
		dst[idx] = trim(v<<originBits|tag, v, k, n, m)
	}
	return iw, dw, mw
}

// trim returns cell c of offset v on diagonal k, or InvalidCell when the
// offset lies outside the DP-matrix of a pair with |a| = n and |b| = m:
// v < 0 (an invalid source), v > m, or i = v-k > n. The kernel always
// passes k >= -n, so one unsigned compare against min(m, n+k) covers all
// three.
func trim(c, v, k, n, m int32) int32 {
	if uint32(v) > uint32(min(m, n+k)) {
		return InvalidCell
	}
	return c
}
