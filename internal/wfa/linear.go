package wfa

import (
	"repro/internal/align"
	"repro/internal/invariant"
	"repro/internal/swg"
)

// LinearAlign runs the gap-linear WFA — the wavefront formulation of
// Equation 1's scoring model (Section 2.2), where a gap of length L costs
// L*g with no opening surcharge. It needs a single wavefront component:
//
//	M~(s,k) = max( M~(s-x, k) + 1,   substitution
//	               M~(s-g, k-1) + 1, insertion
//	               M~(s-g, k+1) )    deletion
//
// followed by the usual extend(). The chip implements only the
// biologist-preferred gap-affine model; this variant exists as the
// software substrate for the gap-linear baseline of Section 2.2 and is
// verified against swg.LinearAlign.
func LinearAlign(a, b []byte, p swg.LinearPenalties, opts Options) (align.Result, Stats) {
	invariant.Checkf(p.Mismatch > 0 && p.Gap > 0, "wfa", "invalid gap-linear penalties %+v", p)
	n, m := len(a), len(b)
	alignK := m - n
	var st Stats
	if checkLengths(n, m) != nil {
		return align.Result{Success: false}, st
	}

	maxScore := opts.MaxScore
	if maxScore <= 0 {
		short, diff := n, m-n
		if m < n {
			short, diff = m, n-m
		}
		maxScore = p.Mismatch*short + p.Gap*diff + p.Gap + 1
	}

	window := p.Mismatch
	if p.Gap > window {
		window = p.Gap
	}
	// The single component lives in the M~ rows of the same padded window
	// the gap-affine kernel uses; the I~ and D~ rows stay empty.
	var win Window
	win.reset(n, m, opts.MaxK, window+1, 1)
	var tr trail
	record := func(s int) {
		if opts.WithCIGAR {
			tr.record(win.Get(CompI, s), win.Get(CompD, s), win.Get(CompM, s))
		}
	}
	backtrace := func(s int) align.CIGAR {
		return linearBacktrace(&tr, s, alignK, m, p)
	}

	m0 := win.Init()
	extendRow(a, b, m0, &st)
	record(0)
	if m0.Reached(alignK, int32(m)) {
		st.Score = 0
		res := align.Result{Score: 0, Success: true}
		if opts.WithCIGAR {
			res.CIGAR = backtrace(0)
		}
		return res, st
	}

	base := win.base
	for s, emptyRun := 1, 0; s <= maxScore; s++ {
		st.ScoreSteps++
		srcX, srcG := win.Get(CompM, s-p.Mismatch), win.Get(CompM, s-p.Gap)
		wf := win.claim(CompM, s)
		if srcX.Len() == 0 && srcG.Len() == 0 {
			wf.retarget(1, 0)
			record(s)
			emptyRun++
			if emptyRun > window {
				break
			}
			continue
		}
		emptyRun = 0
		lo, hi := union(srcX, srcG, 0)
		if srcG.Len() > 0 {
			lo, hi = min(lo, srcG.Lo-1), max(hi, srcG.Hi+1)
		}
		lo, hi = win.clamp(lo, hi)
		wf.retarget(lo, hi)
		if lo > hi {
			record(s)
			continue
		}
		dst := wf.written()
		for idx := range dst {
			k := lo + idx
			st.CellsComputed++
			v, tag := srcX.cells[k+base]>>originBits+1, lSub
			if c := srcG.cells[k-1+base] >> originBits; c+1 > v {
				v, tag = c+1, lIns
			}
			if c := srcG.cells[k+1+base] >> originBits; c > v {
				v, tag = c, lDel
			}
			dst[idx] = trim(Pack(v, tag), v, int32(k), win.n, win.m)
		}
		st.NonEmptySteps++
		extendRow(a, b, wf, &st)
		record(s)
		if w := wf.Len(); w > st.MaxWavefront {
			st.MaxWavefront = w
		}
		st.SumWavefront += int64(wf.Len())
		if wf.Reached(alignK, int32(m)) {
			st.Score = s
			res := align.Result{Score: s, Success: true}
			if opts.WithCIGAR {
				res.CIGAR = backtrace(s)
			}
			return res, st
		}
	}
	return align.Result{Success: false}, st
}

// Gap-linear origin tags, in the 3-bit origin field of the M~ rows.
const (
	lNone uint8 = 0
	lSub  uint8 = 1
	lIns  uint8 = 2
	lDel  uint8 = 3
)

// linearBacktrace walks the recorded gap-linear wavefronts.
func linearBacktrace(tr *trail, finalScore, alignK, m int, p swg.LinearPenalties) align.CIGAR {
	var rev []align.Op
	s := finalScore
	k := alignK
	cur := int32(m)
	for {
		c := tr.cell(CompM, s, k)
		if c < 0 {
			invariant.Failf("wfa", "linear backtrace lost cell (s=%d,k=%d)", s, k)
		}
		tag := CellOrigin(c)
		var pre int32
		switch tag {
		case lSub:
			pre = tr.cell(CompM, s-p.Mismatch, k)>>originBits + 1
		case lIns:
			pre = tr.cell(CompM, s-p.Gap, k-1)>>originBits + 1
		case lDel:
			pre = tr.cell(CompM, s-p.Gap, k+1) >> originBits
		default: // the initial cell
			pre = 0
		}
		for cur > pre {
			rev = append(rev, align.OpMatch)
			cur--
		}
		switch tag {
		case lSub:
			rev = append(rev, align.OpMismatch)
			cur--
			s -= p.Mismatch
		case lIns:
			rev = append(rev, align.OpInsert)
			cur--
			k--
			s -= p.Gap
		case lDel:
			rev = append(rev, align.OpDelete)
			k++
			s -= p.Gap
		default:
			if s != 0 || k != 0 || cur != 0 {
				invariant.Failf("wfa", "linear backtrace ended at (s=%d,k=%d,off=%d)", s, k, cur)
			}
			return reverseOps(rev)
		}
	}
}
