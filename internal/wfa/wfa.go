package wfa

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/align"
)

// Options configures one WFA run.
type Options struct {
	// WithCIGAR retains a compact copy of every wavefront and performs the
	// backtrace. When false only the dependency window of wavefronts is
	// kept (O(n+m) memory) and Result.CIGAR is nil. This mirrors the
	// accelerator's backtrace-enabled/disabled modes.
	WithCIGAR bool
	// MaxScore aborts the alignment once the score would exceed this bound,
	// returning Success=false — the accelerator's Equation 6 behaviour.
	// Zero means "no explicit bound" (a safe bound is derived from the
	// sequence lengths).
	MaxScore int
	// MaxK clamps the diagonal range to [-MaxK, MaxK], the hardware's k_max
	// design parameter (Section 4.3.1). Zero means unbounded.
	MaxK int
}

// Stats counts the algorithmic work of one alignment; the CPU cost model and
// the accelerator cycle model both consume these.
type Stats struct {
	Score          int   // final score (valid when Success)
	ScoreSteps     int64 // candidate scores visited by the main loop
	NonEmptySteps  int64 // scores with at least one non-empty wavefront
	CellsComputed  int64 // M~ frame-column cells computed (incl. invalid slots)
	CellsExtended  int64 // valid M~ cells passed to extend
	BasesCompared  int64 // base comparisons performed by extend (incl. failing one)
	Blocks16       int64 // 16-base comparator blocks (vector/hardware extend unit)
	MaxWavefront   int   // widest M~ wavefront seen
	SumWavefront   int64 // sum of M~ wavefront widths over all steps
	WavefrontBytes int64 // bytes of wavefront storage touched (memory-footprint model)
}

// Aligner runs the WFA. It is reusable across calls; it is not safe for
// concurrent use. Reuse is the point: the wavefront window, the backtrace
// trail and the backtrace scratch all persist across Run calls, so the
// steady state of AlignBatch (one Aligner per worker, thousands of pairs
// each) allocates only when a pair needs more capacity than any pair before
// it.
type Aligner struct {
	pen  align.Penalties
	opts Options

	win       Window // dependency window of padded rows (wavefront.go)
	trail     trail  // compact per-score copies for the backtrace
	btScratch []align.Op

	a, b   []byte
	n, m   int
	alignK int
	Stats  Stats
}

// New returns an Aligner for the penalty set. Invalid penalties — which can
// arrive from user input through the driver API — surface as an error, never
// as a panic.
func New(p align.Penalties, opts Options) (*Aligner, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("wfa: %w", err)
	}
	return newAligner(p, opts), nil
}

// newAligner skips validation; callers must have validated p already.
func newAligner(p align.Penalties, opts Options) *Aligner {
	return &Aligner{pen: p, opts: opts}
}

// Align is a convenience wrapper: one-shot alignment of a and b. A sequence
// longer than MaxSeqLen returns ErrTooLong.
func Align(a, b []byte, p align.Penalties, opts Options) (align.Result, Stats, error) {
	if err := checkLengths(len(a), len(b)); err != nil {
		return align.Result{}, Stats{}, err
	}
	al, err := New(p, opts)
	if err != nil {
		return align.Result{}, Stats{}, err
	}
	res := al.Run(a, b)
	return res, al.Stats, nil
}

// safeMaxScore derives a bound that any alignment is guaranteed to beat.
func safeMaxScore(n, m int, p align.Penalties) int {
	short, diff := n, m-n
	if m < n {
		short, diff = m, n-m
	}
	return p.Mismatch*short + p.GapCost(diff) + p.GapOpen + p.GapExtend + 1
}

// Run aligns a (query) against b (text) and returns the result. Stats are
// left in al.Stats. Neither sequence may be longer than MaxSeqLen, the
// longest offset a packed cell holds: Run reports such a pair as
// unsuccessful without aligning it (Align and AlignBatch return ErrTooLong).
func (al *Aligner) Run(a, b []byte) align.Result {
	al.a, al.b = a, b
	al.n, al.m = len(a), len(b)
	al.alignK = al.m - al.n
	al.Stats = Stats{}
	if checkLengths(al.n, al.m) != nil {
		return align.Result{Success: false}
	}

	maxScore := al.opts.MaxScore
	if maxScore <= 0 {
		maxScore = safeMaxScore(al.n, al.m, al.pen)
	}
	if al.opts.MaxK > 0 {
		// Equation 6: Score_max = k_max*2 + 4. A k_max too small for the
		// final diagonal makes the alignment unreachable; the run will hit
		// maxScore and report Success=false, as the hardware does.
		if eqScore := al.opts.MaxK*2 + 4; eqScore < maxScore {
			maxScore = eqScore
		}
	}

	window := al.pen.GapOpen + al.pen.GapExtend
	if al.pen.Mismatch > window {
		window = al.pen.Mismatch
	}
	al.win.Reset(al.n, al.m, al.opts.MaxK, al.pen)
	if al.opts.WithCIGAR {
		al.trail.reset()
	}

	// Initial condition M~(0,0) = 0, then extend (Section 2.3).
	m0 := al.win.Init()
	extendRow(al.a, al.b, m0, &al.Stats)
	al.record(al.win.Get(CompI, 0), al.win.Get(CompD, 0), m0)
	al.observe(m0)
	if m0.Reached(al.alignK, int32(al.m)) {
		res := align.Result{Score: 0, Success: true}
		al.Stats.Score = 0
		if al.opts.WithCIGAR {
			res.CIGAR = al.backtrace(0)
		}
		return res
	}

	emptyRun := 0
	for s := 1; s <= maxScore; s++ {
		al.Stats.ScoreSteps++
		iw, dw, mw := al.win.Step(s, al.pen)
		if mw.Len() == 0 {
			al.record(iw, dw, mw)
			emptyRun++
			if emptyRun > window {
				// Nothing in the dependency window: no wavefront can ever
				// be generated again. Unreachable goal (possible only under
				// a MaxK clamp).
				break
			}
			continue
		}
		emptyRun = 0
		al.Stats.NonEmptySteps++
		al.Stats.CellsComputed += int64(mw.Len())
		extendRow(al.a, al.b, mw, &al.Stats)
		al.record(iw, dw, mw)
		al.observe(mw)
		if mw.Reached(al.alignK, int32(al.m)) {
			al.Stats.Score = s
			res := align.Result{Score: s, Success: true}
			if al.opts.WithCIGAR {
				res.CIGAR = al.backtrace(s)
			}
			return res
		}
	}
	return align.Result{Success: false}
}

// record appends the current score's rows to the backtrace trail in CIGAR
// mode.
func (al *Aligner) record(iw, dw, mw *Wavefront) {
	if al.opts.WithCIGAR {
		al.trail.record(iw, dw, mw)
	}
}

// observe records per-step statistics.
func (al *Aligner) observe(mwf *Wavefront) {
	w := mwf.Len()
	if w > al.Stats.MaxWavefront {
		al.Stats.MaxWavefront = w
	}
	al.Stats.SumWavefront += int64(w)
	al.Stats.WavefrontBytes += int64(w) * 15 // 3 components x (4B offset + 1B tag)
}

// extendRow advances every valid cell of w along its diagonal while bases
// match (the extend() operator of Section 2.3), counting comparator work.
// It is the software extend step of both the gap-affine and the gap-linear
// aligner. Bases are compared eight bytes at a time, as one XOR of two
// little-endian words whose lowest set bit names the first differing byte,
// and byte by byte within eight of a sequence end; either way the count is
// of equal bytes. The counters are kept in locals and added to st once.
func extendRow(a, b []byte, w *Wavefront, st *Stats) {
	n, m := int32(len(a)), int32(len(b))
	var extended, compared, blocks int64
	cells := w.written()
	for idx, c := range cells {
		if c < 0 {
			continue
		}
		extended++
		j := c >> originBits
		i := j - int32(w.Lo+idx)
		start := j
		for i < n && j < m {
			if i+8 <= n && j+8 <= m {
				x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[j:])
				if x == 0 {
					i, j = i+8, j+8
					continue
				}
				d := int32(bits.TrailingZeros64(x) / 8)
				i, j = i+d, j+d
				break
			}
			if a[i] != b[j] {
				break
			}
			i++
			j++
		}
		run := j - start
		if i < n && j < m {
			run++ // the failing comparison
		}
		compared += int64(run)
		// Hardware/vector comparator: 16 bases per block, at least one
		// block per extended cell (Section 4.3.2).
		blocks += int64(run/16) + 1
		cells[idx] = j<<originBits | c&originMask
	}
	st.CellsExtended += extended
	st.BasesCompared += compared
	st.Blocks16 += blocks
}
