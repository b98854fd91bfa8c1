package wfa

import (
	"errors"
	"testing"

	"repro/internal/align"
	"repro/internal/seqio"
)

// TestCheckLengthsBoundary pins the length guard to the packed cell's
// offset field: MaxSeqLen itself is accepted, one base more is not, on
// either side of the pair.
func TestCheckLengthsBoundary(t *testing.T) {
	for _, c := range []struct {
		n, m int
		ok   bool
	}{
		{0, 0, true},
		{MaxSeqLen, MaxSeqLen, true},
		{MaxSeqLen + 1, 0, false},
		{0, MaxSeqLen + 1, false},
		{MaxSeqLen + 1, MaxSeqLen + 1, false},
	} {
		if err := checkLengths(c.n, c.m); (err == nil) != c.ok || (err != nil && !errors.Is(err, ErrTooLong)) {
			t.Errorf("checkLengths(%d, %d) = %v, want ok=%v", c.n, c.m, err, c.ok)
		}
	}
}

// TestPackedCellHoldsMaxSeqLen shows why the limit sits where it does: the
// largest accepted offset packs with every origin tag and reads back
// intact and valid, and the kernel's trim turns the one-past-the-end
// offset a +1 could produce into InvalidCell rather than a wrapped cell.
func TestPackedCellHoldsMaxSeqLen(t *testing.T) {
	for tag := uint8(0); tag <= MTagDExt; tag++ {
		c := Pack(MaxSeqLen, tag)
		if !CellValid(c) || CellOffset(c) != MaxSeqLen || CellOrigin(c) != tag {
			t.Fatalf("Pack(MaxSeqLen, %d) = %#x reads back offset %d origin %d valid %v",
				tag, c, CellOffset(c), CellOrigin(c), CellValid(c))
		}
	}
	if CellValid(InvalidCell) || CellOrigin(InvalidCell) != 0 {
		t.Fatal("InvalidCell must be invalid with zero origin bits")
	}
	if got := trim(Pack(MaxSeqLen+1, MTagSub), MaxSeqLen+1, 0, MaxSeqLen, MaxSeqLen); got != InvalidCell {
		t.Fatalf("trim of offset MaxSeqLen+1 = %#x, want InvalidCell", got)
	}
}

// TestOverlongInputRejected feeds a sequence one base past the limit to
// every entry point. The input is a 256 MiB read-only mapping that is never
// touched, so the test costs no resident memory; on platforms without one
// it is skipped. The small k_max bounds the rows and the score budget, so
// a broken guard fails the test instead of aligning 256 MiB.
func TestOverlongInputRejected(t *testing.T) {
	long := overlongSequence(t)
	if len(long) != MaxSeqLen+1 {
		t.Fatalf("mapping has %d bytes, want %d", len(long), MaxSeqLen+1)
	}
	short := []byte("ACGT")
	for _, opts := range []Options{{MaxK: 8}, {MaxK: 8, WithCIGAR: true}} {
		if _, _, err := Align(long, short, align.DefaultPenalties, opts); !errors.Is(err, ErrTooLong) {
			t.Errorf("Align(long, short, %+v) error = %v, want ErrTooLong", opts, err)
		}
		if _, _, err := Align(short, long, align.DefaultPenalties, opts); !errors.Is(err, ErrTooLong) {
			t.Errorf("Align(short, long, %+v) error = %v, want ErrTooLong", opts, err)
		}
		al, err := New(align.DefaultPenalties, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res := al.Run(short, long); res.Success {
			t.Errorf("Run(short, long, %+v) succeeded", opts)
		}
		if res := al.Run(short, short); !res.Success || res.Score != 0 {
			t.Errorf("Run after an over-long pair: %+v", res)
		}
		pairs := []seqio.Pair{{ID: 1, A: short, B: short}, {ID: 2, A: short, B: long}}
		if _, err := AlignBatch(pairs, align.DefaultPenalties, opts, 2); !errors.Is(err, ErrTooLong) {
			t.Errorf("AlignBatch with an over-long pair, %+v: error = %v, want ErrTooLong", opts, err)
		}
	}
}
