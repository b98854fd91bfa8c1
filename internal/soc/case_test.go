package soc

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/integrity"
	"repro/internal/seqgen"
	"repro/internal/seqio"
)

// mixedCase returns a copy of seq with the bases at every position p where
// (p+salt)%3 == 0 lowered.
func mixedCase(seq []byte, salt int) []byte {
	out := bytes.Clone(seq)
	for p := range out {
		if (p+salt)%3 == 0 {
			out[p] += 'a' - 'A'
		}
	}
	return out
}

// TestMixedCasePairsAgree: the Extractor's 2-bit code folds case, so a pair
// must score and align the same in any mix of cases on the device, in the
// software fallback and in the CIGAR witness. A mixed-case pair must get
// exactly the answer of its uppercase twin everywhere, and the caller's
// sequences must come back untouched.
func TestMixedCasePairsAgree(t *testing.T) {
	cfg := core.ChipConfig()
	cfg.MaxReadLenCap = 256
	g := seqgen.New(97, 98)
	var upper, mixed seqio.InputSet
	for i := 0; i < 6; i++ {
		p := g.Pair(uint32(i+1), 40+30*i, 0.08)
		upper.Pairs = append(upper.Pairs, p)
		q := p
		switch i % 3 {
		case 0: // both reads mixed
			q.A, q.B = mixedCase(p.A, i), mixedCase(p.B, i+1)
		case 1: // one read all lowercase
			q.A = bytes.ToLower(p.A)
		case 2: // the other read mixed
			q.B = mixedCase(p.B, i)
		}
		mixed.Pairs = append(mixed.Pairs, q)
	}
	saved := make([]seqio.Pair, len(mixed.Pairs))
	for i, q := range mixed.Pairs {
		saved[i] = seqio.Pair{ID: q.ID, A: bytes.Clone(q.A), B: bytes.Clone(q.B)}
	}

	sa := NewSoftwareAligner(cfg)
	for i, q := range mixed.Pairs {
		for _, withCIGAR := range []bool{false, true} {
			want, wantStats := SoftwareAlign(cfg, upper.Pairs[i], withCIGAR)
			got, gotStats := sa.Align(q, withCIGAR)
			if !want.Success || !reflect.DeepEqual(got, want) || gotStats != wantStats {
				t.Fatalf("pair %d (cigar=%v): software %+v %+v on mixed case, %+v %+v on uppercase",
					i, withCIGAR, got, gotStats, want, wantStats)
			}
		}
	}

	for _, bt := range []bool{false, true} {
		s, err := New(cfg, 8<<20)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.RunResilient(&mixed, ResilientOptions{
			Backtrace: bt,
			Verify:    integrity.Policy{Mode: integrity.ModeFull},
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.HardwarePairs != len(mixed.Pairs) || rep.WitnessRejects != 0 || rep.ShadowMismatches != 0 {
			t.Fatalf("bt=%v: %d of %d pairs from the device, %d witness rejects, %d shadow mismatches",
				bt, rep.HardwarePairs, len(mixed.Pairs), rep.WitnessRejects, rep.ShadowMismatches)
		}
		for i, o := range rep.Outcomes {
			want, _ := SoftwareAlign(cfg, upper.Pairs[i], bt)
			if !reflect.DeepEqual(o.Result, want) {
				t.Fatalf("bt=%v pair %d: device %+v, uppercase software %+v", bt, i, o.Result, want)
			}
		}
	}
	if !reflect.DeepEqual(mixed.Pairs, saved) {
		t.Fatal("aligning changed the caller's sequences")
	}
}
