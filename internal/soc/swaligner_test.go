package soc

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/seqgen"
	"repro/internal/seqio"
)

// swMixedPairs builds pairs that hit every branch of the software rule:
// ordinary alignable pairs, reads over the cap, reads with an unknown base,
// and pairs whose error rate or length difference runs past the k_max
// window.
func swMixedPairs(n int) []seqio.Pair {
	g := seqgen.New(31, 37)
	lengths := []int{0, 1, 40, 90, 150, 200, 260}
	rates := []float64{0, 0.02, 0.05, 0.1, 0.2, 0.35}
	pairs := make([]seqio.Pair, n)
	for i := range pairs {
		p := g.Pair(uint32(i+1), lengths[i%len(lengths)], rates[(i/len(lengths))%len(rates)])
		switch i % 5 {
		case 3:
			if len(p.A) > 0 {
				p.A = append([]byte(nil), p.A...)
				p.A[len(p.A)/2] = 'N'
			}
		case 4:
			// Length mismatch past k_max: the final diagonal is out of reach.
			p.B = append(append([]byte(nil), p.B...), g.RandomSequence(12)...)
		}
		pairs[i] = p
	}
	return pairs
}

// TestSoftwareAlignerMatchesSoftwareAlign: a reused SoftwareAligner must give
// exactly SoftwareAlign's result and stats pair by pair, with score-only and
// CIGAR calls interleaved on the same instance.
func TestSoftwareAlignerMatchesSoftwareAlign(t *testing.T) {
	cfg := core.ChipConfig()
	cfg.MaxReadLenCap = 224
	cfg.KMax = 10
	invalid := cfg
	invalid.Penalties.Mismatch = 0

	for _, c := range []struct {
		name string
		cfg  core.Config
	}{{"chip-small", cfg}, {"invalid-penalties", invalid}} {
		sa := NewSoftwareAligner(c.cfg)
		kinds := map[string]int{}
		for i, p := range swMixedPairs(210) {
			withCIGAR := i%3 == 1 || i%7 == 0
			want, wantStats := SoftwareAlign(c.cfg, p, withCIGAR)
			got, gotStats := sa.Align(p, withCIGAR)
			if !reflect.DeepEqual(got, want) || gotStats != wantStats {
				t.Fatalf("%s pair %d (cigar=%v): reused %+v %+v, one-shot %+v %+v",
					c.name, i, withCIGAR, got, gotStats, want, wantStats)
			}
			switch {
			case len(p.A) > c.cfg.MaxReadLenCap || len(p.B) > c.cfg.MaxReadLenCap:
				kinds["over-cap"]++
			case seqio.ValidateSequence(p.A) != nil:
				kinds["unsupported"]++
			case !want.Success:
				kinds["failed"]++
			case withCIGAR:
				kinds["cigar"]++
			default:
				kinds["score"]++
			}
		}
		if c.name == "invalid-penalties" && kinds["cigar"]+kinds["score"] != 0 {
			t.Errorf("%s: %d pairs aligned; invalid penalties must fail every pair", c.name, kinds["cigar"]+kinds["score"])
		}
		if c.name == "chip-small" {
			for _, k := range []string{"over-cap", "unsupported", "failed", "cigar", "score"} {
				if kinds[k] == 0 {
					t.Errorf("%s: no %s pairs; the mix no longer covers every branch (%v)", c.name, k, kinds)
				}
			}
		}
	}
}

// TestSoftwareAlignerScoreOnlyZeroAlloc pins the point of reuse: once warmed,
// score-only pairs on a SoftwareAligner allocate nothing.
func TestSoftwareAlignerScoreOnlyZeroAlloc(t *testing.T) {
	g := seqgen.New(7, 9)
	pairs := make([]seqio.Pair, 16)
	for i := range pairs {
		pairs[i] = g.Pair(uint32(i+1), 1000, 0.05)
	}
	sa := NewSoftwareAligner(core.ChipConfig())
	sweep := func() {
		for _, p := range pairs {
			if res, _ := sa.Align(p, false); !res.Success {
				t.Fatal("alignment failed")
			}
		}
	}
	warmed := false
	for i := 0; i < 16 && !warmed; i++ {
		warmed = testing.AllocsPerRun(1, sweep) == 0
	}
	if !warmed {
		t.Fatal("warm-up sweeps kept allocating")
	}
	if allocs := testing.AllocsPerRun(4, sweep) / float64(len(pairs)); allocs != 0 {
		t.Errorf("score-only SoftwareAligner.Align allocated %v objects per pair, want 0", allocs)
	}
}
