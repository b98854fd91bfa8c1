package wfa

import (
	"testing"

	"repro/internal/align"
	"repro/internal/integrity"
	"repro/internal/swg"
)

// fuzzMaxLen bounds each fuzzed read, so the O(n*m) reference stays cheap.
const fuzzMaxLen = 96

// bandedScore is the gap-affine DP of Equation 2 restricted to the cells
// with |j-i| <= kmax, the band a k_max clamp leaves the WFA. It returns
// false when no alignment stays inside the band.
func bandedScore(a, b []byte, p align.Penalties, kmax int) (int, bool) {
	const inf = 1 << 30
	n, m := len(a), len(b)
	x, oe, e := p.Mismatch, p.GapOpen+p.GapExtend, p.GapExtend
	row := func() []int {
		r := make([]int, m+1)
		for j := range r {
			r[j] = inf
		}
		return r
	}
	prevM, prevD := row(), row()
	for i := 0; i <= n; i++ {
		curM, curI, curD := row(), row(), row()
		for j := max(0, i-kmax); j <= min(m, i+kmax); j++ {
			if i == 0 && j == 0 {
				curM[0] = 0
				continue
			}
			if j > 0 {
				curI[j] = min(curM[j-1]+oe, curI[j-1]+e)
			}
			if i > 0 {
				curD[j] = min(prevM[j]+oe, prevD[j]+e)
			}
			best := min(curI[j], curD[j])
			if i > 0 && j > 0 {
				sub := prevM[j-1]
				if a[i-1] != b[j-1] {
					sub += x
				}
				best = min(best, sub)
			}
			curM[j] = min(best, inf)
		}
		prevM, prevD = curM, curD
	}
	return prevM[m], prevM[m] < inf
}

// FuzzWFAvsSWG is the differential check of the software WFA against the
// Smith-Waterman-Gotoh DP under arbitrary valid penalties and k_max clamps.
// Unclamped, the WFA must reach SWG's score. Clamped, it must reach the
// score of the DP restricted to the band |k| <= k_max, and fail exactly when
// that score is out of the band or above Equation 6's 2*k_max+4. Every
// CIGAR must pass the integrity layer's replay witness at the reported
// score. The wavefront kernel computes I~ and D~ over M~'s range, which
// relies on the gap ranges lying inside it under every clamp; this target
// is the guard for that argument.
func FuzzWFAvsSWG(f *testing.F) {
	f.Add([]byte("ACGTACGTTACG"), []byte("ACGTTCGTACG"), uint8(4), uint8(6), uint8(2), uint8(0))
	f.Add([]byte("AAAAAAAACCCC"), []byte("CCCCAAAAAAAA"), uint8(1), uint8(0), uint8(1), uint8(3))
	f.Add([]byte(""), []byte("GATTACA"), uint8(2), uint8(3), uint8(1), uint8(5))
	f.Fuzz(func(t *testing.T, ra, rb []byte, x, o, e, k uint8) {
		a, b := fuzzRead(ra), fuzzRead(rb)
		p := align.Penalties{Mismatch: 1 + int(x%8), GapOpen: int(o % 9), GapExtend: 1 + int(e%4)}
		kmax := int(k % 24) // 0: no clamp

		want, reachable := 0, true
		if kmax == 0 {
			want, _ = swg.Score(a, b, p)
		} else {
			want, reachable = bandedScore(a, b, p, kmax)
			reachable = reachable && want <= 2*kmax+4
		}
		for _, withCIGAR := range []bool{false, true} {
			res, _, err := Align(a, b, p, Options{WithCIGAR: withCIGAR, MaxK: kmax})
			if err != nil {
				t.Fatal(err)
			}
			if res.Success != reachable || (reachable && res.Score != want) {
				t.Fatalf("a=%q b=%q %+v kmax=%d cigar=%v: WFA %+v, reference score %d reachable %v",
					a, b, p, kmax, withCIGAR, res, want, reachable)
			}
			if withCIGAR && res.Success {
				if err := integrity.CheckCIGAR(res.CIGAR, a, b, res.Score, p); err != nil {
					t.Fatalf("a=%q b=%q %+v kmax=%d: CIGAR %s: %v", a, b, p, kmax, res.CIGAR, err)
				}
			}
		}
	})
}

// fuzzRead maps fuzzer bytes onto the ACGT alphabet, at most fuzzMaxLen of
// them, so that matches are common enough for extends to matter.
func fuzzRead(raw []byte) []byte {
	out := make([]byte, min(len(raw), fuzzMaxLen))
	for i := range out {
		out[i] = "ACGT"[raw[i]&3]
	}
	return out
}
