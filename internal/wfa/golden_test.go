package wfa

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/seqgen"
)

var updateParity = flag.Bool("update", false, "rewrite testdata/parity.golden from the current kernel")

// parityGolden is the parity record: scores, CIGARs and Stats of the
// software WFA for a fixed set of pairs. Its line format is shared with
// internal/bt's hardware parity test, which replays the same pairs through
// the simulator:
//
//	name  x,o,e  maxK  a  b  ok score stats(score-only)  ok score cigar stats(CIGAR mode)
//
// Fields are tab-separated; an empty sequence or CIGAR is written as "-".
const parityGolden = "testdata/parity.golden"

// parityChipKMax is the chip's k_max; the profile pairs run under it, as the
// driver's software fallback does.
const parityChipKMax = 3998

type parityCase struct {
	name string
	pen  align.Penalties
	maxK int
	a, b []byte
}

func repeat(unit string, n int) []byte {
	return []byte(strings.Repeat(unit, n))
}

// parityCases builds the recorded pairs: seeded pairs from the six §5.3
// profiles, a few under other penalties and diagonal clamps, and
// low-complexity pairs (homopolymers, tandem repeats) whose equal-offset
// ties exercise every branch of the fixed tie-break order.
func parityCases() []parityCase {
	var cs []parityCase
	perProfile := map[int]int{100: 4, 1000: 2, 10000: 1}
	for pi, prof := range seqgen.PaperSets(1) {
		g := seqgen.New(2026, uint64(pi))
		for i := 0; i < perProfile[prof.Length]; i++ {
			p := g.Pair(uint32(i+1), prof.Length, prof.ErrorRate)
			cs = append(cs, parityCase{fmt.Sprintf("%s#%d", prof.Name, i), align.DefaultPenalties, parityChipKMax, p.A, p.B})
		}
	}

	g := seqgen.New(2026, 99)
	p100 := g.Pair(1, 100, 0.10)
	p1k := g.Pair(2, 1000, 0.10)
	cs = append(cs,
		parityCase{"100-10%/unclamped", align.DefaultPenalties, 0, p100.A, p100.B},
		parityCase{"1K-10%/unclamped", align.DefaultPenalties, 0, p1k.A, p1k.B},
		parityCase{"100-10%/pen(2,3,1)", align.Penalties{Mismatch: 2, GapOpen: 3, GapExtend: 1}, parityChipKMax, p100.A, p100.B},
		parityCase{"1K-10%/pen(1,0,1)", align.Penalties{Mismatch: 1, GapOpen: 0, GapExtend: 1}, parityChipKMax, p1k.A, p1k.B},
		parityCase{"1K-10%/pen(6,4,2)", align.Penalties{Mismatch: 6, GapOpen: 4, GapExtend: 2}, parityChipKMax, p1k.A, p1k.B},
		parityCase{"100-10%/kmax4", align.DefaultPenalties, 4, p100.A, p100.B},
		parityCase{"1K-10%/kmax8", align.DefaultPenalties, 8, p1k.A, p1k.B},
	)

	flank := func() []byte { return g.RandomSequence(20) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	f1, f2 := flank(), flank()
	tetra := repeat("ACGT", 30)
	tetraMut, _ := g.Mutate(tetra, 12)
	at := cat(f1, repeat("AT", 40), f2)
	atMut, _ := g.Mutate(at, 9)
	tandem1k := repeat("GATTACA", 143)
	tandem1kMut, _ := g.Mutate(tandem1k, 100)
	homo1kMut, _ := g.Mutate(repeat("C", 1000), 50)
	cs = append(cs,
		parityCase{"homopolymer/ins3", align.DefaultPenalties, parityChipKMax, repeat("A", 60), repeat("A", 63)},
		parityCase{"homopolymer/del3", align.DefaultPenalties, parityChipKMax, repeat("G", 63), repeat("G", 60)},
		parityCase{"homopolymer/mis+ins", align.DefaultPenalties, parityChipKMax, cat(repeat("A", 40), []byte("C"), repeat("A", 40)), repeat("A", 85)},
		parityCase{"homopolymer/all-mismatch", align.DefaultPenalties, parityChipKMax, repeat("A", 50), repeat("T", 50)},
		parityCase{"homopolymer/1K-5%", align.DefaultPenalties, parityChipKMax, homo1kMut, repeat("C", 1000)},
		parityCase{"tandem/AC-del", align.DefaultPenalties, parityChipKMax, repeat("AC", 50), cat(repeat("AC", 47), []byte("A"))},
		parityCase{"tandem/CAG-mis", align.DefaultPenalties, parityChipKMax, cat(repeat("CAG", 19), []byte("CTG"), repeat("CAG", 18)), repeat("CAG", 40)},
		parityCase{"tandem/ACGT-mut", align.DefaultPenalties, parityChipKMax, tetraMut, tetra},
		parityCase{"tandem/AT-flanked", align.DefaultPenalties, parityChipKMax, atMut, at},
		parityCase{"tandem/AT-flanked/pen(1,0,1)", align.Penalties{Mismatch: 1, GapOpen: 0, GapExtend: 1}, parityChipKMax, atMut, at},
		parityCase{"tandem/GATTACA-1K-10%", align.DefaultPenalties, parityChipKMax, tandem1kMut, tandem1k},
		parityCase{"identical", align.DefaultPenalties, parityChipKMax, p100.B, p100.B},
		parityCase{"empty-a", align.DefaultPenalties, parityChipKMax, nil, []byte("ACGTACGT")},
		parityCase{"empty-b", align.DefaultPenalties, parityChipKMax, []byte("ACGTACGT"), nil},
		parityCase{"empty-both", align.DefaultPenalties, parityChipKMax, nil, nil},
	)

	// Short low-complexity pairs whose CIGAR depends on each tie rule:
	// substitution over insertion, insertion over deletion, and gap-open
	// over gap-extend in both I~ and D~. Changing any one rule changes at
	// least one of these transcripts.
	pen231 := align.Penalties{Mismatch: 2, GapOpen: 3, GapExtend: 1}
	for _, c := range []struct {
		pen  align.Penalties
		a, b string
	}{
		{align.DefaultPenalties, "AC", "CAACACCCACA"},
		{align.DefaultPenalties, "CCGAACGAGCACCC", "CGCGGACA"},
		{align.DefaultPenalties, "CGGCAACCGGAGCG", "GGAAGCGGGGAAAA"},
		{align.DefaultPenalties, "GCCAAGCCG", "CAACGCAAACA"},
		{align.DefaultPenalties, "TAAAATATA", "ATTTTAT"},
		{align.DefaultPenalties, "TTAAATAAAATTT", "ATATTAAA"},
		{pen231, "AACAACCCCCACA", "CCAAACAACAC"},
		{pen231, "AATT", "ATATTTTAATTAT"},
		{pen231, "ACAC", "CACCAAACCCCA"},
		{pen231, "AGAAAACGGCA", "CCCGACGCCCGA"},
		{pen231, "CAG", "GGAGACA"},
		{pen231, "GGGAAAGGCGGCC", "GAA"},
	} {
		cs = append(cs, parityCase{"tie/" + c.a + "/" + c.b, c.pen, parityChipKMax, []byte(c.a), []byte(c.b)})
	}
	return cs
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func formatStats(st Stats) string {
	return fmt.Sprintf("%d %d %d %d %d %d %d %d %d %d",
		st.Score, st.ScoreSteps, st.NonEmptySteps, st.CellsComputed, st.CellsExtended,
		st.BasesCompared, st.Blocks16, st.MaxWavefront, st.SumWavefront, st.WavefrontBytes)
}

// renderParity runs every case in both modes, each on a fresh Aligner.
func renderParity(t *testing.T, cs []parityCase) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, c := range cs {
		scoreOnly, err := New(c.pen, Options{MaxK: c.maxK})
		if err != nil {
			t.Fatal(err)
		}
		withCIGAR, err := New(c.pen, Options{MaxK: c.maxK, WithCIGAR: true})
		if err != nil {
			t.Fatal(err)
		}
		rs := scoreOnly.Run(c.a, c.b)
		rc := withCIGAR.Run(c.a, c.b)
		fmt.Fprintf(&buf, "%s\t%d,%d,%d\t%d\t%s\t%s\t%v %d %s\t%v %d %s %s\n",
			c.name, c.pen.Mismatch, c.pen.GapOpen, c.pen.GapExtend, c.maxK,
			orDash(string(c.a)), orDash(string(c.b)),
			rs.Success, rs.Score, formatStats(scoreOnly.Stats),
			rc.Success, rc.Score, orDash(rc.CIGAR.String()), formatStats(withCIGAR.Stats))
	}
	return buf.Bytes()
}

// TestParityGolden reproduces the recorded parity file byte for byte: any
// change to a score, a CIGAR (including which of several co-optimal
// transcripts the tie-break order picks) or a work counter fails here.
func TestParityGolden(t *testing.T) {
	got := renderParity(t, parityCases())
	if *updateParity {
		if err := os.MkdirAll(filepath.Dir(parityGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(parityGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(parityGolden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			name, _, _ := strings.Cut(wl[i], "\t")
			t.Fatalf("parity golden differs at line %d (%s):\n got %.300s\nwant %.300s", i+1, name, gl[i], wl[i])
		}
	}
	t.Fatalf("parity golden has %d lines, want %d", len(gl), len(wl))
}

// TestParityGoldenReusedAligner re-runs the recorded cases through one
// Aligner per mode and penalty set, shuffled so narrow pairs follow wide
// ones, and checks each against a fresh Aligner: row reuse across pairs of
// different geometry must leave no trace.
func TestParityGoldenReusedAligner(t *testing.T) {
	cs := parityCases()
	type key struct {
		pen  align.Penalties
		maxK int
		bt   bool
	}
	reused := map[key]*Aligner{}
	for _, i := range rand.New(rand.NewPCG(14, 14)).Perm(len(cs)) {
		c := cs[i]
		for _, bt := range []bool{false, true} {
			k := key{c.pen, c.maxK, bt}
			al := reused[k]
			if al == nil {
				var err error
				if al, err = New(c.pen, Options{MaxK: c.maxK, WithCIGAR: bt}); err != nil {
					t.Fatal(err)
				}
				reused[k] = al
			}
			got := al.Run(c.a, c.b)
			want, wantSt, err := Align(c.a, c.b, c.pen, Options{MaxK: c.maxK, WithCIGAR: bt})
			if err != nil {
				t.Fatal(err)
			}
			if got.Success != want.Success || got.Score != want.Score ||
				got.CIGAR.String() != want.CIGAR.String() || al.Stats != wantSt {
				t.Fatalf("%s (cigar=%v): reused Aligner diverged from a fresh one", c.name, bt)
			}
		}
	}
}
