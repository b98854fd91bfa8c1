package bt

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/seqio"
)

// parityRecord is one line of the software WFA's parity golden
// (internal/wfa/testdata/parity.golden): a pair, its penalties and k_max,
// and the CIGAR the software recorded for it.
type parityRecord struct {
	name    string
	pen     align.Penalties
	maxK    int
	pair    seqio.Pair
	success bool
	score   int
	cigar   string
}

func undash(s string) string {
	if s == "-" {
		return ""
	}
	return s
}

func readParityGolden(t *testing.T) []parityRecord {
	t.Helper()
	raw, err := os.ReadFile("../wfa/testdata/parity.golden")
	if err != nil {
		t.Fatal(err)
	}
	var recs []parityRecord
	for i, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 7 {
			t.Fatalf("parity golden line %d: %d fields, want 7", i+1, len(f))
		}
		var pen [3]int
		for j, v := range strings.Split(f[1], ",") {
			if pen[j], err = strconv.Atoi(v); err != nil {
				t.Fatalf("parity golden line %d: penalties %q", i+1, f[1])
			}
		}
		maxK, err := strconv.Atoi(f[2])
		if err != nil {
			t.Fatalf("parity golden line %d: maxK %q", i+1, f[2])
		}
		bt := strings.Fields(f[6]) // ok score cigar stats...
		score, err := strconv.Atoi(bt[1])
		if err != nil {
			t.Fatalf("parity golden line %d: score %q", i+1, bt[1])
		}
		recs = append(recs, parityRecord{
			name:    f[0],
			pen:     align.Penalties{Mismatch: pen[0], GapOpen: pen[1], GapExtend: pen[2]},
			maxK:    maxK,
			pair:    seqio.Pair{ID: uint32(len(recs) + 1), A: []byte(undash(f[3])), B: []byte(undash(f[4]))},
			success: bt[0] == "true",
			score:   score,
			cigar:   undash(bt[2]),
		})
	}
	return recs
}

// parityConfig sizes a chip configuration to a golden record: its penalties,
// its k_max (an unclamped record gets a k_max no diagonal of the pair can
// reach) and Input_Seq RAMs that hold its longest read.
func parityConfig(r parityRecord) core.Config {
	cfg := core.ChipConfig()
	cfg.Penalties = r.pen
	longest := max(len(r.pair.A), len(r.pair.B), 16)
	cfg.MaxReadLenCap = (longest + 15) &^ 15
	cfg.KMax = r.maxK
	if cfg.KMax == 0 {
		cfg.KMax = longest
	}
	return cfg
}

// TestParityGoldenHardwareCIGARs replays every pair of the software parity
// golden through the simulated accelerator with backtrace enabled and
// decodes the origin stream on the CPU side: the decoded CIGAR must equal
// the recorded software CIGAR character for character, and a pair the
// software could not align must come back unsuccessful.
func TestParityGoldenHardwareCIGARs(t *testing.T) {
	recs := readParityGolden(t)
	for _, r := range recs {
		t.Run(r.name, func(t *testing.T) {
			cfg := parityConfig(r)
			set := &seqio.InputSet{Pairs: []seqio.Pair{r.pair}}
			raw, count := runBTJob(t, cfg, set)
			got, _, err := NewDecoder(cfg).DecodeRegion(raw, count, pairsByID(set), false)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 {
				t.Fatalf("decoded %d alignments, want 1", len(got))
			}
			res := got[0].Result
			if res.Success != r.success {
				t.Fatalf("success hw=%v sw=%v", res.Success, r.success)
			}
			if !r.success {
				return
			}
			if res.Score != r.score {
				t.Fatalf("score hw=%d sw=%d", res.Score, r.score)
			}
			if cig := res.CIGAR.String(); cig != r.cigar {
				t.Fatalf("CIGAR mismatch\n hw=%.200s\n sw=%.200s", cig, r.cigar)
			}
		})
	}
}
