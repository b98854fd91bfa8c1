package seqio

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

// TestCode2Bit checks all 256 byte values against the documented
// accelerator alphabet — A, C, G, T in either case, codes 0-3, everything
// else rejected — through Code2Bit and every other entry point that reads
// the alphabet table, including the exact error text and the reported
// position, and checks that Base2Bit inverts each accepted code.
func TestCode2Bit(t *testing.T) {
	for v := 0; v < 256; v++ {
		b := byte(v)
		want := strings.IndexByte("ACGT", b)
		if want < 0 {
			want = strings.IndexByte("acgt", b)
		}
		code, err := Code2Bit(b)
		if want >= 0 {
			if err != nil || int(code) != want {
				t.Errorf("Code2Bit(%q) = %d, %v; want %d", b, code, err, want)
			}
			if got := Base2Bit(code); got != "ACGT"[want] {
				t.Errorf("Base2Bit(%d) = %q, want %q", code, got, "ACGT"[want])
			}
			if err := ValidateSequence([]byte{'A', 'c', b}); err != nil {
				t.Errorf("ValidateSequence rejected %q: %v", b, err)
			}
			if w, err := PackWord([]byte{'C', b}); err != nil || w != 1|uint32(want)<<2 {
				t.Errorf("PackWord(C%q) = %#x, %v; want %#x", b, w, err, 1|uint32(want)<<2)
			}
			continue
		}
		wantErr := fmt.Sprintf("seqio: unsupported base: %q", b)
		if err == nil || !errors.Is(err, ErrUnsupportedBase) || err.Error() != wantErr {
			t.Errorf("Code2Bit(%q) = %d, %v; want error %q", b, code, err, wantErr)
		}
		err = ValidateSequence([]byte{'A', 'c', b, 'G'})
		if wantPos := "seqio: position 2: " + wantErr; err == nil || !errors.Is(err, ErrUnsupportedBase) || err.Error() != wantPos {
			t.Errorf("ValidateSequence(Ac%qG) = %v; want %q", b, err, wantPos)
		}
		if _, err := PackWord([]byte{'C', b}); err == nil || err.Error() != wantErr {
			t.Errorf("PackWord(C%q) = %v; want %q", b, err, wantErr)
		}
		wantWord := "seqio: word 1: " + wantErr
		if _, err := PackSequence(append(bytes.Repeat([]byte("T"), BasesPerWord), b)); err == nil || err.Error() != wantWord {
			t.Errorf("PackSequence(T*16 %q) = %v; want %q", b, err, wantWord)
		}
	}
}

func TestPackUnpackWord(t *testing.T) {
	seq := []byte("ACGTACGTACGTACGT")
	w, err := PackWord(seq)
	if err != nil {
		t.Fatal(err)
	}
	if got := UnpackWord(w, 16); !bytes.Equal(got, seq) {
		t.Fatalf("round trip: %s", got)
	}
	// Partial word.
	w, err = PackWord([]byte("TG"))
	if err != nil {
		t.Fatal(err)
	}
	if got := UnpackWord(w, 2); !bytes.Equal(got, []byte("TG")) {
		t.Fatalf("partial round trip: %s", got)
	}
	if _, err := PackWord(bytes.Repeat([]byte("A"), 17)); err == nil {
		t.Error("PackWord accepted 17 bases")
	}
	if _, err := PackWord([]byte("AN")); err == nil {
		t.Error("PackWord accepted N")
	}
}

func TestPackSequenceRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 1))
		n := r.IntN(500)
		seq := make([]byte, n)
		for i := range seq {
			seq[i] = Alphabet[r.IntN(4)]
		}
		words, err := PackSequence(seq)
		if err != nil {
			return false
		}
		if len(words) != (n+15)/16 {
			return false
		}
		return bytes.Equal(UnpackSequence(words, n), seq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundReadLen(t *testing.T) {
	cases := map[int]int{0: 16, 1: 16, 16: 16, 17: 32, 9010: 9024, 10000: 10000}
	for in, want := range cases {
		if got := RoundReadLen(in); got != want {
			t.Errorf("RoundReadLen(%d)=%d want %d", in, got, want)
		}
	}
}

func TestImageRoundTrip(t *testing.T) {
	set := &InputSet{Pairs: []Pair{
		{ID: 7, A: []byte("ACGT"), B: []byte("ACGTT")},
		{ID: 8, A: []byte("GGGG"), B: []byte("G")},
		{ID: 900000, A: bytes.Repeat([]byte("ACGT"), 25), B: bytes.Repeat([]byte("TGCA"), 24)},
	}}
	img, err := set.BuildImage()
	if err != nil {
		t.Fatal(err)
	}
	ml := set.EffectiveMaxReadLen()
	if ml != 112 {
		t.Fatalf("EffectiveMaxReadLen=%d want 112", ml)
	}
	if len(img) != set.ImageBytes() {
		t.Fatalf("image %dB, ImageBytes says %d", len(img), set.ImageBytes())
	}
	back, err := ParseImage(img, ml, len(set.Pairs))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range set.Pairs {
		q := back.Pairs[i]
		if q.ID != p.ID || !bytes.Equal(q.A, p.A) || !bytes.Equal(q.B, p.B) {
			t.Errorf("pair %d: got %+v want %+v", i, q, p)
		}
	}
}

func TestImageSectionLayout(t *testing.T) {
	// One pair, MAX_READ_LEN 16: header + 1 section per sequence.
	set := &InputSet{Pairs: []Pair{{ID: 3, A: []byte("AC"), B: []byte("GT")}}, MaxReadLen: 16}
	img, err := set.BuildImage()
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != 3*SectionBytes {
		t.Fatalf("image %dB want %d", len(img), 3*SectionBytes)
	}
	if img[0] != 3 || img[4] != 2 || img[8] != 2 {
		t.Fatalf("header bytes wrong: % x", img[:16])
	}
	if img[16] != 'A' || img[17] != 'C' || img[18] != DummyBase {
		t.Fatalf("sequence a section wrong: % x", img[16:32])
	}
	if img[32] != 'G' || img[33] != 'T' {
		t.Fatalf("sequence b section wrong: % x", img[32:48])
	}
}

func TestImageOverLengthPreservesDeclaredLength(t *testing.T) {
	long := bytes.Repeat([]byte("A"), 40)
	set := &InputSet{Pairs: []Pair{{ID: 1, A: long, B: []byte("ACGT")}}, MaxReadLen: 16}
	img, err := set.BuildImage()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseImage(img, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Pairs[0].A) != 40 {
		t.Fatalf("declared length lost: %d", len(back.Pairs[0].A))
	}
}

func TestParseImageErrors(t *testing.T) {
	if _, err := ParseImage(make([]byte, 10), 16, 1); err == nil {
		t.Error("short image accepted")
	}
	if _, err := ParseImage(make([]byte, 160), 15, 1); err == nil {
		t.Error("unaligned MAX_READ_LEN accepted")
	}
}

func TestPairsTextRoundTrip(t *testing.T) {
	set := &InputSet{Pairs: []Pair{
		{ID: 0, A: []byte("ACGT"), B: []byte("AGT")},
		{ID: 12, A: []byte("T"), B: []byte("T")},
	}}
	var buf bytes.Buffer
	if err := WritePairs(&buf, set); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPairs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Pairs) != 2 {
		t.Fatalf("got %d pairs", len(back.Pairs))
	}
	for i := range set.Pairs {
		if back.Pairs[i].ID != set.Pairs[i].ID ||
			!bytes.Equal(back.Pairs[i].A, set.Pairs[i].A) ||
			!bytes.Equal(back.Pairs[i].B, set.Pairs[i].B) {
			t.Errorf("pair %d mismatch", i)
		}
	}
	// Comments and blank lines are skipped; malformed lines rejected.
	if _, err := ReadPairs(bytes.NewBufferString("# comment\n\n1\tACGT\tAC\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPairs(bytes.NewBufferString("1,ACGT,AC\n")); err == nil {
		t.Error("malformed line accepted")
	}
}

func TestPairSections(t *testing.T) {
	if got := PairSections(10000); got != 1+2*625 {
		t.Fatalf("PairSections(10000)=%d", got)
	}
	if got := PairSections(16); got != 3 {
		t.Fatalf("PairSections(16)=%d", got)
	}
}

// TestCaseFolder: lowercase bases fold to uppercase in a copy, every other
// byte is kept, a read without lowercase bases is not copied, the input
// reads are never written, and copies of one batch stay intact as the
// buffer grows.
func TestCaseFolder(t *testing.T) {
	var f CaseFolder
	upper := []byte("ACGTNACGT")
	if got := f.Fold(upper); &got[0] != &upper[0] || f.Folded() {
		t.Fatalf("a read without lowercase bases was copied: %q", got)
	}

	first := []byte("acgTnx")
	second := bytes.Repeat([]byte("ttGa"), 64)
	a := f.Fold(first)
	b := f.Fold(second)
	if string(a) != "ACGTnx" || string(b) != strings.Repeat("TTGA", 64) || !f.Folded() {
		t.Fatalf("folded %q and %q", a, b)
	}
	if string(first) != "acgTnx" || string(second) != strings.Repeat("ttGa", 64) {
		t.Fatalf("the input reads changed: %q, %q", first, second)
	}
	if cap(a) != len(a) {
		t.Fatalf("a folded copy has spare capacity %d: an append to it would write into the buffer", cap(a)-len(a))
	}
	f.Reset()
	if f.Folded() {
		t.Fatal("Folded after Reset")
	}
	if got := f.Fold([]byte("gattaca")); string(got) != "GATTACA" {
		t.Fatalf("folded %q after Reset", got)
	}
}
