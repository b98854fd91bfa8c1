package core

import (
	"math/bits"

	"repro/internal/seqio"
)

// SeqRAM is one Input_Seq RAM image (Section 4.2): "Alignment ID is stored
// in address 0, length in address 1, and sequence bases from address 2
// onward", four bytes wide, 16 bases packed per word. The model keeps the
// base words in a slice and the header fields alongside.
type SeqRAM struct {
	ID     uint32
	Length int
	// Words holds the 2-bit packed bases, 16 per word. Its capacity always
	// extends two zero words past its length, the sentinel padding that lets
	// Window16 fetch a word pair without range checks.
	Words []uint32
}

// LoadSeqRAM packs a byte sequence into a SeqRAM. A base outside the
// accelerator alphabet (e.g. 'N') is an error.
func LoadSeqRAM(id uint32, seq []byte) (*SeqRAM, error) {
	r := &SeqRAM{}
	if err := LoadSeqRAMInto(r, id, seq); err != nil {
		return nil, err
	}
	return r, nil
}

// LoadSeqRAMInto packs a byte sequence into dst, reusing dst's word storage.
// The Extractor loads each pair into its target Aligner's retained SeqRAMs
// through this form, so dispatching allocates nothing once the buffers have
// grown to the job's read length. A base outside the accelerator alphabet
// is an error, and the Extractor relies on it as its one alphabet check per
// read; dst must then not be used until a later load succeeds.
func LoadSeqRAMInto(dst *SeqRAM, id uint32, seq []byte) error {
	words, err := seqio.PackSequenceInto(dst.Words[:0], seq)
	if err != nil {
		return err
	}
	words = append(words, 0, 0) //vet:allow hotalloc sentinel padding in the retained word buffer, amortized across pairs
	dst.ID = id
	dst.Length = len(seq)
	dst.Words = words[:len(words)-2]
	return nil
}

// Window16 assembles the 16-base window starting at base position pos, the
// REG_1/REG_2 concatenate-and-shift of the Extend sub-module (Figure 7):
// two consecutive RAM words are fetched, concatenated to 64 bits and shifted
// so the starting base lands in the least-significant position. Bases past
// the end of the stored sequence read as zero, from the two padding words;
// pos must not exceed the sequence length.
func (r *SeqRAM) Window16(pos int) uint32 {
	p := uint(pos)
	w := r.Words[p/seqio.BasesPerWord:][:2]
	sh := 2 * (p % seqio.BasesPerWord)
	return uint32((uint64(w[1])<<32 | uint64(w[0])) >> sh)
}

// ExtendResult reports one Extend sub-module run for a single cell.
type ExtendResult struct {
	Matches int // contiguous matching bases found
	Blocks  int // 16-base comparator iterations consumed (>= 1)
}

// extendBlocks is the comparator's block count for a run of matches: the
// unit compares 16 bases per block and stops in the block that holds the
// mismatch or the sequence end, so a run of r matches takes r/16+1 blocks
// (a run that ends exactly on a block edge takes one more block to see the
// end). This is the one place the count is derived.
func extendBlocks(matches int) int { return matches/16 + 1 }

// ExtendDiag runs the Extend sub-module: starting at position i of sequence
// a and j of sequence b, compare 16-base blocks per cycle until a mismatch
// or a sequence end (Section 4.3.2). It is the hardware counterpart of the
// software extend() in internal/wfa; the integration tests assert both
// produce identical offsets.
func ExtendDiag(a, b *SeqRAM, i, j int) ExtendResult {
	matches := extendRun(a, b, i, j)
	return ExtendResult{Matches: matches, Blocks: extendBlocks(matches)}
}

// extendRun counts the matching bases from position i of a and j of b, one
// 16-base block at a time. It is the only multi-block compare loop; the
// Aligner tries a cell's first block inline and calls it only for a run
// that fills that block.
func extendRun(a, b *SeqRAM, i, j int) int {
	matches := 0
	rem := min(a.Length-i, b.Length-j)
	for ; rem >= 16; rem -= 16 {
		if x := a.Window16(i) ^ b.Window16(j); x != 0 {
			return matches + bits.TrailingZeros32(x)/2
		}
		matches += 16
		i += 16
		j += 16
	}
	if rem > 0 {
		// The block straddles a sequence end: compare only rem bases.
		if x := (a.Window16(i) ^ b.Window16(j)) & (1<<(2*rem) - 1); x != 0 {
			return matches + bits.TrailingZeros32(x)/2
		}
		matches += rem
	}
	return matches
}
