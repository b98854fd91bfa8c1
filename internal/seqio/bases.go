// Package seqio implements the data representations that cross the
// CPU/accelerator boundary in the WFAsic SoC:
//
//   - the DNA base alphabet and its 2-bit encoding used inside the
//     accelerator's Input_Seq RAMs (Section 4.2 of the paper: "the Extractor
//     module maps each base of one byte to two bits, so the blocks of 16
//     bases fit in four bytes"),
//   - the main-memory input-set image made of 16-byte sections (one header
//     section per pair carrying the alignment ID and both lengths, then the
//     padded base bytes of each sequence),
//   - a plain-text pair format used by the command-line tools.
package seqio

import (
	"errors"
	"fmt"
)

// SectionBytes is the width of the AXI-Full data bus and therefore of every
// memory section, FIFO word and DMA beat in the design.
const SectionBytes = 16

// BasesPerWord is the number of 2-bit packed bases in one 4-byte Input_Seq
// RAM word.
const BasesPerWord = 16

// The supported alphabet. 'N' (unknown) bases are representable in byte form
// but are rejected by the accelerator's Extractor (Section 4.2).
const (
	BaseA byte = 'A'
	BaseC byte = 'C'
	BaseG byte = 'G'
	BaseT byte = 'T'
	BaseN byte = 'N'
)

// Alphabet is the set of bases the accelerator accepts, in code order: the
// decode direction of baseCode.
var Alphabet = [4]byte{BaseA, BaseC, BaseG, BaseT}

// validBase marks a baseCode entry as a member of the alphabet; the low two
// bits of a marked entry are the base's 2-bit code.
const validBase = 4

// baseCode is the accelerator alphabet, indexed by base byte: ACGT in either
// case map to validBase|code, every other byte (including 'N') to 0. It is
// the repository's only definition of which bytes the Extractor accepts
// (Section 4.2); Code2Bit, ValidateSequence and the packers all index it
// inline.
var baseCode = [256]uint8{
	'A': validBase | 0, 'a': validBase | 0,
	'C': validBase | 1, 'c': validBase | 1,
	'G': validBase | 2, 'g': validBase | 2,
	'T': validBase | 3, 't': validBase | 3,
}

// ErrUnsupportedBase reports a byte outside the accelerator's alphabet.
var ErrUnsupportedBase = errors.New("seqio: unsupported base")

// unsupportedBase builds the rejection error for b, shared by every entry
// point that reads baseCode.
func unsupportedBase(b byte) error {
	return fmt.Errorf("%w: %q", ErrUnsupportedBase, b) //vet:allow hotalloc error construction on the reject path only
}

// Code2Bit returns the 2-bit code of a base byte: A=0, C=1, G=2, T=3.
// Lowercase input is accepted. Any other byte (including 'N') is an error.
func Code2Bit(b byte) (uint8, error) {
	if c := baseCode[b]; c != 0 {
		return c & 3, nil
	}
	return 0, unsupportedBase(b)
}

// Base2Bit returns the base byte for a 2-bit code (only the low two bits are
// used).
func Base2Bit(code uint8) byte {
	return Alphabet[code&3]
}

// ValidateSequence checks every byte of s against the accelerator alphabet
// and returns the index of the first offending byte.
func ValidateSequence(s []byte) error {
	for i, b := range s {
		if baseCode[b] == 0 {
			return fmt.Errorf("seqio: position %d: %w", i, unsupportedBase(b)) //vet:allow hotalloc error construction on the reject path only
		}
	}
	return nil
}

// CaseFolder maps the lowercase bases acgt to ACGT, the folding baseCode
// applies (both cases of a base share one 2-bit code), so a byte compare
// of folded reads agrees with the accelerator. Copies are made only of
// reads that hold a lowercase base, into one buffer the folder keeps from
// batch to batch. The zero value is ready to use; it is not safe for
// concurrent use.
type CaseFolder struct {
	buf []byte
}

// Reset starts a new batch. Copies made before it must no longer be used.
func (f *CaseFolder) Reset() { f.buf = f.buf[:0] }

// Fold returns seq with every lowercase base folded to uppercase: seq
// itself when it holds none, otherwise a copy valid until the next Reset.
// Every other byte is kept as it is, and seq is never written.
func (f *CaseFolder) Fold(seq []byte) []byte {
	i := 0
	for i < len(seq) && (seq[i] < 'a' || baseCode[seq[i]] == 0) {
		i++
	}
	if i == len(seq) {
		return seq
	}
	at := len(f.buf)
	f.buf = append(f.buf, seq...)
	folded := f.buf[at:len(f.buf):len(f.buf)]
	for j := i; j < len(folded); j++ {
		if c := folded[j]; c >= 'a' && baseCode[c] != 0 {
			folded[j] = c - ('a' - 'A')
		}
	}
	return folded
}

// Folded reports whether Fold has copied a read since the last Reset.
func (f *CaseFolder) Folded() bool { return len(f.buf) > 0 }

// PackWord packs up to 16 base bytes into one little-endian 4-byte Input_Seq
// RAM word: base i occupies bits [2i, 2i+2). Missing trailing bases pack as
// code 0.
func PackWord(bases []byte) (uint32, error) {
	if len(bases) > BasesPerWord {
		return 0, fmt.Errorf("seqio: PackWord got %d bases, max %d", len(bases), BasesPerWord) //vet:allow hotalloc error construction on the reject path only
	}
	var w uint32
	for i, b := range bases {
		c := baseCode[b]
		if c == 0 {
			return 0, unsupportedBase(b)
		}
		w |= uint32(c&3) << (2 * i)
	}
	return w, nil
}

// UnpackWord expands a packed word back into n base bytes (n <= 16).
func UnpackWord(w uint32, n int) []byte {
	if n > BasesPerWord {
		n = BasesPerWord
	}
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		out[i] = Base2Bit(uint8(w >> (2 * i)))
	}
	return out
}

// PackSequence packs a whole sequence into Input_Seq RAM words, 16 bases per
// word, with the final word zero-padded.
func PackSequence(s []byte) ([]uint32, error) {
	words := make([]uint32, 0, (len(s)+BasesPerWord-1)/BasesPerWord)
	return PackSequenceInto(words, s)
}

// PackSequenceInto is PackSequence appending into a caller-provided buffer
// (typically buf[:0] of a retained slice), so the steady-state load path can
// reuse one allocation across pairs.
func PackSequenceInto(words []uint32, s []byte) ([]uint32, error) {
	for i := 0; i < len(s); i += BasesPerWord {
		end := i + BasesPerWord
		if end > len(s) {
			end = len(s)
		}
		w, err := PackWord(s[i:end])
		if err != nil {
			return nil, fmt.Errorf("seqio: word %d: %w", len(words), err) //vet:allow hotalloc error construction on the reject path only
		}
		words = append(words, w) //vet:allow hotalloc appends into the caller's buffer, amortized across pairs
	}
	return words, nil
}

// UnpackSequence reverses PackSequence for a sequence of length n.
func UnpackSequence(words []uint32, n int) []byte {
	out := make([]byte, 0, n)
	for _, w := range words {
		take := n - len(out)
		if take <= 0 {
			break
		}
		if take > BasesPerWord {
			take = BasesPerWord
		}
		out = append(out, UnpackWord(w, take)...)
	}
	return out
}
