// Package mapper implements the read-mapping pipeline of the paper's
// Section 2.1 — "Read mapping includes two main steps. First, the Seeding
// step filters the possible locations of the query sequences in the
// reference genome; then, the seed extension step performs the pairwise read
// alignment of the query sequences to the candidate locations" — as the
// application substrate WFAsic plugs into. Seeding is a k-mer hash index
// with diagonal voting; seed extension is exact gap-affine alignment, run
// either in software (internal/wfa) or on the simulated accelerator through
// the SoC (the Section 1 integration story: "Integrating the WFAsic
// accelerator with the CPU in the same SoC provides great benefits to
// genomics applications").
package mapper

import (
	"fmt"
	"sort"

	"repro/internal/seqio"
)

// Index is a k-mer hash index over one reference sequence.
type Index struct {
	K   int
	Ref []byte
	// buckets maps the 2-bit packed k-mer to its reference positions.
	buckets map[uint64][]int32
}

// BuildIndex indexes every k-mer of the reference (k <= 31; the reference
// must be over the ACGT alphabet).
func BuildIndex(ref []byte, k int) (*Index, error) {
	if k < 4 || k > 31 {
		return nil, fmt.Errorf("mapper: k=%d outside [4,31]", k)
	}
	if len(ref) < k {
		return nil, fmt.Errorf("mapper: reference of %d bases shorter than k=%d", len(ref), k)
	}
	ix := &Index{K: k, Ref: ref, buckets: make(map[uint64][]int32)}
	mask := uint64(1)<<(2*k) - 1
	var kmer uint64
	for i := 0; i < len(ref); i++ {
		code, err := seqio.Code2Bit(ref[i])
		if err != nil {
			return nil, fmt.Errorf("mapper: reference: position %d: %w", i, err)
		}
		kmer = (kmer<<2 | uint64(code)) & mask
		if i >= k-1 {
			ix.buckets[kmer] = append(ix.buckets[kmer], int32(i-k+1))
		}
	}
	return ix, nil
}

// Lookup returns the reference positions of one k-mer (nil if absent or the
// k-mer contains unsupported bases).
func (ix *Index) Lookup(kmer []byte) []int32 {
	if len(kmer) != ix.K {
		return nil
	}
	var packed uint64
	for _, b := range kmer {
		code, err := seqio.Code2Bit(b)
		if err != nil {
			return nil
		}
		packed = packed<<2 | uint64(code)
	}
	return ix.buckets[packed]
}

// Candidate is one voted mapping location.
type Candidate struct {
	RefStart int // predicted start of the read on the reference
	Votes    int // seeds agreeing with this diagonal
}

// Candidates seeds the read every `stride` bases, looks each seed up, and
// votes by diagonal (refPos - readOffset). It returns up to maxCandidates
// candidates, highest vote count first. Diagonals within `slack` bases merge
// into one candidate (indels shift the diagonal slightly).
func (ix *Index) Candidates(read []byte, stride, maxCandidates, slack int) []Candidate {
	if stride < 1 {
		stride = 1
	}
	if slack < 1 {
		slack = 1
	}
	votes := map[int]int{} // quantized diagonal -> votes
	starts := map[int]int{}
	for off := 0; off+ix.K <= len(read); off += stride {
		for _, pos := range ix.Lookup(read[off : off+ix.K]) {
			diag := int(pos) - off
			if diag < 0 {
				diag = 0
			}
			q := diag / slack
			votes[q]++
			if cur, ok := starts[q]; !ok || diag < cur {
				starts[q] = diag
			}
		}
	}
	cands := make([]Candidate, 0, len(votes))
	for q, v := range votes {
		cands = append(cands, Candidate{RefStart: starts[q], Votes: v})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Votes != cands[j].Votes {
			return cands[i].Votes > cands[j].Votes
		}
		return cands[i].RefStart < cands[j].RefStart
	})
	if maxCandidates > 0 && len(cands) > maxCandidates {
		cands = cands[:maxCandidates]
	}
	return cands
}
