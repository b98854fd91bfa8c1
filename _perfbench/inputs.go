package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/integrity"
	"repro/internal/seqgen"
	"repro/internal/seqio"
	"repro/internal/serve"
	"repro/internal/soc"
)

// request is one unit of offered work: a client request on the serving
// workloads, a §4.2 device job on sim-long. Pair IDs are 1..len(pairs),
// unique within the request as the device's 16-bit result IDs require.
type request struct {
	pairs []seqio.Pair
	want  []align.Result // reference answers, computed before any timing
	body  []byte         // the request as POST /align JSON
}

// profile is one read-length and error-rate profile of the paper (§5.3).
type profile struct {
	length  int
	errRate float64
}

var (
	short100 = profile{length: 100, errRate: 0.05}
	long1K   = profile{length: 1000, errRate: 0.10}
)

// makeRequests generates n requests of pairsPer pairs each from the seed,
// with their software-WFA reference answers and their JSON bodies. The
// generator stream depends on nothing but the seed and the shape, so the
// same seed always yields the same inputs.
func makeRequests(cfg core.Config, seed uint64, n, pairsPer int, p profile, backtrace bool) ([]request, error) {
	g := seqgen.New(seed, seed^0x6A09E667F3BCC908)
	set := g.Set(seqgen.Profile{Length: p.length, ErrorRate: p.errRate, NumPairs: n * pairsPer})
	reqs := make([]request, n)
	for r := range reqs {
		q := &reqs[r]
		q.pairs = make([]seqio.Pair, pairsPer)
		q.want = make([]align.Result, pairsPer)
		wire := serve.AlignRequest{Tenant: "bench", Backtrace: backtrace, Pairs: make([]serve.AlignPair, pairsPer)}
		for i := range q.pairs {
			src := set.Pairs[r*pairsPer+i]
			q.pairs[i] = seqio.Pair{ID: uint32(i + 1), A: src.A, B: src.B}
			q.want[i], _ = soc.SoftwareAlign(cfg, q.pairs[i], false)
			wire.Pairs[i] = serve.AlignPair{ID: q.pairs[i].ID, A: string(src.A), B: string(src.B)}
		}
		body, err := json.Marshal(wire)
		if err != nil {
			return nil, fmt.Errorf("encode request: %w", err)
		}
		q.body = body
	}
	return reqs, nil
}

// checkAnswer compares one answered pair with its reference and, when the
// answer carries a CIGAR, rescores the CIGAR over the pair. It returns ""
// for a right answer and a description otherwise.
func checkAnswer(cfg core.Config, p seqio.Pair, want align.Result, score int, success bool, cigar string, backtrace bool) string {
	if success != want.Success || (success && score != want.Score) {
		return fmt.Sprintf("pair %d: got score %d success %v, reference %d %v", p.ID, score, success, want.Score, want.Success)
	}
	if !backtrace || !success {
		return ""
	}
	c, err := align.ParseCIGAR(cigar)
	if err != nil {
		return fmt.Sprintf("pair %d: CIGAR %q does not parse: %v", p.ID, cigar, err)
	}
	if err := integrity.CheckCIGAR(c, p.A, p.B, score, cfg.Penalties); err != nil {
		return fmt.Sprintf("pair %d: CIGAR rescoring: %v", p.ID, err)
	}
	return ""
}
