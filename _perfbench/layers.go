package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/integrity"
	"repro/internal/mem"
	"repro/internal/seqio"
	"repro/internal/serve"
	"repro/internal/soc"
	"repro/internal/wfa"
)

// sink keeps probe results reachable so no call is optimised away.
var sink any

// Probe work, in passes over the workload's distinct inputs. Each probe
// does a fixed amount of work so its span's self time tracks the layer.
const (
	validatePasses = 4
	imagePasses    = 16
	witnessPasses  = 8
	jsonPasses     = 4
)

// replaySets cuts the workload's pairs into sets of `batch` pairs (IDs
// 1..batch, as the service numbers a device job) with their references.
func replaySets(reqs []request, batch, n int) ([]*seqio.InputSet, [][]align.Result) {
	var flat []seqio.Pair
	var want []align.Result
	for _, q := range reqs {
		flat = append(flat, q.pairs...)
		want = append(want, q.want...)
	}
	sets := make([]*seqio.InputSet, n)
	wants := make([][]align.Result, n)
	for s := range sets {
		set := &seqio.InputSet{Pairs: make([]seqio.Pair, batch)}
		wants[s] = make([]align.Result, batch)
		for i := range set.Pairs {
			k := (s*batch + i) % len(flat)
			set.Pairs[i] = seqio.Pair{ID: uint32(i + 1), A: flat[k].A, B: flat[k].B}
			wants[s][i] = want[k]
		}
		sets[s] = set
	}
	return sets, wants
}

// probeSetup times building the pieces a service or fleet is made of.
func probeSetup(tr *tracer, cfg core.Config, m metrics) error {
	var newMem, newSoC []time.Duration
	for i := 0; i < 7; i++ {
		sp := tr.begin("mem.NewMemory", 0, -1)
		t := time.Now()
		sink = mem.NewMemory(deviceMem)
		newMem = append(newMem, time.Since(t))
		tr.end(sp)
		sp = tr.begin("soc.New", 0, -1)
		t = time.Now()
		s, err := soc.New(cfg, deviceMem)
		newSoC = append(newSoC, time.Since(t))
		tr.end(sp)
		if err != nil {
			return err
		}
		sink = s
	}
	m.put("mem.new_memory_ms", ms(median(newMem)), "ms")
	m.put("soc.new_ms", ms(median(newSoC)), "ms")
	return nil
}

// probeSeqio times validation per pair and input-image building per batch.
func probeSeqio(tr *tracer, pairs []seqio.Pair, sets []*seqio.InputSet, m metrics) {
	sp := tr.begin("seqio.ValidateSequence", 0, -1)
	per := timeN(validatePasses*len(pairs), func(i int) {
		p := pairs[i%len(pairs)]
		sink = seqio.ValidateSequence(p.A)
		sink = seqio.ValidateSequence(p.B)
	})
	tr.end(sp)
	m.put("seqio.validate_ns_per_pair", per, "ns")

	sp = tr.begin("seqio.BuildImage", 0, -1)
	per = timeN(imagePasses*len(sets), func(i int) {
		img, err := sets[i%len(sets)].BuildImage()
		sink, _ = img, err
	})
	tr.end(sp)
	m.put("seqio.build_image_us_per_batch", per/1e3, "us")
}

// replayStats sums what a replay of batches through one SoC observed.
type replayStats struct {
	calls, pairs     int
	host             time.Duration
	alloc            uint64
	attempts, fbPair int
	btCPU, integCyc  int64
	accelCycles      int64
	machineCycles    int64
	skipJumps        int64
	skipCycles       int64
}

// replay runs every set through one fleet member `passes` times, each pass
// under one Fleet.Do, calling run on each set, and sums the reports.
func replay(tr *tracer, fleet *core.Fleet, name string, sets []*seqio.InputSet, passes int,
	run func(*seqio.InputSet) (*soc.ResilientReport, error), check func(set int, rep *soc.ResilientReport)) (replayStats, error) {
	var st replayStats
	mc := fleet.Member(0).Machine
	cyc0 := mc.Cycle()
	jumps0, skipped0 := mc.SkipStats()
	alloc0 := totalAlloc()
	var firstErr error
	for p := 0; p < passes; p++ {
		root := tr.begin("core.Fleet.Do", 0, int64(p))
		_ = fleet.Do(len(sets), func(_, j int) error { // errors are kept in firstErr
			sp := tr.begin(name, root.id, int64(j))
			t := time.Now()
			rep, err := run(sets[j])
			st.host += time.Since(t)
			tr.end(sp)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", name, err)
				}
				return err
			}
			st.calls++
			st.pairs += len(sets[j].Pairs)
			st.attempts += rep.Attempts
			st.fbPair += rep.FallbackPairs
			st.btCPU += rep.CPUBacktraceCycles
			st.integCyc += rep.IntegrityCycles
			st.accelCycles += rep.AccelCycles
			check(j, rep)
			return nil
		})
		tr.end(root)
	}
	st.alloc = totalAlloc() - alloc0
	st.machineCycles = mc.Cycle() - cyc0
	jumps1, skipped1 := mc.SkipStats()
	st.skipJumps, st.skipCycles = jumps1-jumps0, skipped1-skipped0
	return st, firstErr
}

// probeSoC replays the sets `passes` times through RunResilient and
// RunAccelerated on a one-member fleet, which also gives the core
// (simulator) figures. It returns the simulated accelerator cycles per pair
// of the resilient replay.
func probeSoC(tr *tracer, cfg core.Config, sets []*seqio.InputSet, wants [][]align.Result, passes int, backtrace bool, m metrics, out *loadResult) (float64, error) {
	fleet, socs, err := soc.NewFleet(cfg, 1, deviceMem)
	if err != nil {
		return 0, err
	}
	s := socs[0]
	grade := func(set int, rep *soc.ResilientReport) {
		for _, o := range rep.Outcomes {
			// Set pairs carry IDs 1..n; a backtrace decode need not
			// return them in input order.
			i := int(o.ID) - 1
			if i < 0 || i >= len(sets[set].Pairs) {
				out.note(fmt.Sprintf("replay: result for unknown pair ID %d", o.ID))
				continue
			}
			p := sets[set].Pairs[i]
			var cigar string
			if o.Result.CIGAR != nil {
				cigar = o.Result.CIGAR.String()
			}
			if msg := checkAnswer(cfg, p, wants[set][i], o.Result.Score, o.Result.Success, cigar, backtrace); msg != "" {
				out.note("replay " + msg)
			}
		}
	}
	res, err := replay(tr, fleet, "soc.RunResilient", sets, passes, func(set *seqio.InputSet) (*soc.ResilientReport, error) {
		return s.RunResilient(set, soc.ResilientOptions{Backtrace: backtrace})
	}, grade)
	if err != nil {
		return 0, err
	}
	acc, err := replay(tr, fleet, "soc.RunAccelerated", sets, passes, func(set *seqio.InputSet) (*soc.ResilientReport, error) {
		rep, err := s.RunAccelerated(set, soc.RunOptions{Backtrace: backtrace})
		if err != nil {
			return nil, err
		}
		return &soc.ResilientReport{Outcomes: rep.Outcomes, AccelCycles: rep.AccelCycles}, nil
	}, grade)
	if err != nil {
		return 0, err
	}

	resMS := ms(res.host) / float64(res.calls)
	accMS := ms(acc.host) / float64(acc.calls)
	pairs := float64(res.pairs)
	m.put("soc.resilient_ms_per_batch", resMS, "ms")
	m.put("soc.accelerated_ms_per_batch", accMS, "ms")
	m.put("soc.resilient_overhead_ms_per_batch", resMS-accMS, "ms")
	m.put("soc.alloc_bytes_per_batch", float64(res.alloc)/float64(res.calls), "B/batch")
	m.put("soc.attempts_per_batch", float64(res.attempts)/float64(res.calls), "attempts/batch")
	m.put("soc.fallback_pairs", float64(res.fbPair), "count")
	m.put("soc.bt_cpu_cycles_per_pair", float64(res.btCPU)/pairs, "cycles/pair")
	m.put("integrity.cycles_per_pair", float64(res.integCyc)/pairs, "cycles/pair")
	m.put("core.accel_cycles_per_pair", float64(res.machineCycles)/pairs, "cycles/pair")
	m.put("core.sim_cycles_per_host_sec", float64(res.machineCycles)/res.host.Seconds(), "cycles/s")
	m.put("core.skipped_cycle_share", float64(res.skipCycles)/float64(res.machineCycles), "share")
	m.put("core.skip_jumps_per_pair", float64(res.skipJumps)/pairs, "jumps/pair")

	if res.machineCycles != res.accelCycles {
		out.note(fmt.Sprintf("replay: machine cycle counter advanced %d cycles, reports account for %d", res.machineCycles, res.accelCycles))
	}
	return float64(res.accelCycles) / pairs, nil
}

// probeAligners times the software paths per pair: soc.SoftwareAlign (which
// builds an Aligner per pair) and a reused wfa.Aligner in score-only and
// CIGAR mode, one pass over the pairs each. It returns the CIGAR-mode
// results for the witness and JSON probes.
func probeAligners(tr *tracer, cfg core.Config, pairs []seqio.Pair, backtrace bool, m metrics) ([]align.Result, error) {
	sp := tr.begin("soc.SoftwareAlign", 0, -1)
	per := timeN(len(pairs), func(i int) {
		res, _ := soc.SoftwareAlign(cfg, pairs[i], backtrace)
		sink = res
	})
	tr.end(sp)
	m.put("soc.software_align_us_per_pair", per/1e3, "us")

	score, err := wfa.New(cfg.Penalties, wfa.Options{MaxK: cfg.KMax})
	if err != nil {
		return nil, err
	}
	var cells int64
	sp = tr.begin("wfa.Aligner.Run", 0, -1)
	per = timeN(len(pairs), func(i int) {
		sink = score.Run(pairs[i].A, pairs[i].B)
		cells += score.Stats.CellsComputed
	})
	tr.end(sp)
	m.put("wfa.score_us_per_pair", per/1e3, "us")
	m.put("wfa.cells_per_us", float64(cells)/float64(len(pairs))/(per/1e3), "cells/us")

	withCIGAR, err := wfa.New(cfg.Penalties, wfa.Options{WithCIGAR: true, MaxK: cfg.KMax})
	if err != nil {
		return nil, err
	}
	cigars := make([]align.Result, len(pairs))
	sp = tr.begin("wfa.Aligner.Run", 0, -1)
	per = timeN(len(pairs), func(i int) {
		cigars[i] = withCIGAR.Run(pairs[i].A, pairs[i].B)
		// The aligner reuses its backtrace scratch: keep a copy.
		cigars[i].CIGAR = append(align.CIGAR(nil), cigars[i].CIGAR...)
	})
	tr.end(sp)
	m.put("wfa.cigar_us_per_pair", per/1e3, "us")
	return cigars, nil
}

// probeWitness times the per-pair result witnesses the resilient driver
// runs: the score bounds, plus the CIGAR replay on backtrace workloads.
func probeWitness(tr *tracer, cfg core.Config, pairs []seqio.Pair, cigars []align.Result, backtrace bool, m metrics) {
	b := integrity.NewBounds(cfg.Penalties, cfg.ScoreMax(), cfg.KMax)
	sp := tr.begin("integrity.CheckSuccess", 0, -1)
	per := timeN(witnessPasses*len(pairs), func(i int) {
		p, r := pairs[i%len(pairs)], cigars[i%len(pairs)]
		if r.Success {
			sink = b.CheckSuccess(p.A, p.B, r.Score, true)
			if backtrace {
				sink = integrity.CheckCIGAR(r.CIGAR, p.A, p.B, r.Score, cfg.Penalties)
			}
		}
	})
	tr.end(sp)
	m.put("integrity.witness_ns_per_pair", per, "ns")
}

// probeJSON times the service's wire format: decoding an AlignRequest the
// way the handler does, and encoding the AlignResponse it would send.
func probeJSON(tr *tracer, reqs []request, cigars []align.Result, backtrace bool, m metrics) {
	sp := tr.begin("http.decode", 0, -1)
	per := timeN(jsonPasses*len(reqs), func(i int) {
		var req serve.AlignRequest
		dec := json.NewDecoder(bytes.NewReader(reqs[i%len(reqs)].body))
		dec.DisallowUnknownFields()
		sink = dec.Decode(&req)
	})
	tr.end(sp)
	m.put("http.decode_us_per_req", per/1e3, "us")

	resps := make([]serve.AlignResponse, len(reqs))
	k := 0
	for r := range reqs {
		for _, p := range reqs[r].pairs {
			c := cigars[k]
			pr := serve.PairResult{ID: p.ID, Score: c.Score, Success: c.Success}
			if backtrace && c.CIGAR != nil {
				pr.CIGAR = c.CIGAR.String()
			}
			resps[r].Results = append(resps[r].Results, pr)
			k++
		}
	}
	sp = tr.begin("http.encode", 0, -1)
	per = timeN(jsonPasses*len(resps), func(i int) {
		sink = json.NewEncoder(io.Discard).Encode(resps[i%len(resps)])
	})
	tr.end(sp)
	m.put("http.encode_us_per_req", per/1e3, "us")
}
