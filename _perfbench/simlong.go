package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/seqio"
	"repro/internal/soc"
)

const (
	// fleetMembers is the sim-long fleet size: one member per core of the
	// two-core machine the benchmark is sized for.
	fleetMembers = 2
	// deviceMem is each simulated device's main memory, the serving
	// layer's default, so set-up and scrub costs match the service's.
	deviceMem = 8 << 20
)

// simRig is a fleet of simulated SoCs.
type simRig struct {
	fleet *core.Fleet
	socs  []*soc.SoC
}

// jobRecord is one sim-long job's outcome.
type jobRecord struct {
	lat    time.Duration
	rep    *soc.ResilientReport
	err    error
	digest [32]byte
}

// jobDigest hashes everything a job's result is made of: every pair's ID,
// score and success, and the simulated and modelled cycle counts.
func jobDigest(rep *soc.ResilientReport) [32]byte {
	h := sha256.New()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, o := range rep.Outcomes {
		put(int64(o.ID))
		put(int64(o.Result.Score))
		if o.Result.Success {
			put(1)
		} else {
			put(0)
		}
	}
	put(rep.AccelCycles)
	put(rep.TotalCycles)
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// gradeJob checks a job's outcomes against the reference answers.
func gradeJob(cfg core.Config, q *request, rec *jobRecord, out *loadResult) reqRecord {
	r := reqRecord{lat: rec.lat, pairs: len(q.pairs), failed: len(q.pairs)}
	if rec.err != nil {
		out.problems = append(out.problems, fmt.Sprintf("RunResilient: %v", rec.err))
		return r
	}
	if len(rec.rep.Outcomes) != len(q.pairs) {
		out.note(fmt.Sprintf("job answered %d of %d pairs", len(rec.rep.Outcomes), len(q.pairs)))
		return r
	}
	for i, o := range rec.rep.Outcomes {
		if msg := checkAnswer(cfg, q.pairs[i], q.want[i], o.Result.Score, o.Result.Success, "", false); msg != "" {
			out.note(msg)
			continue
		}
		r.ok++
		r.failed--
	}
	return r
}

// runJobs runs every job once across the fleet under one Fleet.Do and
// records a span for the round and for each job.
func (rig *simRig) runJobs(tr *tracer, sets []*seqio.InputSet, round int64) []jobRecord {
	recs := make([]jobRecord, len(sets))
	root := tr.begin("core.Fleet.Do", 0, round)
	_ = rig.fleet.Do(len(sets), func(w, j int) error { // errors are kept per job in recs
		sp := tr.begin("soc.RunResilient", root.id, round*int64(len(sets))+int64(j))
		start := time.Now()
		rep, err := rig.socs[w].RunResilient(sets[j], soc.ResilientOptions{})
		recs[j].lat = time.Since(start)
		tr.end(sp)
		recs[j].rep, recs[j].err = rep, err
		if err == nil {
			recs[j].digest = jobDigest(rep)
		}
		return err
	})
	tr.end(root)
	return recs
}

// setupSim builds the fleet and answers one warm-up job.
func setupSim(tr *tracer, cfg core.Config, warm *request) (*simRig, time.Duration, jobRecord, error) {
	start := time.Now()
	fleet, socs, err := soc.NewFleet(cfg, fleetMembers, deviceMem)
	if err != nil {
		return nil, 0, jobRecord{}, err
	}
	rig := &simRig{fleet: fleet, socs: socs}
	rec := rig.runJobs(tr, []*seqio.InputSet{{Pairs: warm.pairs}}, -1)[0]
	took := time.Since(start)
	var lr loadResult
	if r := gradeJob(cfg, warm, &rec, &lr); r.ok != r.pairs {
		return nil, 0, rec, fmt.Errorf("warm-up job: %d of %d pairs answered correctly %v", r.ok, r.pairs, lr.problems)
	}
	return rig, took, rec, nil
}

// simPins holds the first digest seen for each distinct job. Every later
// run of a job, on either fleet member, must reproduce it exactly.
type simPins struct {
	digests [][32]byte
	cycles  []int64
	pairs   []int
}

func newSimPins(n int) *simPins {
	return &simPins{digests: make([][32]byte, n), cycles: make([]int64, n), pairs: make([]int, n)}
}

// check pins job j's digest on first sight and compares it afterwards.
func (p *simPins) check(j int, rec *jobRecord, out *loadResult) {
	if rec.err != nil {
		return
	}
	if p.digests[j] == ([32]byte{}) {
		p.digests[j] = rec.digest
		p.cycles[j] = rec.rep.AccelCycles
		p.pairs[j] = len(rec.rep.Outcomes)
		return
	}
	if p.digests[j] != rec.digest {
		out.note(fmt.Sprintf("job %d: result digest differs between two runs of the same job", j))
	}
}

// summary is the digest over all distinct jobs and their simulated cycles
// per pair; both are functions of the seed alone.
func (p *simPins) summary() (string, float64, bool) {
	h := sha256.New()
	var cycles int64
	pairs := 0
	for j, d := range p.digests {
		if d == ([32]byte{}) {
			return "", 0, false
		}
		h.Write(d[:])
		cycles += p.cycles[j]
		pairs += p.pairs[j]
	}
	return hex.EncodeToString(h.Sum(nil)), float64(cycles) / float64(pairs), true
}

// simLoad runs rounds of every distinct job across the fleet until dur has
// passed. A round always completes, so every job runs equally often. It
// also returns the witness checks the jobs' reports count.
func simLoad(tr *tracer, cfg core.Config, rig *simRig, jobs []request, sets []*seqio.InputSet, pins *simPins, firstRound int64, dur time.Duration) (loadResult, int) {
	var lr loadResult
	witness := 0
	alloc0 := totalAlloc()
	start := time.Now()
	for round := firstRound; time.Since(start) < dur; round++ {
		recs := rig.runJobs(tr, sets, round)
		for j := range recs {
			lr.recs = append(lr.recs, gradeJob(cfg, &jobs[j], &recs[j], &lr))
			pins.check(j, &recs[j], &lr)
			if recs[j].rep != nil {
				witness += recs[j].rep.WitnessChecks
			}
		}
	}
	lr.elapsed = time.Since(start)
	lr.alloc = totalAlloc() - alloc0
	return lr, witness
}

// pinFile compares the run's digest with the one an earlier run of the
// same binary and seed recorded, and records it when there is none. The
// key includes a hash of the executable, so a rebuilt program starts a new
// record instead of failing against the old one.
func pinFile(dir string, seed uint64, digest string, cyclesPerPair float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("sim-long-%s-seed%d.txt", hex.EncodeToString(h.Sum(nil))[:16], seed))
	line := fmt.Sprintf("digest=%s sim_cycles_per_pair=%.6f\n", digest, cyclesPerPair)
	prev, err := os.ReadFile(path)
	if err == nil {
		if string(prev) != line {
			return fmt.Errorf("same binary and seed, different simulated results:\n  before: %s  now:    %s",
				prev, line)
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(line), 0o644)
}
