// Command perfbench is the repository's measured benchmark. It drives the
// alignment service and the simulated fleet with generated inputs on one
// named workload, checks every answer against a software-WFA reference,
// and prints the end-to-end metrics, or with --trace 1 the per-layer
// metrics, as the last line of standard output:
//
//	bash _perfbench/run.sh --workload serve-short --seed 1 --seconds 30 --trace 0
//
// See README.md beside this file for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/seqio"
	"repro/internal/serve"
)

const (
	reqPairs     = 32  // pairs per serving request
	poolRequests = 64  // distinct requests a serving workload cycles through
	clients      = 2   // serve-short closed-loop callers
	httpRate     = 125 // http-short-bt requests per second (4000 pairs/s)
	jobPairs     = 4   // pairs per sim-long job
	distinctJobs = 64  // distinct sim-long jobs, run in rounds
	setupReps    = 9   // set-ups timed per untraced run; setup_s is their median
	replaySetsN  = 16  // batches replayed per pass by the soc probe
	replayPasses = 3   // passes over them on the serving workloads
	buildDir     = ".bench_build"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects named values with their units.
type metrics map[string]metric

func (m metrics) put(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// env is one run's settings.
type env struct {
	name  string
	cfg   core.Config
	seed  uint64
	dur   time.Duration
	trace bool
	tr    *tracer
}

// outcome is what a workload run reports.
type outcome struct {
	m         metrics
	attempted int
	failed    int
	wrong     int
	problems  []string
}

// absorb counts a load phase's pairs and keeps its problems.
func (o *outcome) absorb(lr loadResult) {
	pairs, _, failed := lr.totals()
	o.attempted += pairs
	o.failed += failed
	o.absorbProblems(lr)
}

// absorbProblems keeps a phase's wrong answers and problems without
// counting its pairs as attempted (warm-ups and probes).
func (o *outcome) absorbProblems(lr loadResult) {
	o.wrong += lr.wrong
	o.problems = append(o.problems, lr.problems...)
}

func (o *outcome) fail(err error) {
	if err != nil {
		o.problems = append(o.problems, err.Error())
	}
}

var workloads = map[string]func(*env) (*outcome, error){
	"serve-short":   runServeShort,
	"http-short-bt": runHTTPShortBT,
	"sim-long":      runSimLong,
}

func main() {
	name := flag.String("workload", "", "workload: serve-short, http-short-bt or sim-long")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (serve-short|http-short-bt|sim-long), --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	fmt.Printf("env: go=%s gomaxprocs=%d nproc=%d workload=%s seed=%d seconds=%g trace=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), *name, *seed, *seconds, *trace)

	e := &env{
		name: *name, cfg: core.ChipConfig(), seed: *seed,
		dur:   time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, tr: newTracer(),
	}
	o, err := run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if e.trace {
		o.m.put("error_share", ratio(float64(o.failed), float64(o.attempted)), "share")
		for _, l := range []string{"bench", "http", "serve", "soc", "core", "wfa", "seqio", "integrity", "mem"} {
			o.m.put("self_ms."+l, 0, "ms")
		}
		for l, d := range selfTimes(e.tr.spans) {
			o.m.put("self_ms."+l, ms(d), "ms")
		}
		path := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", e.name, e.seed))
		if err := writeSpans(path, e.tr.spans); err != nil {
			o.fail(err)
		} else {
			fmt.Printf("spans: %d written to %s\n", len(e.tr.spans), path)
		}
	}

	names := make([]string, 0, len(o.m))
	for n := range o.m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-40s %14.4f %s\n", n, o.m[n].Value, o.m[n].Unit)
	}
	for _, p := range o.problems {
		fmt.Printf("problem: %s\n", p)
	}
	res := result{Correct: o.wrong == 0 && len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: o.m}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// endToEnd puts the end-to-end metrics of an untraced load. The latency
// tail is printed, not put: see putTail.
func endToEnd(o *outcome, setups []time.Duration, lr loadResult, cyclesPerPair float64) {
	pairs, ok, _ := lr.totals()
	lat := lr.latencies()
	fmt.Printf("latency_p50_ms: %.4f of %d requests; setup: median of %d\n", ms(median(lat)), len(lat), len(setups))
	putTail(metrics{}, lat)
	o.m.put("throughput_pps", float64(ok)/lr.elapsed.Seconds(), "pairs/s")
	o.m.put("latency_p50_ms", ms(median(lat)), "ms")
	o.m.put("answered_share", ratio(float64(ok), float64(pairs)), "share")
	o.m.put("setup_s", median(setups).Seconds(), "s")
	o.m.put("alloc_bytes_per_pair", ratio(float64(lr.alloc), float64(ok)), "B/pair")
	o.m.put("sim_cycles_per_pair", cyclesPerPair, "cycles/pair")
	fmt.Printf("error_share: %g (%d of %d pairs)\n", ratio(float64(pairs-ok), float64(pairs)), pairs-ok, pairs)
}

// putTail puts and prints the latency tail: the highest percentile, at most
// p99, with at least ten samples beyond it. It is a per-layer metric, not
// an end-to-end one, because on a shared two-vCPU host its run-to-run
// spread (up to 0.8 of its median over ten runs) exceeds any bound the
// benchmark may set: GC stop-the-world pauses stretch whenever the host
// deschedules a vCPU, and they land in the tail.
func putTail(m metrics, lat []time.Duration) {
	q := tailQuantile(len(lat))
	v := ms(percentile(lat, q))
	fmt.Printf("latency_p99_ms: %.4f (p%g of %d requests)\n", v, q, len(lat))
	m.put("latency_p99_ms", v, "ms")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceChunks is how many alternating untraced and traced stretches a
// traced run splits its load into, so drift over the run (heap growth, a
// neighbour's load) falls on both sides alike.
const traceChunks = 8

// traced runs the load in alternating untraced and traced chunks, reports
// the tracing overhead on the median request latency, and leaves tracing
// on for the probes that follow. It returns every chunk's records.
func traced(e *env, o *outcome, load func(first int, d time.Duration) loadResult) loadResult {
	var off, on, all loadResult
	for i := 0; i < traceChunks; i++ {
		e.tr.on.Store(i%2 == 1)
		lr := load(len(all.recs), e.dur/traceChunks)
		if i%2 == 1 {
			on.add(lr)
		} else {
			off.add(lr)
		}
		all.add(lr)
		all.elapsed += lr.elapsed
		o.absorb(lr)
	}
	e.tr.on.Store(true)
	putTail(o.m, all.latencies())
	a, b := median(off.latencies()), median(on.latencies())
	o.m.put("trace.overhead_pct", 100*ratio(float64(b-a), float64(a)), "%")
	return all
}

// serveSnap is a copy of the service counters the per-layer metrics use.
type serveSnap struct {
	admitted, batches, hw, fb, deadline, respills, retries, shed, witness int64
}

// snapServe waits until every admitted pair is counted as answered (the
// counters trail the replies by a few microseconds) and copies them.
func snapServe(m *serve.Metrics) serveSnap {
	for end := time.Now().Add(2 * time.Second); m.Answered()+m.Shed() != m.Submitted.Load() && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
	}
	return serveSnap{
		admitted: m.Admitted.Load(), batches: m.Batches.Load(), hw: m.HardwarePairs.Load(),
		fb: m.FallbackPairs.Load(), deadline: m.DeadlinePairs.Load(), respills: m.Respills.Load(),
		retries: m.DeviceRetries.Load(), shed: m.Shed(), witness: m.WitnessChecks.Load(),
	}
}

// putServe puts the serve-layer metrics over the interval a..b and returns
// the mean batch size.
func putServe(m metrics, a, b serveSnap) float64 {
	mean := ratio(float64(b.admitted-a.admitted), float64(b.batches-a.batches))
	m.put("serve.batches", float64(b.batches-a.batches), "count")
	m.put("serve.batch_pairs_mean", mean, "pairs/batch")
	m.put("serve.sw_share", ratio(float64(b.fb-a.fb), float64(b.hw-a.hw+b.fb-a.fb)), "share")
	m.put("serve.respills", float64(b.respills-a.respills), "count")
	m.put("serve.device_retries", float64(b.retries-a.retries), "count")
	m.put("serve.shed_pairs", float64(b.shed-a.shed), "count")
	m.put("serve.deadline_pairs", float64(b.deadline-a.deadline), "count")
	m.put("integrity.witness_checks", float64(b.witness-a.witness), "count")
	return mean
}

// putHTTP puts the HTTP-layer metrics of an open-loop phase.
func putHTTP(m metrics, lr loadResult) {
	var rt, lag []time.Duration
	for _, r := range lr.recs {
		rt = append(rt, r.lat-r.lag)
		lag = append(lag, r.lag)
	}
	m.put("http.roundtrip_ms_p50", ms(median(rt)), "ms")
	m.put("loadgen.lag_ms_p99", ms(percentile(lag, tailQuantile(len(lag)))), "ms")
}

// deviceCyclesPerPair reads the devices' simulated cycle counters from the
// service's /metrics page and divides by the pairs the devices answered.
func deviceCyclesPerPair(s *serve.Server) float64 {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var cycles int64
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "wfasic_device_perf{") && strings.Contains(line, `counter="machine.cycles"`) {
			f := strings.Fields(line)
			v, err := strconv.ParseInt(f[len(f)-1], 10, 64)
			if err == nil {
				cycles += v
			}
		}
	}
	return ratio(float64(cycles), float64(s.MetricsHandle().HardwarePairs.Load()))
}

// probeAll runs the per-layer probes on the workload's own inputs: nsets
// device jobs of `batch` pairs, replayed `passes` times.
func probeAll(e *env, o *outcome, reqs []request, batch, nsets, passes int, backtrace bool) (float64, error) {
	if err := probeSetup(e.tr, e.cfg, o.m); err != nil {
		return 0, err
	}
	var pairs []seqio.Pair
	for _, q := range reqs {
		pairs = append(pairs, q.pairs...)
	}
	sets, wants := replaySets(reqs, batch, nsets)
	probeSeqio(e.tr, pairs, sets, o.m)
	var probe loadResult
	cyclesPerPair, err := probeSoC(e.tr, e.cfg, sets, wants, passes, backtrace, o.m, &probe)
	o.absorbProblems(probe)
	if err != nil {
		return 0, err
	}
	cigars, err := probeAligners(e.tr, e.cfg, pairs, backtrace, o.m)
	if err != nil {
		return 0, err
	}
	probeWitness(e.tr, e.cfg, pairs, cigars, backtrace, o.m)
	probeJSON(e.tr, reqs, cigars, backtrace, o.m)
	return cyclesPerPair, nil
}

// httpProbe measures the HTTP layer on a workload that bypasses it: a
// fresh service on a loopback port answers the workload's own requests on
// a fixed schedule for d.
func httpProbe(e *env, o *outcome, reqs []request, rate float64, d time.Duration) error {
	h, _, err := startHTTP(e.tr, e.cfg, &reqs[0], false)
	if err != nil {
		return err
	}
	lr := openLoop(h, e.cfg, reqs, 1, rate, d, false)
	pairs, _, _ := lr.totals()
	o.fail(checkNoDrop(h.close(), int64(len(reqs[0].pairs)+pairs)))
	o.absorbProblems(lr)
	putHTTP(o.m, lr)
	return nil
}

func runServeShort(e *env) (*outcome, error) {
	reqs, err := makeRequests(e.cfg, e.seed, poolRequests, reqPairs, short100, false)
	if err != nil {
		return nil, err
	}
	o := &outcome{m: metrics{}}
	var setups []time.Duration
	var s *serve.Server
	for i := 0; i < reps(e); i++ {
		if s != nil {
			s.Drain()
		}
		var took time.Duration
		if s, took, err = setupServe(e.cfg, &reqs[0]); err != nil {
			return nil, err
		}
		setups = append(setups, took)
	}
	offered := int64(reqPairs)
	load := func(first int, d time.Duration) loadResult {
		lr := closedLoop(e.tr, e.cfg, s, reqs, first, clients, d)
		pairs, _, _ := lr.totals()
		offered += int64(pairs)
		return lr
	}

	if !e.trace {
		lr := load(0, e.dur)
		o.absorb(lr)
		o.fail(checkNoDrop(s.Drain(), offered))
		endToEnd(o, setups, lr, deviceCyclesPerPair(s))
		return o, nil
	}
	a := snapServe(s.MetricsHandle())
	traced(e, o, load)
	batch := putServe(o.m, a, snapServe(s.MetricsHandle()))
	o.fail(checkNoDrop(s.Drain(), offered))
	if _, err := probeAll(e, o, reqs, clampBatch(batch), replaySetsN, replayPasses, false); err != nil {
		return nil, err
	}
	return o, httpProbe(e, o, reqs, httpRate, time.Second)
}

func runHTTPShortBT(e *env) (*outcome, error) {
	reqs, err := makeRequests(e.cfg, e.seed, poolRequests, reqPairs, short100, true)
	if err != nil {
		return nil, err
	}
	o := &outcome{m: metrics{}}
	var setups []time.Duration
	var h *httpTarget
	for i := 0; i < reps(e); i++ {
		if h != nil {
			h.close()
		}
		var took time.Duration
		if h, took, err = startHTTP(e.tr, e.cfg, &reqs[0], true); err != nil {
			return nil, err
		}
		setups = append(setups, took)
	}
	offered := int64(reqPairs)
	load := func(first int, d time.Duration) loadResult {
		lr := openLoop(h, e.cfg, reqs, first, httpRate, d, true)
		pairs, _, _ := lr.totals()
		offered += int64(pairs)
		return lr
	}

	if !e.trace {
		lr := load(0, e.dur)
		o.absorb(lr)
		o.fail(checkNoDrop(h.close(), offered))
		endToEnd(o, setups, lr, deviceCyclesPerPair(h.s))
		return o, nil
	}
	a := snapServe(h.s.MetricsHandle())
	lr := traced(e, o, load)
	batch := putServe(o.m, a, snapServe(h.s.MetricsHandle()))
	putHTTP(o.m, lr)
	o.fail(checkNoDrop(h.close(), offered))
	_, err = probeAll(e, o, reqs, clampBatch(batch), replaySetsN, replayPasses, true)
	return o, err
}

func runSimLong(e *env) (*outcome, error) {
	jobs, err := makeRequests(e.cfg, e.seed, distinctJobs, jobPairs, long1K, false)
	if err != nil {
		return nil, err
	}
	sets := make([]*seqio.InputSet, len(jobs))
	for j := range jobs {
		sets[j] = &seqio.InputSet{Pairs: jobs[j].pairs}
	}
	o := &outcome{m: metrics{}}
	pins := newSimPins(len(jobs))
	var warm loadResult
	var setups []time.Duration
	var rig *simRig
	for i := 0; i < reps(e); i++ {
		var took time.Duration
		var rec jobRecord
		if rig, took, rec, err = setupSim(e.tr, e.cfg, &jobs[0]); err != nil {
			return nil, err
		}
		pins.check(0, &rec, &warm)
		setups = append(setups, took)
	}
	o.absorbProblems(warm)
	var witness int
	load := func(first int, d time.Duration) loadResult {
		lr, w := simLoad(e.tr, e.cfg, rig, jobs, sets, pins, int64(first), d)
		witness += w
		return lr
	}

	var lr loadResult
	if e.trace {
		lr = traced(e, o, load)
	} else {
		lr = load(0, e.dur)
		o.absorb(lr)
	}
	digest, cyclesPerPair, complete := pins.summary()
	if !complete {
		return nil, fmt.Errorf("sim-long: not every distinct job ran; raise --seconds")
	}
	fmt.Printf("sim-long: %d jobs of %d pairs, digest=%s sim_cycles_per_pair=%.6f\n", len(lr.recs), jobPairs, digest, cyclesPerPair)
	o.fail(pinFile(filepath.Join(buildDir, "pins"), e.seed, digest, cyclesPerPair))
	if !e.trace {
		endToEnd(o, setups, lr, cyclesPerPair)
		return o, nil
	}

	putServe(o.m, serveSnap{}, serveSnap{})
	o.m.put("integrity.witness_checks", float64(witness), "count")
	replayed, err := probeAll(e, o, jobs, jobPairs, len(jobs), 1, false)
	if err != nil {
		return nil, err
	}
	if got := o.m["core.accel_cycles_per_pair"].Value; got != cyclesPerPair || replayed != cyclesPerPair {
		o.fail(fmt.Errorf("sim-long: core.accel_cycles_per_pair %v and the replay's reports %v differ from sim_cycles_per_pair %v",
			got, replayed, cyclesPerPair))
	}
	return o, httpProbe(e, o, jobs, 10, 2*time.Second)
}

// reps is how many set-ups a run times: several for setup_s, one when the
// run is traced and reports no end-to-end metrics.
func reps(e *env) int {
	if e.trace {
		return 1
	}
	return setupReps
}

// clampBatch rounds the service's mean batch size to a device job size.
func clampBatch(mean float64) int {
	return min(max(int(mean+0.5), 1), 64)
}
