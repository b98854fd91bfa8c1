package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/perf"
	"repro/internal/seqgen"
	"repro/internal/seqio"
)

// perfTestSet builds a deterministic small workload (mixed supported and
// unsupported pairs so the perf counters cover every path).
func perfTestSet(t *testing.T) *seqio.InputSet {
	t.Helper()
	set := seqgen.SetFor(seqgen.Profile{Name: "perf", Length: 200, ErrorRate: 0.08, NumPairs: 6})
	// One unsupported pair: an 'N' base fails the Extractor's 2-bit pack.
	set.Pairs = append(set.Pairs, seqio.Pair{ID: 999, A: []byte("ACGNACGT"), B: []byte("ACGTACGT")})
	return set
}

// setupJob programs a fresh machine for one job exactly as runJob does but
// without running it, so tests can drive the tick loop themselves.
func setupJob(t *testing.T, cfg Config, set *seqio.InputSet, bt bool) (*Machine, int64) {
	t.Helper()
	img, err := set.BuildImage()
	if err != nil {
		t.Fatal(err)
	}
	m, memory, err := NewStandaloneMachine(cfg, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	outputAddr := int64(len(img)+mem.BeatBytes+15) &^ 15
	memory.Write(0, img)
	r := m.Regs
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(r.Write(RegMaxReadLen, uint32(set.EffectiveMaxReadLen())))
	btVal := uint32(0)
	if bt {
		btVal = 1
	}
	must(r.Write(RegBTEnable, btVal))
	must(r.Write(RegInputAddrLo, 0))
	must(r.Write(RegInputAddrHi, 0))
	must(r.Write(RegNumPairs, uint32(len(set.Pairs))))
	must(r.Write(RegOutputAddrLo, uint32(outputAddr)))
	must(r.Write(RegOutputAddrHi, 0))
	must(r.Write(RegCtrl, CtrlStart))
	return m, outputAddr
}

// observedRun is one job's complete observable outcome: everything that must
// stay bit-identical whether or not the perf layer is watching.
type observedRun struct {
	cycles  uint64
	timings []PairTiming
	out     []byte
}

// drivePerfJob ticks the machine to completion. With observe set it turns on
// every observability feature at once — tracer, occupancy sampling, and
// mid-run counter reads through both the Go API and the register window —
// which the neutrality test then proves changed nothing.
func drivePerfJob(t *testing.T, cfg Config, set *seqio.InputSet, bt, observe bool) observedRun {
	t.Helper()
	m, outputAddr := setupJob(t, cfg, set, bt)
	var events []TraceEvent
	if observe {
		m.SetTracer(CollectTrace(&events))
		m.EnablePerfSampling(64)
	}
	for i := 0; m.Regs.startRequested || !m.Regs.Idle(); i++ {
		m.Tick()
		if observe && i%997 == 0 {
			_ = m.PerfSnapshot()
			if err := m.Regs.Write(RegPerfSelect, uint32(i%m.PerfCount())); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Regs.Read(RegPerfLo); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Regs.Read(RegPerfHi); err != nil {
				t.Fatal(err)
			}
		}
		if i > 100_000_000 {
			t.Fatal("job did not finish")
		}
	}
	if m.Regs.Errored() {
		t.Fatal("job errored")
	}
	count, err := m.Regs.Read(RegOutCount)
	if err != nil {
		t.Fatal(err)
	}
	return observedRun{
		cycles:  m.Regs.JobCycles,
		timings: append([]PairTiming(nil), m.Timings...),
		out:     m.Memory().Read(outputAddr, int(count)*mem.BeatBytes),
	}
}

// TestPerfCountersInert is the neutrality proof: a job observed by the full
// perf layer (tracer + occupancy sampling + mid-run counter reads through
// the Go API and the RegPerf window) is bit-identical — cycle count, every
// pair timing, and the output stream — to the same job with observation off.
func TestPerfCountersInert(t *testing.T) {
	cfg := testConfig()
	set := perfTestSet(t)
	for _, bt := range []bool{false, true} {
		name := "nbt"
		if bt {
			name = "bt"
		}
		t.Run(name, func(t *testing.T) {
			plain := drivePerfJob(t, cfg, set, bt, false)
			watched := drivePerfJob(t, cfg, set, bt, true)
			if plain.cycles != watched.cycles {
				t.Fatalf("observation changed the cycle count: %d vs %d", plain.cycles, watched.cycles)
			}
			if len(plain.timings) != len(watched.timings) {
				t.Fatalf("timing count drifted: %d vs %d", len(plain.timings), len(watched.timings))
			}
			for i := range plain.timings {
				if plain.timings[i] != watched.timings[i] {
					t.Fatalf("timing %d drifted: %+v vs %+v", i, plain.timings[i], watched.timings[i])
				}
			}
			if !bytes.Equal(plain.out, watched.out) {
				t.Fatal("observation changed the output stream")
			}
		})
	}
}

// TestPerfDeterministicGolden is the same-seed golden test: two runs of one
// seeded workload produce byte-identical event logs, counter JSON, and
// Chrome traces, in both BT and NBT modes.
func TestPerfDeterministicGolden(t *testing.T) {
	cfg := testConfig()
	for _, bt := range []bool{false, true} {
		name := "nbt"
		if bt {
			name = "bt"
		}
		t.Run(name, func(t *testing.T) {
			run := func() (string, []byte, []byte) {
				set := perfTestSet(t)
				m, _ := setupJob(t, cfg, set, bt)
				var events []TraceEvent
				m.SetTracer(CollectTrace(&events))
				m.EnablePerfSampling(128)
				if _, err := m.Run(100_000_000); err != nil {
					t.Fatal(err)
				}
				var log strings.Builder
				for _, e := range events {
					fmt.Fprintln(&log, e)
				}
				counters, err := m.PerfSnapshot().MarshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				var chrome bytes.Buffer
				tr := BuildTrace(events, m.Timings, m.OccSamples())
				if err := tr.WriteChrome(&chrome); err != nil {
					t.Fatal(err)
				}
				if err := perf.ValidateChrome(chrome.Bytes()); err != nil {
					t.Fatal(err)
				}
				return log.String(), counters, chrome.Bytes()
			}
			log1, json1, chrome1 := run()
			log2, json2, chrome2 := run()
			if log1 != log2 {
				t.Fatal("same-seed event logs differ")
			}
			if !bytes.Equal(json1, json2) {
				t.Fatalf("same-seed counter JSON differs:\n%s\n%s", json1, json2)
			}
			if !bytes.Equal(chrome1, chrome2) {
				t.Fatal("same-seed Chrome traces differ")
			}
			if len(json1) == 0 || json1[0] != '{' {
				t.Fatalf("counter JSON malformed: %s", json1)
			}
		})
	}
}

// TestPerfRegisterWindow proves the RegPerf* window exposes exactly the
// machine's counter index space: every index reads the same value through
// the registers as through the Go API, out-of-range indices read zero, and
// the counters move with the work done.
func TestPerfRegisterWindow(t *testing.T) {
	cfg := testConfig()
	set := perfTestSet(t)
	m, _ := setupJob(t, cfg, set, false)
	if _, err := m.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	count, err := m.Regs.Read(RegPerfCount)
	if err != nil {
		t.Fatal(err)
	}
	if int(count) != m.PerfCount() || count == 0 {
		t.Fatalf("RegPerfCount=%d, PerfCount=%d", count, m.PerfCount())
	}
	snap := m.PerfSnapshot()
	for i := 0; i < int(count); i++ {
		if err := m.Regs.Write(RegPerfSelect, uint32(i)); err != nil {
			t.Fatal(err)
		}
		lo, err := m.Regs.Read(RegPerfLo)
		if err != nil {
			t.Fatal(err)
		}
		hi, err := m.Regs.Read(RegPerfHi)
		if err != nil {
			t.Fatal(err)
		}
		got := int64(uint64(hi)<<32 | uint64(lo))
		if got != snap.Entries[i].Value {
			t.Fatalf("counter %d (%s): window reads %d, snapshot %d",
				i, snap.Entries[i].Name, got, snap.Entries[i].Value)
		}
	}
	if err := m.Regs.Write(RegPerfSelect, count+100); err != nil {
		t.Fatal(err)
	}
	if lo, _ := m.Regs.Read(RegPerfLo); lo != 0 {
		t.Fatalf("out-of-range counter reads %d, want 0", lo)
	}

	// Sanity on the values themselves.
	mustGet := func(name string) int64 {
		v, ok := snap.Get(name)
		if !ok {
			t.Fatalf("counter %q missing", name)
		}
		return v
	}
	if got := mustGet("extractor.pairs"); got != int64(len(set.Pairs)) {
		t.Fatalf("extractor.pairs=%d, want %d", got, len(set.Pairs))
	}
	if got := mustGet("extractor.unsupported"); got != 1 {
		t.Fatalf("extractor.unsupported=%d, want 1", got)
	}
	if mustGet("machine.jobs") != 1 || mustGet("machine.cycles") == 0 {
		t.Fatal("machine job/cycle counters did not move")
	}
	if mustGet("dma.rd_beats") == 0 || mustGet("collector.transactions") == 0 {
		t.Fatal("datapath counters did not move")
	}
	var pairsSum int64
	for i := 0; i < cfg.NumAligners; i++ {
		pairsSum += mustGet(fmt.Sprintf("aligner%d.pairs", i))
	}
	if pairsSum != int64(len(set.Pairs)) {
		t.Fatalf("aligner pair counters sum to %d, want %d", pairsSum, len(set.Pairs))
	}
}
