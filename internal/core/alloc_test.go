package core

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/seqgen"
	"repro/internal/seqio"
)

// TestMachineTickZeroAllocSteadyState is the runtime half of the hotalloc
// contract: after one warm-up job has grown every retained buffer (SeqRAM
// words, wavefront pools, range trackers, outbox, collector pad scratch, the
// per-job maps, the FIFO and port queues), re-running the same job through
// Machine.Run must not make a single heap allocation. The static analyzer
// proves no allocation construct is reachable from Tick; this test proves
// the ones behind cold constructors and waivers really are one-time costs.
// The pin is the whole job's malloc count, not a per-tick average: a few
// hundred objects per job average to 0 over tens of thousands of ticks.
// Both simulation modes are pinned. NBT mode with no tracer attached is the
// guaranteed-zero configuration (backtrace streaming and tracing are the
// documented allocating slow paths).
func TestMachineTickZeroAllocSteadyState(t *testing.T) {
	for _, mode := range []SimMode{SimSkip, SimTicker} {
		cfg := testConfig()
		g := seqgen.New(71, 72)
		set := &seqio.InputSet{}
		for i := 0; i < 4; i++ {
			set.Pairs = append(set.Pairs, g.Pair(uint32(i+1), 256, 0.05))
		}
		img, err := set.BuildImage()
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := NewStandaloneMachine(cfg, 1<<22)
		if err != nil {
			t.Fatal(err)
		}
		m.SetSimMode(mode)
		inputAddr := int64(0)
		outputAddr := (int64(len(img)) + mem.BeatBytes + 15) &^ 15

		// Warm-up: the first job takes every growth path once.
		want, _ := driveJob(t, m, set, false, inputAddr, outputAddr)

		// Steady state: restart the identical job (configuration and start
		// are outside the measured region, like a driver reusing a machine)
		// and count the mallocs of the whole run. The count is process-wide,
		// so, as testing.AllocsPerRun does, the run is measured at
		// GOMAXPROCS 1, where no other goroutine allocates beside it; the
		// collection first starts the runtime's mark workers, whose first
		// start would otherwise be counted against the job.
		configureJob(t, m, set, false, inputAddr, outputAddr)
		procs := runtime.GOMAXPROCS(1)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = m.Run(500_000_000)
		runtime.ReadMemStats(&after)
		runtime.GOMAXPROCS(procs)
		if err != nil {
			t.Fatal(err)
		}
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("mode %d: a warmed job allocated %d objects (%d B), want 0",
				mode, n, after.TotalAlloc-before.TotalAlloc)
		}
		if m.Regs.Errored() {
			t.Fatal("measured job errored")
		}
		count, err := m.Regs.Read(RegOutCount)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Memory().Read(outputAddr, int(count)*mem.BeatBytes); !bytes.Equal(got, want) {
			t.Fatalf("mode %d: measured job produced different output", mode)
		}
	}
}

// TestMachineSkipJumpZeroAlloc pins the event-skipping path to the same
// contract: on a warmed machine, a SkipTicks jump — Controller, Extractor,
// Aligner, Collector and FIFO jumps included — runs without a heap
// allocation. The measured jumps are one-tick steps through a single inert
// window, which the horizon contract allows: a window of n ticks may be
// crossed in any split of its first n-1.
func TestMachineSkipJumpZeroAlloc(t *testing.T) {
	const runs = 16
	cfg := testConfig()
	g := seqgen.New(73, 74)
	set := &seqio.InputSet{}
	for i := 0; i < 4; i++ {
		set.Pairs = append(set.Pairs, g.Pair(uint32(i+1), 1000, 0.05))
	}
	img, err := set.BuildImage()
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := NewStandaloneMachine(cfg, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	m.SetSimMode(SimSkip)
	inputAddr := int64(0)
	outputAddr := (int64(len(img)) + mem.BeatBytes + 15) &^ 15
	want, _ := driveJob(t, m, set, false, inputAddr, outputAddr)

	// Tick the identical job up to a window wide enough for every measured
	// jump (AllocsPerRun adds one warm-up call).
	configureJob(t, m, set, false, inputAddr, outputAddr)
	for m.Tick(); ; m.Tick() {
		if !m.running {
			t.Fatalf("job ended before a %d-tick skip window opened", runs+2)
		}
		if n, ok := m.NextEventIn(); ok && n >= runs+2 {
			break
		}
	}
	if allocs := testing.AllocsPerRun(runs, func() { m.SkipTicks(1) }); allocs != 0 {
		t.Errorf("SkipTicks allocated %v objects per jump in steady state, want 0", allocs)
	}
	if _, err := m.Run(500_000_000); err != nil {
		t.Fatal(err)
	}
	count, err := m.Regs.Read(RegOutCount)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Memory().Read(outputAddr, int(count)*mem.BeatBytes); !bytes.Equal(got, want) {
		t.Fatal("job crossed in one-tick jumps produced different output")
	}
}
