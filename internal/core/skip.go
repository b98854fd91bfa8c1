package core

import "os"

// SimMode selects how Machine.Run / Machine.RunCtx advance simulated time.
//
// SimSkip (the default) is the event-skipping core: between executed ticks
// the machine asks every module for a conservative NextEventIn horizon,
// takes the minimum, clamps it by the watchdog and cycle-budget edges, and
// applies the whole inert window in one SkipTicks jump. The result is
// bit-identical and cycle-count-identical to SimTicker — the equivalence is
// enforced by running every golden in both modes in CI plus the randomized
// fuzzer in skip_test.go — it just executes far fewer Go-level ticks.
//
// SimTicker is the naive reference: one Tick call per simulated cycle.
type SimMode int

const (
	// SimSkip fast-forwards across provably-inert cycle ranges.
	SimSkip SimMode = iota
	// SimTicker executes every simulated cycle naively.
	SimTicker
)

// SimModeEnv is the environment variable NewMachine consults once, at
// construction, to pick the initial SimMode: "ticker" or "naive" selects
// SimTicker, "skip" or empty selects SimSkip. CI runs the golden suite under
// both values.
const SimModeEnv = "WFASIC_SIM_MODE"

// SimModeFromEnv resolves SimModeEnv to a SimMode (unknown values fall back
// to the SimSkip default). Read once per machine at construction so a run's
// mode can never flip mid-job.
func SimModeFromEnv() SimMode {
	switch os.Getenv(SimModeEnv) {
	case "ticker", "naive":
		return SimTicker
	}
	return SimSkip
}

// SimMode returns the machine's current run mode.
func (m *Machine) SimMode() SimMode { return m.mode }

// SetSimMode overrides the mode chosen at construction (tests and the
// naive-vs-skip benchmark flip it explicitly). Takes effect at the next
// Run/RunCtx call; it never changes behavior mid-loop.
func (m *Machine) SetSimMode(mode SimMode) { m.mode = mode }

// SkipStats reports how much work the event-skipping core elided since
// construction: jumps is the number of SkipTicks calls, cycles the total
// simulated cycles they covered. These are simulator-side diagnostics, not
// hardware perf counters, so they live outside the probe space.
func (m *Machine) SkipStats() (jumps, cycles int64) {
	return m.skipJumps, m.skipped
}

// NextEventIn reports the machine-wide skip horizon: the minimum of every
// module's horizon plus the machine's own DMA-engine and perf-sampling
// edges. ok=false when any per-tick work cannot be proven inert — a control
// edge pending (start/reset/abort), a per-tick-live fault injector, or any
// module declining. The machine must then tick naively.
func (m *Machine) NextEventIn() (uint64, bool) {
	if !m.running || m.Regs.startRequested || m.Regs.resetRequested ||
		m.pendingAbort || !m.inj.PerTickQuiescent() {
		return 0, false
	}
	n, ok := m.ctl.NextEventIn()
	if !ok {
		return 0, false
	}

	// DMA read engine: latched responses or an issuable burst act next tick;
	// a throttled stream only accrues bulk rdThrottleCycles until the FIFO
	// or the outstanding count moves (bounded by the modules that move them).
	if m.rdPort.ResponsesPending() {
		n = 1
	} else if m.readBeatsLeft > 0 {
		room := m.inFIFO.Depth() - m.inFIFO.Occupancy() - m.outstanding
		if room >= m.cfg.Timing.Mem.BurstBeats {
			n = 1
		}
	}

	if h, hok := m.extractor.NextEventIn(); !hok {
		return 0, false
	} else if h < n {
		n = h
	}
	for _, a := range m.aligners {
		if h, hok := a.NextEventIn(); !hok {
			return 0, false
		} else if h < n {
			n = h
		}
	}
	if h, hok := m.collector.NextEventIn(); !hok {
		return 0, false
	} else if h < n {
		n = h
	}

	// DMA write engine: pending responses, FIFO data, or a flushable burst
	// act next tick; a sub-burst backlog only accrues bulk wrBacklogCycles.
	if m.wrPort.ResponsesPending() || !m.outFIFO.Empty() ||
		m.writeBuf.Len() >= m.cfg.Timing.Mem.BurstBeats {
		n = 1
	} else if m.writeBuf.Len() > 0 &&
		m.extractor.Done() && m.allAlignersIdle() && m.collector.Done() {
		n = 1 // end-of-job flush condition holds
	}

	if h, hok := m.inFIFO.NextEventIn(); !hok {
		return 0, false
	} else if h < n {
		n = h
	}
	if h, hok := m.outFIFO.NextEventIn(); !hok {
		return 0, false
	} else if h < n {
		n = h
	}

	// Perf-occupancy sampling boundary: the sampling tick itself must
	// execute (occupancies are constant inside the window, so no sample is
	// ever missed or changed by skipping up to the boundary).
	if m.sampleEvery > 0 {
		if b := uint64(m.sampleEvery - m.cycle%m.sampleEvery); b < n {
			n = b
		}
	}
	return n, true
}

// SkipTicks advances the machine across k ticks proven inert by
// NextEventIn: module jumps, bulk DMA stall accounting, the derived
// registers, and the cycle counter — exactly what k naive Tick calls would
// have done, in one step.
//
//vet:hotpath
func (m *Machine) SkipTicks(k uint64) {
	n := int64(k)
	m.cycle += n
	m.ctl.SkipTicks(k)
	if m.readBeatsLeft > 0 {
		// Horizon > 1 implies room < burst (else the read engine would act
		// next tick), so every skipped tick was a throttled one.
		m.rdThrottleCycles += n
	}
	m.extractor.SkipTicks(k)
	for _, a := range m.aligners {
		a.SkipTicks(k)
	}
	m.collector.SkipTicks(k)
	if m.writeBuf.Len() > 0 {
		m.wrBacklogCycles += n
	}
	m.inFIFO.SkipTicks(k)
	m.outFIFO.SkipTicks(k)
	// Derived registers: everything they mirror is constant inside an inert
	// window except the job cycle counter.
	m.Regs.JobCycles = uint64(m.cycle - m.jobStart)
	m.skipJumps++
	m.skipped += n
}
