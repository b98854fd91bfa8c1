package core

import "repro/internal/invariant"

// This file holds the per-module skip horizons of the event-skipping core.
//
// Contract (shared with internal/sim and internal/mem): NextEventIn returns
// (n, true) when the module can prove its next n-1 Tick calls are inert —
// they change nothing except bulk-addable per-tick bookkeeping (stall and
// busy counters, countdowns), which SkipTicks(k) applies in one jump for
// any k <= n-1. The nth tick may produce an event (a state transition, a
// FIFO move, a dispatch). (0, false) means the module cannot promise
// anything and the machine must tick naively. inertForever means the module
// cannot wake on its own: only another module's activity — bounded by that
// module's own horizon — can change its inputs, so the machine-level min()
// is what bounds the skip.
//
// Conservatism is always safe: understating n (or returning ok=false) only
// costs naive ticks, never correctness. The equivalence fuzzer in
// skip_test.go and the conservatism tests in horizon_test.go hold every
// module to the contract.

// inertForever mirrors sim.inertForever / mem.inertForever for the core
// modules.
const inertForever = ^uint64(0)

// NextEventIn reports the extractor's skip horizon.
func (e *Extractor) NextEventIn() (uint64, bool) {
	if !e.loading {
		if e.pairsDispatched >= e.numPairs {
			return inertForever, true // job's pairs all dispatched: pure no-op
		}
		for _, a := range e.aligners {
			if a.Idle() {
				return 1, true // next tick begins a pair load
			}
		}
		return inertForever, true // stalls until an aligner drains (its horizon)
	}
	if e.beatIdx < e.pairBeats {
		if !e.inFIFO.Empty() {
			return 1, true // next tick consumes a beat
		}
		return inertForever, true // stalls until the DMA commits a beat
	}
	if e.dispatchWait > 0 {
		return uint64(e.dispatchWait), true // dispatch fires on tick dispatchWait
	}
	// dispatchWait == 0 with all beats consumed only happens when
	// DispatchOverhead is 0: the extractor is wedged and the naive ticker
	// would spin no-ops until the watchdog fires. Identical under skip.
	return inertForever, true
}

// SkipTicks applies k inert extractor ticks' stall accounting in one jump.
func (e *Extractor) SkipTicks(k uint64) {
	n := int64(k)
	if !e.loading {
		if e.pairsDispatched < e.numPairs {
			e.Stats.WaitAlignerCycles += n
		}
		return
	}
	if e.beatIdx < e.pairBeats {
		if !e.inFIFO.Empty() {
			invariant.Failf("core", "Extractor.SkipTicks(%d) with input data visible", k)
		}
		e.Stats.WaitDataCycles += n
		return
	}
	if e.dispatchWait > 0 {
		if n >= int64(e.dispatchWait) {
			invariant.Failf("core", "Extractor.SkipTicks(%d) overshoots dispatch in %d", k, e.dispatchWait)
		}
		e.Stats.DispatchWaitCycles += n
		e.dispatchWait -= int(n)
	}
}

// NextEventIn reports one aligner's skip horizon.
func (a *AlignerHW) NextEventIn() (uint64, bool) {
	switch a.state {
	case alignerIdle:
		return inertForever, true // wakes only via BeginLoad (extractor's horizon)
	case alignerLoading:
		return inertForever, true // wakes only via Start (extractor's horizon)
	case alignerDraining:
		return 1, true // may go idle as soon as the collector drains the outbox
	}
	// Running: busy countdown ticks are inert; the tick after it reaches
	// zero advances the score (or emits the result / stalls on the outbox).
	return uint64(a.busy) + 1, true
}

// SkipTicks applies k inert aligner ticks' accounting in one jump.
func (a *AlignerHW) SkipTicks(k uint64) {
	n := int64(k)
	switch a.state {
	case alignerIdle:
	case alignerLoading:
		a.Stats.LoadCycles += n
	case alignerDraining:
		invariant.Failf("core", "AlignerHW.SkipTicks(%d) while draining", k)
	case alignerRunning:
		if n > a.busy {
			invariant.Failf("core", "AlignerHW.SkipTicks(%d) overshoots busy countdown %d", k, a.busy)
		}
		a.Stats.BusyCycles += n
		a.busy -= n
	}
}

// NextEventIn reports the collector's skip horizon.
func (c *Collector) NextEventIn() (uint64, bool) {
	if c.outFIFO.Full() {
		// Backpressured: every tick is a bulk-addable stall until the DMA
		// write engine drains the FIFO (bounded by the machine's own
		// write-side horizon, which is 1 while the FIFO holds data).
		return inertForever, true
	}
	if len(c.chunkPayload) > 0 {
		return 1, true // next tick emits the next BT chunk
	}
	for _, a := range c.aligners {
		if a.HasOutput() {
			return 1, true // next tick pulls from an aligner outbox
		}
	}
	if !c.btEnabled && c.resultsSeen >= c.numPairs && len(c.nbtBuf) > 0 {
		return 1, true // next tick flushes the partial NBT transaction
	}
	return inertForever, true
}

// SkipTicks applies k inert collector ticks' accounting in one jump.
func (c *Collector) SkipTicks(k uint64) {
	if c.outFIFO.Full() {
		c.BackpressureCycles += int64(k)
		return
	}
	if len(c.chunkPayload) != 0 {
		invariant.Failf("core", "Collector.SkipTicks(%d) with chunk pending", k)
	}
}
