package core

import (
	"testing"

	"repro/internal/seqgen"
)

// A running aligner's horizon is its busy countdown plus one: the n-1
// countdown ticks change nothing but bulk accounting, and the nth tick
// advances the score (the predicted event).
func TestAlignerHorizonConservative(t *testing.T) {
	cfg := testConfig()
	a := NewAlignerHW(cfg, 0)
	g := seqgen.New(1, 2)
	pair := g.Pair(1, 100, 0.05)
	var sa, sb SeqRAM
	if err := LoadSeqRAMInto(&sa, 1, pair.A); err != nil {
		t.Fatal(err)
	}
	if err := LoadSeqRAMInto(&sb, 1, pair.B); err != nil {
		t.Fatal(err)
	}
	a.BeginLoad()
	if n, ok := a.NextEventIn(); !ok || n != inertForever {
		t.Fatalf("loading horizon = (%d, %v), want (inertForever, true)", n, ok)
	}
	a.Start(1, &sa, &sb, false, false, 0)
	n, ok := a.NextEventIn()
	if !ok || n != uint64(a.busy)+1 {
		t.Fatalf("running horizon = (%d, %v), want busy+1 = %d", n, ok, a.busy+1)
	}
	steps := a.Stats.Steps + a.Stats.EmptySteps
	for i := uint64(1); i < n; i++ {
		a.Tick(int64(i))
		if got := a.Stats.Steps + a.Stats.EmptySteps; got != steps {
			t.Fatalf("score step fired on inert tick %d of horizon %d", i, n)
		}
		if a.finished || a.HasOutput() {
			t.Fatalf("aligner produced output on inert tick %d of horizon %d", i, n)
		}
	}
	a.Tick(int64(n))
	if got := a.Stats.Steps + a.Stats.EmptySteps; got == steps && !a.finished {
		t.Fatalf("predicted event did not fire at horizon %d", n)
	}
}

// SkipTicks across the busy countdown must match naive ticking bit for bit.
func TestAlignerSkipTicksMatchesNaive(t *testing.T) {
	cfg := testConfig()
	mk := func() *AlignerHW {
		a := NewAlignerHW(cfg, 0)
		g := seqgen.New(3, 4)
		pair := g.Pair(1, 200, 0.1)
		var sa, sb SeqRAM
		if err := LoadSeqRAMInto(&sa, 1, pair.A); err != nil {
			t.Fatal(err)
		}
		if err := LoadSeqRAMInto(&sb, 1, pair.B); err != nil {
			t.Fatal(err)
		}
		a.BeginLoad()
		a.Start(1, &sa, &sb, false, true, 0)
		return a
	}
	naive, skip := mk(), mk()
	n, ok := naive.NextEventIn()
	if !ok || n < 2 {
		t.Fatalf("horizon = (%d, %v), want >= 2", n, ok)
	}
	for i := uint64(1); i < n; i++ {
		naive.Tick(int64(i))
	}
	skip.SkipTicks(n - 1)
	if naive.Stats != skip.Stats || naive.busy != skip.busy || naive.s != skip.s {
		t.Fatalf("aligner state diverged after skip: naive busy=%d stats=%+v, skip busy=%d stats=%+v",
			naive.busy, naive.Stats, skip.busy, skip.Stats)
	}
}

// A backpressured collector is inert (bulk stall accounting only) until the
// DMA write engine drains the FIFO; SkipTicks must account the stalls
// exactly as naive ticks do.
func TestCollectorHorizonBackpressure(t *testing.T) {
	cfg := testConfig()
	mkPair := func() (*Collector, *AlignerHW) {
		f := newTestFIFO(1)
		a := NewAlignerHW(cfg, 0)
		c := NewCollector(cfg, f, []*AlignerHW{a})
		c.Configure(1, false, nil)
		f.Push([16]byte{})
		f.Tick() // FIFO now full
		return c, a
	}
	naive, _ := mkPair()
	skip, _ := mkPair()
	if n, ok := naive.NextEventIn(); !ok || n != inertForever {
		t.Fatalf("backpressured horizon = (%d, %v), want (inertForever, true)", n, ok)
	}
	for i := 0; i < 7; i++ {
		naive.Tick()
	}
	skip.SkipTicks(7)
	if naive.BackpressureCycles != skip.BackpressureCycles {
		t.Fatalf("backpressure accounting diverged: naive %d, skip %d",
			naive.BackpressureCycles, skip.BackpressureCycles)
	}
	if naive.Transactions != 0 || skip.Transactions != 0 {
		t.Fatal("backpressured collector emitted a transaction")
	}
}

// The extractor's dispatch countdown horizon must land the dispatch on
// exactly the predicted tick, and SkipTicks must account the countdown
// identically to naive ticks.
func TestExtractorDispatchHorizon(t *testing.T) {
	cfg := testConfig()
	mk := func() (*Extractor, *AlignerHW) {
		f := newTestFIFO(64)
		a := NewAlignerHW(cfg, 0)
		e := NewExtractor(cfg, f, []*AlignerHW{a})
		g := seqgen.New(5, 6)
		set := g.Set(seqgen.Profile{Name: "t", Length: 48, ErrorRate: 0.05, NumPairs: 1})
		e.Configure(set.EffectiveMaxReadLen(), 1, false)
		img, err := set.BuildImage()
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(img); off += 16 {
			var beat [16]byte
			copy(beat[:], img[off:off+16])
			f.Push(beat)
		}
		f.Tick()
		// Begin the pair, then stream every beat in.
		cycle := int64(0)
		for !f.Empty() || !e.loading {
			cycle++
			e.Tick(cycle)
			if e.loading && e.beatIdx >= e.pairBeats {
				break
			}
		}
		if e.dispatchWait != cfg.Timing.DispatchOverhead {
			t.Fatalf("setup did not reach the dispatch countdown (wait=%d)", e.dispatchWait)
		}
		return e, a
	}
	naive, _ := mk()
	skip, _ := mk()
	n, ok := naive.NextEventIn()
	if !ok || n != uint64(cfg.Timing.DispatchOverhead) {
		t.Fatalf("dispatch horizon = (%d, %v), want (%d, true)", n, ok, cfg.Timing.DispatchOverhead)
	}
	for i := uint64(1); i < n; i++ {
		naive.Tick(int64(100 + i))
		if naive.pairsDispatched != 0 {
			t.Fatalf("dispatch fired on inert tick %d of horizon %d", i, n)
		}
	}
	skip.SkipTicks(n - 1)
	if naive.Stats != skip.Stats || naive.dispatchWait != skip.dispatchWait {
		t.Fatalf("extractor state diverged: naive wait=%d stats=%+v, skip wait=%d stats=%+v",
			naive.dispatchWait, naive.Stats, skip.dispatchWait, skip.Stats)
	}
	naive.Tick(int64(100 + n))
	skip.Tick(int64(100 + n))
	if naive.pairsDispatched != 1 || skip.pairsDispatched != 1 {
		t.Fatalf("predicted dispatch did not fire at horizon %d (naive=%d skip=%d)",
			n, naive.pairsDispatched, skip.pairsDispatched)
	}
}

// TestMachineHorizonOracle runs real jobs under the naive ticker and, every
// time the machine promises a horizon n > 1, verifies over the next n-1
// naive ticks that no event fires: no FIFO motion, no DMA beats, no
// dispatches, no transactions, no score steps — only bulk stall accounting.
func TestMachineHorizonOracle(t *testing.T) {
	for _, bt := range []bool{false, true} {
		cfg := testConfig()
		cfg.NumAligners = 2
		g := seqgen.New(11, 12)
		set := g.Set(seqgen.Profile{Name: "oracle", Length: 150, ErrorRate: 0.1, NumPairs: 4})
		m := startRegJob(t, cfg, set, bt)
		m.SetSimMode(SimTicker)

		checked := 0
		for i := 0; i < 50_000_000 && (m.Regs.startRequested || !m.Regs.Idle()); i++ {
			n, ok := m.NextEventIn()
			if !ok || n <= 1 {
				m.Tick()
				continue
			}
			checked++
			before := eventSig(m)
			for j := uint64(1); j < n && !m.Regs.Idle(); j++ {
				m.Tick()
				if sig := eventSig(m); sig != before {
					t.Fatalf("bt=%v: event fired on inert tick %d of horizon %d:\nbefore %+v\nafter  %+v",
						bt, j, n, before, sig)
				}
			}
		}
		if !m.Regs.Idle() {
			t.Fatalf("bt=%v: job did not finish", bt)
		}
		if checked == 0 {
			t.Fatalf("bt=%v: the oracle never saw a skippable horizon", bt)
		}
	}
}

// eventSigT is every observable the horizon contract declares frozen inside
// an inert window (bulk stall counters excluded by construction).
type eventSigT struct {
	beatsRead, beatsWritten        int64
	inPush, inPop, outPush, outPop int64
	dispatched                     int
	emitted                        int64
	steps, pairs                   int64
	outboxLen                      int
	readBeatsLeft, outstanding     int
	writeBufLen                    int
	running                        bool
	outCRC                         uint32
}

func eventSig(m *Machine) eventSigT {
	s := eventSigT{
		beatsRead:     m.rdPort.BeatsRead,
		beatsWritten:  m.wrPort.BeatsWritten,
		inPush:        m.inFIFO.Pushes,
		inPop:         m.inFIFO.Pops,
		outPush:       m.outFIFO.Pushes,
		outPop:        m.outFIFO.Pops,
		dispatched:    m.extractor.pairsDispatched,
		emitted:       m.collector.Emitted,
		readBeatsLeft: m.readBeatsLeft,
		outstanding:   m.outstanding,
		writeBufLen:   m.writeBuf.Len(),
		running:       m.running,
		outCRC:        m.collector.outCRC,
	}
	for _, a := range m.aligners {
		s.steps += a.Stats.Steps + a.Stats.EmptySteps
		s.pairs += a.Stats.Pairs
		s.outboxLen += len(a.outbox) - a.obHead
	}
	return s
}
