// Package sim provides the clocked hardware primitives the accelerator model
// is built from: show-ahead FIFOs, dual-port RAM models, and the two ASIC
// memory wrappers of Section 4.6 (a show-ahead FIFO implemented over a
// register file, and a single-port memory macro presented as a dual-port
// RAM).
//
// All primitives follow a two-phase update discipline: writes performed
// during a cycle become visible only after Tick(), which removes ordering
// artifacts between components updated in the same simulated cycle.
package sim

import "repro/internal/invariant"

// inertForever is the horizon a module reports when it cannot change state
// on its own: only another module's activity (bounded by that module's own
// horizon) can wake it, so the machine-level min() is what actually bounds
// the skip.
const inertForever = ^uint64(0)

// FIFO is a show-ahead FIFO of fixed depth: the oldest unread word is
// available combinationally at Front and is consumed by Pop (the Vivado
// "show ahead" mode of Section 4.6). Pushes are staged and commit at Tick,
// modeling the one-cycle write-to-read latency of the hardware queue.
type FIFO[T any] struct {
	depth  int
	queue  Queue[T]
	staged []T
	// Statistics for bandwidth analysis.
	Pushes       int64
	Pops         int64
	StallFull    int64 // failed pushes
	MaxOccupancy int
}

// NewFIFO returns a FIFO holding up to depth words.
func NewFIFO[T any](depth int) *FIFO[T] {
	invariant.Checkf(depth > 0, "sim", "FIFO depth must be positive, got %d", depth)
	return &FIFO[T]{depth: depth}
}

// Depth returns the configured capacity.
func (f *FIFO[T]) Depth() int { return f.depth }

// Len returns the number of words visible to the reader this cycle.
func (f *FIFO[T]) Len() int { return f.queue.Len() }

// Occupancy returns visible plus staged words (what the writer sees as
// fullness).
func (f *FIFO[T]) Occupancy() int { return f.queue.Len() + len(f.staged) }

// Full reports whether a push this cycle would overflow.
func (f *FIFO[T]) Full() bool { return f.Occupancy() >= f.depth }

// Empty reports whether the reader sees no data this cycle.
func (f *FIFO[T]) Empty() bool { return f.queue.Len() == 0 }

// Push stages one word; it reports false (and counts a stall) when full.
func (f *FIFO[T]) Push(v T) bool {
	if f.Full() {
		f.StallFull++
		return false
	}
	f.staged = append(f.staged, v)
	f.Pushes++
	return true
}

// Front returns the oldest visible word without consuming it.
func (f *FIFO[T]) Front() (T, bool) {
	var zero T
	if f.queue.Len() == 0 {
		return zero, false
	}
	return f.queue.Front(), true
}

// Pop consumes the word exposed by Front.
func (f *FIFO[T]) Pop() (T, bool) {
	var zero T
	if f.queue.Len() == 0 {
		return zero, false
	}
	v := f.queue.Pop()
	f.Pops++
	return v, true
}

// Tick commits staged pushes, making them visible to the reader next cycle.
func (f *FIFO[T]) Tick() {
	if len(f.staged) > 0 {
		f.queue.PushAll(f.staged)
		f.staged = f.staged[:0]
	}
	if occ := f.Occupancy(); occ > f.MaxOccupancy {
		f.MaxOccupancy = occ
	}
}

// NextEventIn reports a conservative horizon for the event-skipping core:
// the number of ticks n such that ticks 1..n-1 are provably inert for this
// FIFO. With pushes staged, the very next Tick commits them (n = 1). With
// nothing staged, Tick is a pure no-op forever: the queue cannot change
// until some producer calls Push, and every producer's own horizon already
// bounds when that can happen, so the FIFO itself reports "inert until
// further notice" (MaxUint64).
func (f *FIFO[T]) NextEventIn() (uint64, bool) {
	if len(f.staged) > 0 {
		return 1, true
	}
	return inertForever, true
}

// SkipTicks advances the FIFO across k provably-inert ticks. Nothing is
// staged inside an inert window (NextEventIn returned > 1), so there is
// nothing to commit, and MaxOccupancy was already raised to the current
// occupancy by the last executed Tick — a no-op is bit-identical to k
// naive Tick calls.
func (f *FIFO[T]) SkipTicks(k uint64) {
	if len(f.staged) != 0 {
		invariant.Failf("sim", "FIFO.SkipTicks with %d staged pushes", len(f.staged))
	}
	_ = k
}

// Reset discards all contents and statistics.
func (f *FIFO[T]) Reset() {
	f.queue.Clear()
	f.staged = f.staged[:0]
	f.Pushes, f.Pops, f.StallFull = 0, 0, 0
	f.MaxOccupancy = 0
}

// Clear discards all contents but keeps the statistics counters — the
// hardware flush used between jobs, where the perf counters are monotone
// over the machine's lifetime and only the data path is scrubbed.
func (f *FIFO[T]) Clear() {
	f.queue.Clear()
	f.staged = f.staged[:0]
}
