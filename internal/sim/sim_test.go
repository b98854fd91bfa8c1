package sim

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestFIFOShowAhead(t *testing.T) {
	f := NewFIFO[int](4)
	if !f.Empty() || f.Full() {
		t.Fatal("fresh FIFO state wrong")
	}
	if !f.Push(1) || !f.Push(2) {
		t.Fatal("push failed")
	}
	// Staged data is not visible before Tick.
	if _, ok := f.Front(); ok {
		t.Fatal("staged data visible before Tick")
	}
	f.Tick()
	if v, ok := f.Front(); !ok || v != 1 {
		t.Fatalf("Front=%v,%v", v, ok)
	}
	// Front does not consume.
	if v, _ := f.Front(); v != 1 {
		t.Fatal("Front consumed data")
	}
	if v, _ := f.Pop(); v != 1 {
		t.Fatal("Pop wrong order")
	}
	if v, _ := f.Pop(); v != 2 {
		t.Fatal("Pop wrong order")
	}
	if _, ok := f.Pop(); ok {
		t.Fatal("Pop on empty succeeded")
	}
}

func TestFIFOFull(t *testing.T) {
	f := NewFIFO[int](2)
	f.Push(1)
	f.Push(2)
	if f.Push(3) {
		t.Fatal("push beyond depth accepted")
	}
	if f.StallFull != 1 {
		t.Fatalf("StallFull=%d", f.StallFull)
	}
	f.Tick()
	f.Pop()
	if !f.Push(3) {
		t.Fatal("push after pop rejected")
	}
}

func TestFIFOOrderProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 5))
		fifo := NewFIFO[uint64](8)
		var pushed, popped []uint64
		next := uint64(0)
		for step := 0; step < 500; step++ {
			if r.IntN(2) == 0 && !fifo.Full() {
				fifo.Push(next)
				pushed = append(pushed, next)
				next++
			}
			if r.IntN(2) == 0 {
				if v, ok := fifo.Pop(); ok {
					popped = append(popped, v)
				}
			}
			fifo.Tick()
		}
		for fifo.Len() > 0 {
			v, _ := fifo.Pop()
			popped = append(popped, v)
			fifo.Tick()
		}
		if len(popped) != len(pushed) {
			return false
		}
		for i := range popped {
			if popped[i] != pushed[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOResetAndStats(t *testing.T) {
	f := NewFIFO[int](4)
	f.Push(1)
	f.Push(2)
	f.Tick()
	f.Pop()
	if f.Pushes != 2 || f.Pops != 1 {
		t.Fatalf("stats: pushes=%d pops=%d", f.Pushes, f.Pops)
	}
	if f.MaxOccupancy != 2 {
		t.Fatalf("MaxOccupancy=%d", f.MaxOccupancy)
	}
	f.Reset()
	if !f.Empty() || f.Pushes != 0 || f.MaxOccupancy != 0 {
		t.Fatal("Reset incomplete")
	}
	if f.Depth() != 4 {
		t.Fatalf("Depth=%d", f.Depth())
	}
}

func TestDualPortRAM(t *testing.T) {
	r := NewDualPortRAM(8)
	r.Write(3, 0xBEEF)
	r.Tick()
	r.Read(3)
	if _, ok := r.Data(); ok {
		t.Fatal("read data valid before Tick")
	}
	r.Tick()
	if v, ok := r.Data(); !ok || v != 0xBEEF {
		t.Fatalf("Data=%x,%v", v, ok)
	}
	// Same-cycle write+read of the same address: write-before-read.
	r.Write(4, 0xAA)
	r.Read(4)
	r.Tick()
	if v, _ := r.Data(); v != 0xAA {
		t.Fatalf("write-before-read broken: %x", v)
	}
}

func TestSinglePortRAMConflictPanics(t *testing.T) {
	r := NewSinglePortRAM(4)
	r.Read(0)
	defer func() {
		if recover() == nil {
			t.Fatal("double access did not panic")
		}
	}()
	r.Write(1, 2)
}

func TestRegFileFIFOMatchesFIFO(t *testing.T) {
	// The Section 4.6 wrapper must be observationally identical to the
	// FPGA-prototype show-ahead FIFO.
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 9))
		ref := NewFIFO[uint64](16)
		dut := NewRegFileFIFO(16)
		next := uint64(1)
		for step := 0; step < 400; step++ {
			doPush := r.IntN(2) == 0
			doPop := r.IntN(2) == 0
			if doPush {
				okRef := ref.Push(next)
				okDut := dut.Push(next)
				if okRef != okDut {
					return false
				}
				if okRef {
					next++
				}
			}
			if doPop {
				vRef, okRef := ref.Pop()
				vDut, okDut := dut.Pop()
				if okRef != okDut || vRef != vDut {
					return false
				}
			}
			ref.Tick()
			dut.Tick()
			if ref.Empty() != dut.Empty() || ref.Full() != dut.Full() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSPAsDPBehavesLikeDualPort(t *testing.T) {
	// Random traffic: when read and write collide, the wrapper serializes
	// but must still return the correct data.
	r := rand.New(rand.NewPCG(12, 13))
	dut := NewSPAsDP(32)
	model := make([]uint64, 32)
	type exp struct{ val uint64 }
	var expect []exp
	for step := 0; step < 1000; step++ {
		if !dut.Ready() {
			dut.Tick()
			if v, ok := dut.Data(); ok {
				if len(expect) == 0 || v != expect[0].val {
					t.Fatalf("step %d: deferred read returned %d", step, v)
				}
				expect = expect[1:]
			}
			continue
		}
		doRead := r.IntN(2) == 0
		doWrite := r.IntN(2) == 0
		var raddr int
		if doWrite {
			addr := r.IntN(32)
			val := r.Uint64() % 1000
			dut.Write(addr, val)
			model[addr] = val
		}
		if doRead {
			raddr = r.IntN(32)
			dut.Read(raddr)
			// Write-first semantics: the serialized wrapper commits the
			// write before the read, so the read sees the new value.
			expect = append(expect, exp{model[raddr]})
		}
		dut.Tick()
		if v, ok := dut.Data(); ok {
			if len(expect) == 0 {
				t.Fatalf("step %d: unexpected read data %d", step, v)
			}
			if v != expect[0].val {
				t.Fatalf("step %d: read %d want %d", step, v, expect[0].val)
			}
			expect = expect[1:]
		}
	}
}

func TestSPAsDPSerializationCount(t *testing.T) {
	dut := NewSPAsDP(4)
	dut.Write(0, 7)
	dut.Read(0)
	dut.Tick() // write committed, read deferred
	if dut.Ready() {
		t.Fatal("wrapper ready while read deferred")
	}
	dut.Tick() // deferred read completes
	if v, ok := dut.Data(); !ok || v != 7 {
		t.Fatalf("Data=%d,%v", v, ok)
	}
	if dut.Serialized != 1 {
		t.Fatalf("Serialized=%d", dut.Serialized)
	}
}

// TestQueueOrderAndReuse checks Queue against a plain slice model under a
// random mix of pushes, batch pushes, pops and drops, and that a stream
// whose occupancy stays bounded stops growing the backing array: a queue
// that re-sliced its front away would reallocate for ever.
func TestQueueOrderAndReuse(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	var q Queue[int]
	var model []int
	next := 0
	grows := 0
	for step := 0; step < 20000; step++ {
		before := cap(q.items)
		switch op := r.IntN(4); {
		case op == 0 && len(model) < 24:
			q.Push(next)
			model = append(model, next)
			next++
		case op == 1 && len(model) < 20:
			batch := []int{next, next + 1, next + 2}
			q.PushAll(batch)
			model = append(model, batch...)
			next += 3
		case op == 2 && len(model) > 0:
			if got := q.Pop(); got != model[0] {
				t.Fatalf("step %d: popped %d, want %d", step, got, model[0])
			}
			model = model[1:]
		case op == 3 && len(model) > 0:
			n := 1 + r.IntN(len(model))
			q.Drop(n)
			model = model[n:]
		}
		if q.Len() != len(model) {
			t.Fatalf("step %d: Len %d, want %d", step, q.Len(), len(model))
		}
		for i, v := range q.Items() {
			if v != model[i] {
				t.Fatalf("step %d: item %d is %d, want %d", step, i, v, model[i])
			}
		}
		if len(model) > 0 && q.Front() != model[0] {
			t.Fatalf("step %d: Front %d, want %d", step, q.Front(), model[0])
		}
		if cap(q.items) != before {
			grows++
		}
	}
	if grows > 8 {
		t.Errorf("backing array grew %d times for an occupancy of at most 24", grows)
	}
	q.Clear()
	if q.Len() != 0 || len(q.Items()) != 0 {
		t.Fatal("Clear left items queued")
	}
}
