package soc

import (
	"runtime"
	"testing"

	"repro/internal/mem"
)

// TestScrubClearsEarlierJobOutput is the regression test for the per-attempt
// scrub: a large backtrace job leaves its output stream high in memory, and a
// following 1-pair job on the same SoC must leave nothing of it behind. Every
// byte above the second job's output stream must read zero, so a truncated
// stream can never pick up a previous job's records.
func TestScrubClearsEarlierJobOutput(t *testing.T) {
	s, err := New(testConfig(), 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	opts := ResilientOptions{Backtrace: true}
	if _, err := s.RunResilient(testSet(64, 100, 0.05), opts); err != nil {
		t.Fatal(err)
	}

	first := s.Memory.Read(0, s.Memory.Size())

	small := testSet(1, 100, 0.05)
	img, err := small.BuildImage()
	if err != nil {
		t.Fatal(err)
	}
	outputAddr := (inputBase + len(img) + 15) &^ 15
	rep, err := s.RunResilient(small, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HardwarePairs != 1 {
		t.Fatalf("1-pair job: %d hardware pairs, want 1", rep.HardwarePairs)
	}
	count, err := s.Driver.OutCount()
	if err != nil {
		t.Fatal(err)
	}
	end := outputAddr + count*mem.BeatBytes
	if allZero(first[end:]) {
		t.Fatal("the 64-pair job left nothing above the 1-pair job's output: the test would prove nothing")
	}
	tail := s.Memory.View(int64(end), s.Memory.Size()-end)
	for i, b := range tail {
		if b != 0 {
			t.Fatalf("byte %#x above the 1-pair job's output stream [%#x, %#x) is %#x, want 0",
				end+i, outputAddr, end, b)
		}
	}
}

func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// TestRunResilientByteBudget pins the host bytes a warmed score-only
// RunResilient allocates per call. The scrub clears only the bytes earlier
// attempts wrote, in place; a scrub that allocates a zero buffer over the
// rest of an 8 MiB device memory (the serving default) exceeds the budget
// eightfold.
func TestRunResilientByteBudget(t *testing.T) {
	s, err := New(testConfig(), 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	set := testSet(64, 100, 0.05)
	run := func() {
		rep, err := s.RunResilient(set, ResilientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.HardwarePairs != len(set.Pairs) {
			t.Fatalf("%d of %d pairs from hardware", rep.HardwarePairs, len(set.Pairs))
		}
	}
	for i := 0; i < 2; i++ {
		run()
	}
	const calls = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	const budget = 1 << 20
	if perCall >= budget {
		t.Fatalf("RunResilient allocated %d bytes per call, want < %d", perCall, budget)
	}
	t.Logf("RunResilient: %d bytes per 64-pair call", perCall)
}
