package mem

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// TestZeroFromMatchesNaiveScrub drives random Write/WriteBeat sequences with
// ZeroFrom at random addresses mixed in, against a model that clears
// everything from addr to the end of memory. The memory must stay byte-equal
// to the model, and the high-water invariant (every byte at or above hw is
// zero) must hold after every operation.
func TestZeroFromMatchesNaiveScrub(t *testing.T) {
	const size = 4096
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x2E20))
		m := NewMemory(size)
		model := make([]byte, size)
		for op := 0; op < 400; op++ {
			switch rng.IntN(4) {
			case 0:
				n := rng.IntN(200)
				addr := int64(rng.IntN(size - n + 1))
				b := make([]byte, n)
				for i := range b {
					b[i] = byte(rng.IntN(256))
				}
				m.Write(addr, b)
				copy(model[addr:], b)
			case 1:
				addr := int64(rng.IntN(size/BeatBytes)) * BeatBytes
				var beat [BeatBytes]byte
				for i := range beat {
					beat[i] = byte(rng.IntN(256))
				}
				m.WriteBeat(addr, &beat)
				copy(model[addr:], beat[:])
			default:
				// Addresses past the end are legal no-ops.
				addr := int64(rng.IntN(size + 64))
				m.ZeroFrom(addr)
				if addr < size {
					clear(model[addr:])
				}
			}
			if !bytes.Equal(m.View(0, size), model) {
				t.Fatalf("seed %d op %d: memory diverged from the naive scrub model", seed, op)
			}
			if m.hw < 0 || m.hw > size {
				t.Fatalf("seed %d op %d: high-water mark %d outside [0, %d]", seed, op, m.hw, size)
			}
			for i := m.hw; i < size; i++ {
				if m.data[i] != 0 {
					t.Fatalf("seed %d op %d: byte %d above high-water mark %d is %#x", seed, op, i, m.hw, m.data[i])
				}
			}
		}
	}
}

// TestZeroFromAllocatesNothing pins the scrub's allocation budget at zero.
func TestZeroFromAllocatesNothing(t *testing.T) {
	m := NewMemory(1 << 16)
	chunk := bytes.Repeat([]byte{0xA5}, 1024)
	allocs := testing.AllocsPerRun(100, func() {
		m.Write(2048, chunk)
		m.ZeroFrom(1024)
	})
	if allocs != 0 {
		t.Fatalf("ZeroFrom allocated %v objects per call, want 0", allocs)
	}
}

// TestZeroFromNegativeAddressPanics keeps a bad scrub address loud.
func TestZeroFromNegativeAddressPanics(t *testing.T) {
	m := NewMemory(64)
	defer func() {
		if recover() == nil {
			t.Fatal("ZeroFrom(-1) did not panic")
		}
	}()
	m.ZeroFrom(-1)
}
