//go:build unix

package wfa

import (
	"syscall"
	"testing"
)

// overlongSequence maps MaxSeqLen+1 bytes of address space without
// committing memory; the guard must reject it by length alone.
func overlongSequence(t *testing.T) []byte {
	t.Helper()
	b, err := syscall.Mmap(-1, 0, MaxSeqLen+1, syscall.PROT_READ, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("cannot map %d bytes: %v", MaxSeqLen+1, err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(b) })
	return b
}
