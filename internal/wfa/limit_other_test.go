//go:build !unix

package wfa

import "testing"

func overlongSequence(t *testing.T) []byte {
	t.Skip("no anonymous mappings on this platform")
	return nil
}
