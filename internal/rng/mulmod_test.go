package rng

import "testing"

// TestMulModMatchesRemainder checks Seed's division-free reduction
// against % for every jump power times the edges of the seed domain.
func TestMulModMatchesRemainder(t *testing.T) {
	for _, x := range []uint64{1, 2, lehmerA, 89482311, 1 << 30, int32max - 2, int32max - 1} {
		for k, y := range jumpPow {
			if got, want := mulMod(x, y), int64(x*y%int32max); got != want {
				t.Fatalf("mulMod(%d, jumpPow[%d]=%d) = %d, want %d", x, k, y, got, want)
			}
		}
	}
}
