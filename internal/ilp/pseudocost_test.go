package ilp

import (
	"math"
	"testing"
)

// TestPseudocostEmptyTableIsMostFractional proves the degeneration
// claim in pcTable.score's contract: with no observations, the product
// rule ranks fractional variables exactly like the
// most-fractional rule (distance to the nearest integer, first index on
// ties), so a solve branches most-fractional until it has observed a
// branching.
func TestPseudocostEmptyTableIsMostFractional(t *testing.T) {
	rng := testRNG(31337)
	for trial := 0; trial < 200; trial++ {
		n := 2 + int(rng.next()%8)
		pc := newPCTable(n)
		fracs := make([]float64, n)
		for j := range fracs {
			fracs[j] = rng.fl(0.01, 0.99)
		}
		mostFrac, mfWorst := -1, 0.0
		for j, f := range fracs {
			if d := math.Min(f, 1-f); d > mfWorst {
				mostFrac, mfWorst = j, d
			}
		}
		pcBest, pcScore := -1, 0.0
		for j, f := range fracs {
			if sc := pc.score(j, f); sc > pcScore {
				pcBest, pcScore = j, sc
			}
		}
		if mostFrac != pcBest {
			t.Fatalf("trial %d: empty-table pseudocost picked %d, most-fractional picked %d (fracs %v)",
				trial, pcBest, mostFrac, fracs)
		}
	}
}
