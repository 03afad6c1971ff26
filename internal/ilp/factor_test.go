package ilp

import (
	"math"
	"testing"
)

// TestDSEWeightsMatchRowNorms checks the maintained dual steepest-edge
// weights against their definition. A CASA-shaped model is solved from
// the crash basis, one pivot at a time, through a sequence of bound
// changes the way branch & bound drives the engine, until well past
// several refactorizations. After every pivot each weight β_i must
// equal ‖e_iᵀB⁻¹‖², recomputed from scratch by btranUnit, to a 1e-6
// relative tolerance. The one exception is the floor: a weight the
// update clamped to (w_i/w_r)² usually lands on the norm (the update
// rounded just below it), but (w_i/w_r)² bounds the norm only when the
// leaving column is a unit column, so a clamp may also overshoot. Such
// a position is exempt until it next leaves the basis, which
// recomputes its weight exactly.
func TestDSEWeightsMatchRowNorms(t *testing.T) {
	r := casaRNG(0x5deece66d)
	m := buildCASAModel(&r, 40, 80, true)
	e := newFSX(m)
	if e == nil {
		t.Fatal("no factored engine for a CASA model")
	}
	rootLo := append([]float64(nil), e.lo[:e.n]...)
	rootHi := append([]float64(nil), e.hi[:e.n]...)
	lo := append([]float64(nil), rootLo...)
	hi := append([]float64(nil), rootHi...)

	exempt := make([]bool, e.m)
	clamped := make([]bool, e.m)
	prevBasis := make([]int, e.m)
	pivots, checks, clamps, inexact, refactors := 0, 0, 0, 0, 0
	target := 4 * fsxRefactorEvery
	for node := 0; pivots < target && node < 500; node++ {
		// Branch: fix one still-free column at a random bound; start over
		// from the root box once a node turns out infeasible.
		j := r.intn(e.n)
		if hi[j]-lo[j] > 0.5 {
			if r.intn(2) == 0 {
				hi[j] = lo[j]
			} else {
				lo[j] = hi[j]
			}
		}
		e.setBounds(lo, hi)
		for step := 0; ; step++ {
			if step > 10*e.m {
				t.Fatalf("node %d: no optimum after %d steps", node, step)
			}
			copy(prevBasis, e.basis)
			before, sinceBefore := e.iters, e.sinceRefresh
			st := e.solve(0) // at most one pivot per call
			if e.iters == before {
				if st == Optimal || st == Infeasible {
					if st == Infeasible {
						copy(lo, rootLo)
						copy(hi, rootHi)
					}
					break
				}
				continue // refresh after a degenerate pivot
			}
			pivots++
			if e.sinceRefresh < sinceBefore {
				refactors++
			}
			lr := -1
			for i, b := range e.basis {
				if b != prevBasis[i] {
					lr = i
				}
			}
			piv := e.w[lr]
			for i, wi := range e.w {
				k := wi / piv
				clamped[i] = i != lr && wi != 0 && e.dse[i] == k*k
				if clamped[i] {
					clamps++
				}
			}
			exempt[lr] = false
			for i := 0; i < e.m; i++ {
				if exempt[i] {
					continue
				}
				e.btranUnit(i)
				want := 0.0
				for _, v := range e.rho {
					want += v * v
				}
				if math.Abs(e.dse[i]-want) <= 1e-6*want {
					checks++
					continue
				}
				if !clamped[i] {
					t.Fatalf("pivot %d (node %d): β[%d] = %.12g, ‖e_iᵀB⁻¹‖² = %.12g",
						pivots, node, i, e.dse[i], want)
				}
				exempt[i] = true
				inexact++
			}
		}
	}
	if refactors == 0 {
		t.Fatalf("%d pivots never reached a refactorization", pivots)
	}
	t.Logf("%d rows, %d pivots, %d refactorizations, %d weights checked exact; %d clamps, %d of them off the norm and exempt",
		e.m, pivots, refactors, checks, clamps, inexact)
}
