package ilp

import (
	"fmt"
	"math"
	"testing"
)

// TestDSEWeightsMatchRowNorms checks the maintained dual steepest-edge
// weights against their definition, on both ways the root LP is solved.
// Each run solves a CASA-shaped model the way branch & bound drives the
// engine: a root, then a sequence of bound changes by the dual simplex,
// one pivot at a time, until well past several refactorizations. The
// dual-root run uses mixed-sign gains and starts from the all-slack
// basis (reset), whose unit weights are exact and are then kept up by
// the dual updates alone. The primal-root run uses core's sign pattern
// and first solves the root from the cache-only crash by the primal
// simplex, one iteration at a time. After the start and after every
// pivot of either kind each weight β_i must equal ‖e_iᵀB⁻¹‖²,
// recomputed from scratch by btranUnit, to a 1e-6 relative tolerance.
// The one exception is the floor: a weight the update clamped to
// (w_i/w_r)² usually lands on the norm (the update rounded just below
// it), but (w_i/w_r)² bounds the norm only when the leaving column is a
// unit column, so a clamp may also overshoot. Such a position is exempt
// until it next leaves the basis, which recomputes its weight exactly.
// A two-trace model first checks a crash weight that is not 1.
func TestDSEWeightsMatchRowNorms(t *testing.T) {
	// The crash basis holds a linearization column L with coefficient
	// −2 in its row (L comes first: every column here is a singleton,
	// and the row's first one is crashed); its weight must start at
	// 1/a² = 1/4.
	{
		m := NewModel()
		L := m.AddContinuous("L", 0, 1)
		l1, l2 := m.AddBinary("l1"), m.AddBinary("l2")
		m.AddConstraint("", Expr(1, l1, 1, l2, -2, L), LE, 0)
		m.SetObjective(Expr(3, l1, 4, l2, 5, L), Minimize)
		e := newFSX(m)
		if e == nil || !e.crash() || e.basis[0] != int(L) {
			t.Fatal("crash did not make the singleton L basic")
		}
		e.btranUnit(0)
		if want := e.rho[0] * e.rho[0]; e.dse[0] != want {
			t.Fatalf("crash weight %g, ‖e_0ᵀB⁻¹‖² = %g", e.dse[0], want)
		}
	}

	{
		r := casaRNG(0x5deece66d)
		e := newFSX(buildCASAModel(&r, 40, 80, true))
		if e == nil || !e.reset() {
			t.Fatal("no factored engine for a CASA model")
		}
		c := newDSECheck(t, e)
		c.check("all-slack start", -1)
		c.dualNodes(&r)
		c.log("dual root")
	}

	{
		r := casaRNG(0x5deece66d)
		e := newFSX(buildCacheOnlyModel(&r, 40, 80, true))
		if e == nil {
			t.Fatal("no factored engine for a CASA model")
		}
		c := newDSECheck(t, e)
		if !e.crash() {
			t.Fatal("cache-only crash start is not primal feasible")
		}
		c.check("crash", -1)
		primalPivots, flips := 0, 0
		for step := 0; ; step++ {
			if step > 10*e.m {
				t.Fatalf("primal root: no optimum after %d steps", step)
			}
			copy(c.prevBasis, e.basis)
			before := e.iters
			st := e.primal(0) // at most one iteration per call
			if e.iters == before {
				if st != Optimal {
					t.Fatalf("primal root stopped with %v", st)
				}
				break
			}
			lr := c.pivotRow()
			if lr < 0 {
				flips++
				continue // B unchanged, and so are the weights
			}
			primalPivots++
			c.check("primal pivot", lr)
		}
		if primalPivots == 0 {
			t.Fatal("the primal root made no pivot")
		}
		c.dualNodes(&r)
		c.log("primal root: %d pivots, %d flips", primalPivots, flips)
	}
}

// dseCheck compares an engine's weights with their row norms across a
// run of pivots.
type dseCheck struct {
	t                       *testing.T
	e                       *fsx
	exempt, clamped         []bool
	prevBasis               []int
	checks, clamps, inexact int
	pivots, refactors       int
}

func newDSECheck(t *testing.T, e *fsx) *dseCheck {
	return &dseCheck{t: t, e: e,
		exempt: make([]bool, e.m), clamped: make([]bool, e.m), prevBasis: make([]int, e.m)}
}

// check compares every non-exempt weight with its row norm; lr is the
// row of the pivot just made, -1 for none.
func (c *dseCheck) check(when string, lr int) {
	c.t.Helper()
	e := c.e
	if lr >= 0 {
		piv := e.w[lr]
		for i, wi := range e.w {
			k := wi / piv
			c.clamped[i] = i != lr && wi != 0 && e.dse[i] == k*k
			if c.clamped[i] {
				c.clamps++
			}
		}
		c.exempt[lr] = false
	}
	for i := 0; i < e.m; i++ {
		if c.exempt[i] {
			continue
		}
		e.btranUnit(i)
		want := 0.0
		for _, v := range e.rho {
			want += v * v
		}
		if math.Abs(e.dse[i]-want) <= 1e-6*want {
			c.checks++
			continue
		}
		if lr < 0 || !c.clamped[i] {
			c.t.Fatalf("%s: β[%d] = %.12g, ‖e_iᵀB⁻¹‖² = %.12g", when, i, e.dse[i], want)
		}
		c.exempt[i] = true
		c.inexact++
	}
}

// pivotRow returns the basis position the last iteration changed, -1
// after a bound flip.
func (c *dseCheck) pivotRow() int {
	for i, b := range c.e.basis {
		if b != c.prevBasis[i] {
			return i
		}
	}
	return -1
}

// dualNodes branches from the current root: each node fixes one
// still-free column at a random bound, starting over from the root box
// once a node turns out infeasible, and reoptimizes by the dual simplex
// one pivot at a time, checking the weights after each, until
// 4·fsxRefactorEvery pivots have run.
func (c *dseCheck) dualNodes(r *casaRNG) {
	c.t.Helper()
	e := c.e
	rootLo := append([]float64(nil), e.lo[:e.n]...)
	rootHi := append([]float64(nil), e.hi[:e.n]...)
	lo := append([]float64(nil), rootLo...)
	hi := append([]float64(nil), rootHi...)
	target := c.pivots + 4*fsxRefactorEvery
	for node := 0; c.pivots < target && node < 500; node++ {
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
				c.t.Fatalf("node %d: no optimum after %d steps", node, step)
			}
			copy(c.prevBasis, e.basis)
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
			c.pivots++
			if e.sinceRefresh < sinceBefore {
				c.refactors++
			}
			c.check("dual pivot", c.pivotRow())
		}
	}
	if c.refactors == 0 {
		c.t.Fatalf("%d pivots never reached a refactorization", c.pivots)
	}
}

func (c *dseCheck) log(format string, args ...any) {
	c.t.Helper()
	c.t.Logf("%s; %d rows; dual: %d pivots, %d refactorizations; %d weights checked exact; %d clamps, %d of them off the norm and exempt",
		fmt.Sprintf(format, args...), c.e.m, c.pivots, c.refactors, c.checks, c.clamps, c.inexact)
}
