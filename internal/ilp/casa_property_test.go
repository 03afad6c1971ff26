package ilp

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// Property tests of CASA-shaped models: knapsack capacity plus conflict
// linearization (paper eqs (7)–(17)), in both the Tight (continuous
// L(x_i,x_j), one row) and Faithful (binary L, three rows) encodings,
// with pinned variables and branch priorities like core.BuildModel
// produces. Every combination of presolve and warm-started basis must
// agree — with exhaustive enumeration where the model is all-binary,
// and with each other everywhere.

type casaRNG uint64

func (r *casaRNG) next() uint64 {
	*r ^= *r << 13
	*r ^= *r >> 7
	*r ^= *r << 17
	return uint64(*r)
}

func (r *casaRNG) intn(n int) int            { return int(r.next() % uint64(n)) }
func (r *casaRNG) fl(lo, hi float64) float64 { return lo + (hi-lo)*float64(r.next()%10000)/10000 }

// buildCASAModel assembles one random CASA-shaped instance:
//
//	min Σ gain_i·l_i + Σ miss_e·L_e
//	s.t. Σ size_i·(1−l_i) ≤ cap            (knapsack)
//	     tight:    l_i + l_j − L_e ≤ 1      (L continuous in [0,1])
//	     faithful: L_e ≥ l_i + l_j − 1, L_e ≤ l_i, L_e ≤ l_j  (L binary)
//
// with l's at branch priority 1 and an occasional l pinned to a fixed
// value (the oversized-trace case). Gains of either sign make the
// cache-only corner (every l = 1) infeasible in many draws; see
// buildCacheOnlyModel for core's sign pattern.
func buildCASAModel(r *casaRNG, nl, ne int, faithful bool) *Model {
	return buildCASAShape(r, nl, ne, faithful, false)
}

// buildCacheOnlyModel draws the same shape with core.BuildModel's sign
// pattern: every trace costs more cached than on the scratchpad, and a
// pinned l is pinned to the cache, so the cache-only corner is feasible
// and the root LP takes the primal path from it.
func buildCacheOnlyModel(r *casaRNG, nl, ne int, faithful bool) *Model {
	return buildCASAShape(r, nl, ne, faithful, true)
}

func buildCASAShape(r *casaRNG, nl, ne int, faithful, cacheOnly bool) *Model {
	m := NewModel()
	ls := make([]Var, nl)
	for i := range ls {
		ls[i] = m.AddBinary(fmt.Sprintf("l%d", i))
		m.SetBranchPriority(ls[i], 1)
	}
	obj := LinExpr{}
	knap := LinExpr{}
	total := 0.0
	for _, l := range ls {
		gain := r.fl(-40, 25) // energy delta for caching this trace
		if cacheOnly {
			gain = math.Abs(gain) + 1
		}
		obj = obj.Add(gain, l)
		size := float64(1 + r.intn(9))
		total += size
		// Σ size·(1−l) ≤ cap  ⇔  −Σ size·l ≤ cap − Σ size.
		knap = knap.Add(-size, l)
	}
	spm := math.Floor(total * r.fl(0.3, 0.8))
	m.AddConstraint("cap", knap, LE, spm-total)
	for e := 0; e < ne; e++ {
		i, j := r.intn(nl), r.intn(nl)
		if i == j {
			j = (j + 1) % nl
		}
		w := r.fl(0.5, 30) // conflict miss weight, strictly positive
		var L Var
		if faithful {
			L = m.AddBinary(fmt.Sprintf("L%d", e))
			m.AddConstraint("", Expr(1, ls[i], 1, ls[j], -1, L), LE, 1)
			m.AddConstraint("", Expr(1, L, -1, ls[i]), LE, 0)
			m.AddConstraint("", Expr(1, L, -1, ls[j]), LE, 0)
		} else {
			L = m.AddContinuous(fmt.Sprintf("L%d", e), 0, 1)
			m.AddConstraint("", Expr(1, ls[i], 1, ls[j], -1, L), LE, 1)
		}
		obj = obj.Add(w, L)
	}
	// Occasionally pin an l the way core pins oversized traces.
	if r.intn(3) == 0 {
		v := ls[r.intn(nl)]
		pin := float64(r.intn(2))
		if cacheOnly {
			pin = 1
		}
		m.SetBounds(v, pin, pin)
	}
	m.SetObjective(obj.AddConst(r.fl(0, 100)), Minimize)
	return m
}

// buildMultiModel assembles a multi-region-shaped instance: continuous
// placement l_i plus binary region assignments a_is tied by the equality
// l_i + Σ_s a_is = 1, with one capacity row per region (the shape
// core/multi.go emits).
func buildMultiModel(r *casaRNG, nt, ns int) *Model {
	m := NewModel()
	obj := LinExpr{}
	caps := make([]LinExpr, ns)
	for i := 0; i < nt; i++ {
		l := m.AddContinuous(fmt.Sprintf("l%d", i), 0, 1)
		row := Expr(1, l)
		obj = obj.Add(r.fl(0, 50), l) // cached cost
		size := float64(1 + r.intn(8))
		for s := 0; s < ns; s++ {
			a := m.AddBinary(fmt.Sprintf("a%d_%d", i, s))
			m.SetBranchPriority(a, 1)
			row = row.Add(1, a)
			caps[s] = caps[s].Add(size, a)
			obj = obj.Add(r.fl(-30, 10), a)
		}
		m.AddConstraint("", row, EQ, 1)
	}
	for s := range caps {
		m.AddConstraint("", caps[s], LE, float64(4+r.intn(12)))
	}
	m.SetObjective(obj, Minimize)
	return m
}

// solverCombos enumerates all feature on/off combinations.
func solverCombos() []Options {
	var out []Options
	for mask := 0; mask < 4; mask++ {
		out = append(out, Options{
			DisablePresolve:  mask&1 != 0,
			DisableWarmStart: mask&2 != 0,
		})
	}
	return out
}

func comboName(o Options) string {
	return fmt.Sprintf("presolve=%v warm=%v", !o.DisablePresolve, !o.DisableWarmStart)
}

// checkCombosAgainst solves m under every feature combination and
// compares status/objective against the reference solution; it also
// verifies each returned point is feasible and evaluates to the reported
// objective.
func checkCombosAgainst(t *testing.T, trial int, m *Model, want *Solution) {
	t.Helper()
	for _, o := range solverCombos() {
		got, err := Solve(context.Background(), m, o)
		if err != nil {
			t.Fatalf("trial %d (%s): Solve: %v", trial, comboName(o), err)
		}
		if got.Status != want.Status {
			t.Fatalf("trial %d (%s): status %v, want %v", trial, comboName(o), got.Status, want.Status)
		}
		if want.Status != Optimal {
			continue
		}
		if math.Abs(got.Objective-want.Objective) > 1e-6*math.Max(1, math.Abs(want.Objective)) {
			t.Fatalf("trial %d (%s): objective %.9g, want %.9g",
				trial, comboName(o), got.Objective, want.Objective)
		}
		if len(got.X) != m.NumVars() {
			t.Fatalf("trial %d (%s): X has %d values, want %d", trial, comboName(o), len(got.X), m.NumVars())
		}
		if !feasibleIn(m, got.X) {
			t.Fatalf("trial %d (%s): returned point infeasible: %v", trial, comboName(o), got.X)
		}
		if v := Eval(m.obj, got.X); math.Abs(v-got.Objective) > 1e-6*math.Max(1, math.Abs(v)) {
			t.Fatalf("trial %d (%s): objective %g does not match point value %g",
				trial, comboName(o), got.Objective, v)
		}
		for _, j := range m.integerVars() {
			if frac := math.Abs(got.X[j] - math.Round(got.X[j])); frac > 1e-6 {
				t.Fatalf("trial %d (%s): integer var %s = %g", trial, comboName(o), m.names[j], got.X[j])
			}
		}
	}
}

func TestCASAFaithfulShapeMatchesBruteForce(t *testing.T) {
	r := casaRNG(0x9e3779b97f4a7c15)
	for trial := 0; trial < 40; trial++ {
		nl := 3 + r.intn(6) // 3..8 traces
		ne := r.intn(5)     // 0..4 conflict edges; all-binary stays <= 24
		m := buildCASAModel(&r, nl, ne, true)
		want, err := SolveBruteForce(context.Background(), m)
		if err != nil {
			t.Fatalf("trial %d: brute force: %v", trial, err)
		}
		checkCombosAgainst(t, trial, m, want)
	}
}

func TestCASATightShapeCombosAgree(t *testing.T) {
	// Tight models have free-floating continuous L's, which brute force
	// cannot enumerate; the all-features-off configuration (dense
	// from-scratch simplex, plain DFS) is the reference instead, and the
	// integral l's determine the optimal L's, so the objectives must
	// coincide exactly across combinations.
	r := casaRNG(0xdeadbeefcafef00d)
	for trial := 0; trial < 40; trial++ {
		nl := 4 + r.intn(9) // 4..12 traces
		ne := r.intn(9)     // 0..8 conflict edges
		m := buildCASAModel(&r, nl, ne, false)
		ref, err := Solve(context.Background(), m, Options{DisablePresolve: true, DisableWarmStart: true})
		if err != nil {
			t.Fatalf("trial %d: reference solve: %v", trial, err)
		}
		checkCombosAgainst(t, trial, m, ref)
	}
}

func TestCASAMultiRegionShapeCombosAgree(t *testing.T) {
	r := casaRNG(0x0123456789abcdef)
	for trial := 0; trial < 25; trial++ {
		nt := 2 + r.intn(4) // 2..5 traces
		ns := 1 + r.intn(3) // 1..3 scratchpad regions
		m := buildMultiModel(&r, nt, ns)
		ref, err := Solve(context.Background(), m, Options{DisablePresolve: true, DisableWarmStart: true})
		if err != nil {
			t.Fatalf("trial %d: reference solve: %v", trial, err)
		}
		checkCombosAgainst(t, trial, m, ref)
	}
}

func TestBruteForceTooManyBinariesErrors(t *testing.T) {
	m := NewModel()
	e := LinExpr{}
	for i := 0; i < 25; i++ {
		e = e.Add(1, m.AddBinary(""))
	}
	m.AddConstraint("c", e, LE, 12)
	m.SetObjective(e, Maximize)
	if _, err := SolveBruteForce(context.Background(), m); err == nil {
		t.Fatal("brute force accepted 25 binaries; want an error, not a panic")
	}
}
