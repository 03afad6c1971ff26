package ilp

import (
	"context"
	"math"
	"testing"
)

// The tests in this file target the bounded-variable mechanics of the
// simplex: bound flips, basics leaving at their upper bound, fixed
// variables, and equivalence with explicit bound rows.

func TestLPNoConstraintsBoundOptimum(t *testing.T) {
	// With no rows at all, the optimum sits on variable bounds reached
	// purely by bound flips.
	m := NewModel()
	x := m.AddContinuous("x", 0, 5)
	y := m.AddContinuous("y", -2, 3)
	m.SetObjective(Expr(-1, x, 2, y), Minimize) // x→5, y→-2
	sol, err := SolveLP(context.Background(), m, Options{})
	if err != nil {
		t.Fatalf("SolveLP: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if !almostEq(sol.Value(x), 5) || !almostEq(sol.Value(y), -2) {
		t.Errorf("x=%g y=%g, want 5,-2", sol.Value(x), sol.Value(y))
	}
	if !almostEq(sol.Objective, -9) {
		t.Errorf("obj=%g, want -9", sol.Objective)
	}
}

func TestLPBoundFlipThenPivot(t *testing.T) {
	// max x + 2y st x + y <= 3, x,y in [0,2] -> y=2 (flip), x=1 (pivot).
	m := NewModel()
	x := m.AddContinuous("x", 0, 2)
	y := m.AddContinuous("y", 0, 2)
	m.AddConstraint("c", Expr(1, x, 1, y), LE, 3)
	m.SetObjective(Expr(1, x, 2, y), Maximize)
	sol, err := SolveLP(context.Background(), m, Options{})
	if err != nil {
		t.Fatalf("SolveLP: %v", err)
	}
	if sol.Status != Optimal || !almostEq(sol.Objective, 5) {
		t.Fatalf("got %v %g, want optimal 5", sol.Status, sol.Objective)
	}
	if !almostEq(sol.Value(x), 1) || !almostEq(sol.Value(y), 2) {
		t.Errorf("x=%g y=%g, want 1,2", sol.Value(x), sol.Value(y))
	}
}

func TestLPBasicLeavesAtUpperBound(t *testing.T) {
	// max 2x + y st x - y <= 1, x <= 4 (bound), y <= 2 (bound).
	// Entering x drives basic slack down AND y's row interaction: pick a
	// formulation where the basic variable y reaches its upper bound:
	//   y >= x - 1 forces y up as x grows.
	m := NewModel()
	x := m.AddContinuous("x", 0, 4)
	y := m.AddContinuous("y", 0, 2)
	m.AddConstraint("c", Expr(1, x, -1, y), LE, 1)
	m.SetObjective(Expr(2, x, 1, y), Maximize)
	// Optimum: y=2 (upper), x=3 (row binds), obj=8.
	sol, err := SolveLP(context.Background(), m, Options{})
	if err != nil {
		t.Fatalf("SolveLP: %v", err)
	}
	if sol.Status != Optimal || !almostEq(sol.Objective, 8) {
		t.Fatalf("got %v %g, want optimal 8", sol.Status, sol.Objective)
	}
	if !almostEq(sol.Value(x), 3) || !almostEq(sol.Value(y), 2) {
		t.Errorf("x=%g y=%g, want 3,2", sol.Value(x), sol.Value(y))
	}
}

func TestLPFixedVariables(t *testing.T) {
	// A variable with lo == hi is pinned; the solver must neither move it
	// nor loop on it.
	m := NewModel()
	x := m.AddContinuous("x", 2, 2)
	y := m.AddContinuous("y", 0, 10)
	m.AddConstraint("c", Expr(1, x, 1, y), LE, 6)
	m.SetObjective(Expr(1, x, 1, y), Maximize)
	sol, err := SolveLP(context.Background(), m, Options{})
	if err != nil {
		t.Fatalf("SolveLP: %v", err)
	}
	if sol.Status != Optimal || !almostEq(sol.Value(x), 2) || !almostEq(sol.Value(y), 4) {
		t.Fatalf("got %v x=%g y=%g, want 2,4", sol.Status, sol.Value(x), sol.Value(y))
	}
}

func TestLPInfeasibleWithBounds(t *testing.T) {
	// Bounds make the row unsatisfiable.
	m := NewModel()
	x := m.AddContinuous("x", 0, 1)
	y := m.AddContinuous("y", 0, 1)
	m.AddConstraint("c", Expr(1, x, 1, y), GE, 3)
	m.SetObjective(Expr(1, x), Minimize)
	sol, err := SolveLP(context.Background(), m, Options{})
	if err != nil {
		t.Fatalf("SolveLP: %v", err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
}

// TestLPBoundsMatchExplicitRows cross-validates implicit bound handling
// against the same model with bounds written as constraint rows.
func TestLPBoundsMatchExplicitRows(t *testing.T) {
	rng := uint64(2024)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	fl := func(lo, hi float64) float64 {
		return lo + (hi-lo)*float64(next()%10000)/10000
	}
	for trial := 0; trial < 40; trial++ {
		n := 2 + int(next()%5)
		nc := 1 + int(next()%4)
		type varSpec struct{ lo, hi float64 }
		specs := make([]varSpec, n)
		for i := range specs {
			lo := fl(-5, 5)
			specs[i] = varSpec{lo: lo, hi: lo + fl(0.5, 8)}
		}
		coefs := make([][]float64, nc)
		rels := make([]Rel, nc)
		rhss := make([]float64, nc)
		for c := 0; c < nc; c++ {
			coefs[c] = make([]float64, n)
			for i := range coefs[c] {
				coefs[c][i] = fl(-3, 3)
			}
			rels[c] = []Rel{LE, GE}[next()%2]
			rhss[c] = fl(-10, 10)
		}
		objc := make([]float64, n)
		for i := range objc {
			objc[i] = fl(-4, 4)
		}

		// Model A: implicit bounds.
		ma := NewModel()
		va := make([]Var, n)
		for i, sp := range specs {
			va[i] = ma.AddContinuous("", sp.lo, sp.hi)
		}
		// Model B: bounds as rows, variables shifted to [lo, +inf).
		mb := NewModel()
		vb := make([]Var, n)
		for i, sp := range specs {
			vb[i] = mb.AddContinuous("", sp.lo, math.Inf(1))
			mb.AddConstraint("", Expr(1, vb[i]), LE, sp.hi)
		}
		for c := 0; c < nc; c++ {
			ea, eb := LinExpr{}, LinExpr{}
			for i := 0; i < n; i++ {
				ea = ea.Add(coefs[c][i], va[i])
				eb = eb.Add(coefs[c][i], vb[i])
			}
			ma.AddConstraint("", ea, rels[c], rhss[c])
			mb.AddConstraint("", eb, rels[c], rhss[c])
		}
		oa, ob := LinExpr{}, LinExpr{}
		for i := 0; i < n; i++ {
			oa = oa.Add(objc[i], va[i])
			ob = ob.Add(objc[i], vb[i])
		}
		sense := []Sense{Minimize, Maximize}[next()%2]
		ma.SetObjective(oa, sense)
		mb.SetObjective(ob, sense)

		sa, err := SolveLP(context.Background(), ma, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sb, err := SolveLP(context.Background(), mb, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sa.Status != sb.Status {
			t.Fatalf("trial %d: status %v vs %v", trial, sa.Status, sb.Status)
		}
		if sa.Status == Optimal && math.Abs(sa.Objective-sb.Objective) > 1e-6 {
			t.Fatalf("trial %d: obj %g vs %g", trial, sa.Objective, sb.Objective)
		}
		// Implicit-bound solutions must respect their boxes.
		if sa.Status == Optimal {
			for i, sp := range specs {
				v := sa.Value(va[i])
				if v < sp.lo-1e-7 || v > sp.hi+1e-7 {
					t.Fatalf("trial %d: x%d=%g outside [%g,%g]", trial, i, v, sp.lo, sp.hi)
				}
			}
		}
	}
}

// TestMILPBoundedIntegersMatchEnumeration validates branch & bound over
// small integer boxes against exhaustive enumeration.
func TestMILPBoundedIntegersMatchEnumeration(t *testing.T) {
	rng := uint64(777)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	fl := func(lo, hi float64) float64 {
		return lo + (hi-lo)*float64(next()%10000)/10000
	}
	for trial := 0; trial < 25; trial++ {
		n := 2 + int(next()%3) // 2..4 integer vars
		los := make([]int, n)
		his := make([]int, n)
		for i := range los {
			los[i] = int(next()%3) - 1 // -1..1
			his[i] = los[i] + 1 + int(next()%3)
		}
		m := NewModel()
		vars := make([]Var, n)
		for i := range vars {
			vars[i] = m.AddVar("", Integer, float64(los[i]), float64(his[i]))
		}
		nc := 1 + int(next()%3)
		type row struct {
			c   []float64
			rel Rel
			rhs float64
		}
		rows := make([]row, nc)
		for c := range rows {
			rows[c].c = make([]float64, n)
			for i := range rows[c].c {
				rows[c].c[i] = fl(-2, 3)
			}
			rows[c].rel = []Rel{LE, GE}[next()%2]
			rows[c].rhs = fl(-4, 6)
			e := LinExpr{}
			for i := 0; i < n; i++ {
				e = e.Add(rows[c].c[i], vars[i])
			}
			m.AddConstraint("", e, rows[c].rel, rows[c].rhs)
		}
		objc := make([]float64, n)
		obj := LinExpr{}
		for i := range objc {
			objc[i] = fl(-5, 5)
			obj = obj.Add(objc[i], vars[i])
		}
		m.SetObjective(obj, Minimize)

		got, err := Solve(context.Background(), m, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		// Exhaustive enumeration.
		best := math.Inf(1)
		var rec func(i int, x []float64)
		x := make([]float64, n)
		rec = func(i int, x []float64) {
			if i == n {
				for _, r := range rows {
					v := 0.0
					for k := 0; k < n; k++ {
						v += r.c[k] * x[k]
					}
					switch r.rel {
					case LE:
						if v > r.rhs+1e-9 {
							return
						}
					case GE:
						if v < r.rhs-1e-9 {
							return
						}
					}
				}
				v := 0.0
				for k := 0; k < n; k++ {
					v += objc[k] * x[k]
				}
				if v < best {
					best = v
				}
				return
			}
			for vi := los[i]; vi <= his[i]; vi++ {
				x[i] = float64(vi)
				rec(i+1, x)
			}
		}
		rec(0, x)

		if math.IsInf(best, 1) {
			if got.Status != Infeasible {
				t.Fatalf("trial %d: solver %v, enumeration infeasible", trial, got.Status)
			}
			continue
		}
		if got.Status != Optimal {
			t.Fatalf("trial %d: solver %v, enumeration found %g", trial, got.Status, best)
		}
		if math.Abs(got.Objective-best) > 1e-6 {
			t.Fatalf("trial %d: solver %g, enumeration %g", trial, got.Objective, best)
		}
	}
}

func TestBranchPriorityAccessors(t *testing.T) {
	m := NewModel()
	x := m.AddBinary("x")
	if m.BranchPriority(x) != 0 {
		t.Error("default priority should be 0")
	}
	m.SetBranchPriority(x, 3)
	if m.BranchPriority(x) != 3 {
		t.Error("priority not stored")
	}
}

// TestBranchVarPriorityThenMostFractional pins the branching rule: the
// highest priority class with a fractional member wins, within it the
// value whose fractional part is nearest ½, and the lowest index breaks
// ties. Continuous and integral values are never chosen.
func TestBranchVarPriorityThenMostFractional(t *testing.T) {
	m := NewModel()
	L := m.AddBinary("L") // a linearization variable, priority 0
	l0 := m.AddBinary("l0")
	l1 := m.AddBinary("l1")
	l2 := m.AddBinary("l2")
	n := m.AddVar("n", Integer, 0, 9)
	c := m.AddContinuous("c", 0, 1)
	for _, v := range []Var{l0, l1, l2, n} {
		m.SetBranchPriority(v, 1)
	}
	s := &bbState{w: m, intVars: m.integerVars()}
	at := func(vals map[Var]float64) []float64 {
		x := make([]float64, m.NumVars())
		for v, val := range vals {
			x[v] = val
		}
		return x
	}
	for _, tc := range []struct {
		name string
		x    []float64
		want int
	}{
		{"integral", at(map[Var]float64{L: 1, l1: 1, n: 4, c: 0.5}), -1},
		{"within integrality tolerance", at(map[Var]float64{l0: 1e-9, l1: 1 - 1e-9}), -1},
		{"priority class beats fractionality", at(map[Var]float64{L: 0.5, l1: 0.1}), int(l1)},
		{"lower class when the higher is integral", at(map[Var]float64{L: 0.3, l0: 1, l1: 0}), int(L)},
		{"most fractional in the class", at(map[Var]float64{l0: 0.2, l1: 0.6, l2: 0.45}), int(l2)},
		{"general integer's fractional part", at(map[Var]float64{l0: 0.25, n: 3.5}), int(n)},
		{"lowest index on a tie", at(map[Var]float64{l0: 0.25, l1: 0.75, l2: 0.25}), int(l0)},
		{"lowest index on a tie at ½", at(map[Var]float64{L: 0.5, l1: 0.5, l2: 0.5}), int(l1)},
	} {
		if got := s.branchVar(tc.x); got != tc.want {
			t.Errorf("%s: branchVar = %d, want %d", tc.name, got, tc.want)
		}
	}
}
