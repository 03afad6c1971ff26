package ilp

import (
	"context"
	"fmt"
	"math"
	"testing"
)

func TestPresolveFixesUnconstrainedColumns(t *testing.T) {
	// min x - y with x,y in [0,1] and no rows: dual fixing pins x at 0
	// and y at 1; presolve solves the model outright.
	m := NewModel()
	x := m.AddContinuous("x", 0, 1)
	y := m.AddContinuous("y", 0, 1)
	m.SetObjective(Expr(1, x, -1, y), Minimize)
	pr := presolve(m)
	if pr.status != Optimal {
		t.Fatalf("status = %v, want optimal", pr.status)
	}
	got := pr.postsolve(nil, m.NumVars())
	if got[x] != 0 || got[y] != 1 {
		t.Fatalf("postsolve = %v, want [0 1]", got)
	}
}

func TestPresolveDropsRedundantRow(t *testing.T) {
	// x + y <= 5 can never bind for x,y in [0,1]: the row must go, and
	// dual fixing then finishes the instance.
	m := NewModel()
	x := m.AddBinary("x")
	y := m.AddBinary("y")
	m.AddConstraint("slack", Expr(1, x, 1, y), LE, 5)
	m.SetObjective(Expr(2, x, 3, y), Minimize)
	pr := presolve(m)
	if pr.rowsDropped == 0 {
		t.Error("redundant row not dropped")
	}
	if pr.status != Optimal {
		t.Fatalf("status = %v, want optimal", pr.status)
	}
	got := pr.postsolve(nil, m.NumVars())
	if got[x] != 0 || got[y] != 0 {
		t.Fatalf("postsolve = %v, want [0 0]", got)
	}
}

func TestPresolveDetectsInfeasibleActivity(t *testing.T) {
	// x + y >= 3 is impossible for two binaries.
	m := NewModel()
	x := m.AddBinary("x")
	y := m.AddBinary("y")
	m.AddConstraint("c", Expr(1, x, 1, y), GE, 3)
	m.SetObjective(Expr(1, x), Minimize)
	if pr := presolve(m); pr.status != Infeasible {
		t.Fatalf("status = %v, want infeasible", pr.status)
	}
}

func TestPresolveIntegerBoundRounding(t *testing.T) {
	// 2x = 1 forces x = 0.5; rounding the integer bounds inward crosses
	// them, proving integer infeasibility without any simplex work.
	m := NewModel()
	x := m.AddBinary("x")
	m.AddConstraint("c", Expr(2, x), EQ, 1)
	m.SetObjective(Expr(1, x), Minimize)
	if pr := presolve(m); pr.status != Infeasible {
		t.Fatalf("status = %v, want infeasible", pr.status)
	}
}

func TestPresolveTightensAndFixesImpliedBinaries(t *testing.T) {
	// cap row: 3x + 3y <= 4 with an extra row forcing x = 1 leaves no
	// room for y: bound tightening fixes y = 0 and the whole model
	// presolves away.
	m := NewModel()
	x := m.AddBinary("x")
	y := m.AddBinary("y")
	m.AddConstraint("pin", Expr(1, x), GE, 1)
	m.AddConstraint("cap", Expr(3, x, 3, y), LE, 4)
	m.SetObjective(Expr(-5, x, -1, y), Minimize)
	pr := presolve(m)
	if pr.status != Optimal {
		t.Fatalf("status = %v, want optimal", pr.status)
	}
	got := pr.postsolve(nil, m.NumVars())
	if got[x] != 1 || got[y] != 0 {
		t.Fatalf("postsolve = %v, want [1 0]", got)
	}
}

func TestPresolveSingletonEqualitySubstitution(t *testing.T) {
	// z appears only in x + z = 3 (z continuous in [0,10]): the equality
	// row must survive presolve, so the solve returns z = 3 - x.
	m := NewModel()
	x := m.AddBinary("x")
	z := m.AddContinuous("z", 0, 10)
	m.AddConstraint("tie", Expr(1, x, 1, z), EQ, 3)
	m.AddConstraint("keep", Expr(1, x), LE, 1)
	m.SetObjective(Expr(-4, x, 1, z), Minimize)
	sol, err := Solve(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// min -4x + (3-x) => x=1, z=2, obj=-2.
	if sol.Status != Optimal || math.Abs(sol.Objective-(-2)) > 1e-9 {
		t.Fatalf("got %v obj=%g, want optimal -2", sol.Status, sol.Objective)
	}
	if sol.Value(x) != 1 || math.Abs(sol.Value(z)-2) > 1e-9 {
		t.Fatalf("x=%g z=%g, want 1, 2", sol.Value(x), sol.Value(z))
	}
}

func TestPresolveLinearizationImpliedByFixedDecisions(t *testing.T) {
	// The CASA pattern the issue calls out: once the l's are fixed, the
	// linearization variable L (continuous, one tight row, positive
	// objective weight) is implied and must vanish in presolve.
	m := NewModel()
	l1 := m.AddBinary("l1")
	l2 := m.AddBinary("l2")
	L := m.AddContinuous("L", 0, 1)
	m.SetBounds(l1, 1, 1)
	m.SetBounds(l2, 1, 1)
	m.AddConstraint("lin", Expr(1, l1, 1, l2, -1, L), LE, 1)
	m.SetObjective(Expr(3, l1, 4, l2, 10, L), Minimize)
	pr := presolve(m)
	if pr.status != Optimal {
		t.Fatalf("status = %v, want optimal (everything implied)", pr.status)
	}
	x := pr.postsolve(nil, m.NumVars())
	if x[l1] != 1 || x[l2] != 1 || x[L] != 1 {
		t.Fatalf("postsolve = %v, want [1 1 1]", x)
	}
	if got := Eval(m.obj, x); math.Abs(got-17) > 1e-9 {
		t.Fatalf("objective = %g, want 17", got)
	}
}

func TestPresolvePreservesBranchPriorities(t *testing.T) {
	m := NewModel()
	l := m.AddBinary("l")
	m.SetBranchPriority(l, 1)
	keep := m.AddBinary("keep")
	m.AddConstraint("c", Expr(1, l, 1, keep), LE, 1)
	m.SetObjective(Expr(-1, l, -1, keep), Minimize)
	pr := presolve(m)
	if pr.status != needsSolve || pr.reduced == nil {
		t.Fatalf("expected a reduced model, got status %v", pr.status)
	}
	for j, orig := range pr.varOf {
		if pr.reduced.prio[j] != m.prio[orig] {
			t.Fatalf("priority lost for %s", m.names[orig])
		}
	}
}

// TestPresolveSubstitutesOnlyThroughAliveRows: x and y are both
// continuous singletons of the one equality row. Presolve must keep
// x + y = 1 binding on both (a reduction that dropped it would let y
// float to its cheapest value).
func TestPresolveSubstitutesOnlyThroughAliveRows(t *testing.T) {
	m := NewModel()
	x := m.AddContinuous("x", 0, 10)
	y := m.AddContinuous("y", 0, 10)
	b := m.AddBinary("b")
	m.AddConstraint("sum", Expr(1, x, 1, y), EQ, 1)
	m.SetObjective(Expr(1, x, 2, y, -1, b), Minimize)
	for _, opt := range []Options{{}, {DisablePresolve: true}} {
		sol, err := Solve(context.Background(), m, opt)
		if err != nil {
			t.Fatal(err)
		}
		// min x + 2y − b with x + y = 1 => x = 1, y = 0, b = 1, obj = 0.
		if sol.Status != Optimal || math.Abs(sol.Objective) > 1e-9 {
			t.Fatalf("%s: got %v obj=%g, want optimal 0", comboName(opt), sol.Status, sol.Objective)
		}
		if math.Abs(sol.Value(x)-1) > 1e-9 || math.Abs(sol.Value(y)) > 1e-9 || sol.Value(b) != 1 {
			t.Fatalf("%s: (x, y, b) = (%g, %g, %g), want (1, 0, 1)", comboName(opt),
				sol.Value(x), sol.Value(y), sol.Value(b))
		}
	}
}

// checkPresolveParity solves m with and without presolve. Both solves
// must agree on the status and, when optimal, the objective, and the
// presolved solution must satisfy the original model.
func checkPresolveParity(t *testing.T, name string, m *Model) {
	t.Helper()
	on, err := Solve(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Solve(context.Background(), m, Options{DisablePresolve: true})
	if err != nil {
		t.Fatal(err)
	}
	if on.Status != off.Status {
		t.Fatalf("%s: status %v (presolve) vs %v (none)", name, on.Status, off.Status)
	}
	if on.Status != Optimal {
		return
	}
	if math.Abs(on.Objective-off.Objective) > 1e-6*math.Max(1, math.Abs(off.Objective)) {
		t.Fatalf("%s: objective %.9g (presolve) vs %.9g (none)", name, on.Objective, off.Objective)
	}
	if !feasibleIn(m, on.X) {
		t.Fatalf("%s: presolved solution %v violates the model", name, on.X)
	}
}

// FuzzPresolveParity checks presolve against no presolve on two models
// per input. The first is a small mixed model whose equality rows hold
// continuous column singletons, a shape only hand-written models and
// core's multi-scratchpad model produce. The second, drawn from the
// same stream, is CASA-shaped (buildCASAModel or buildCacheOnlyModel)
// with a few more l's pinned, so presolve folds fixed l's into the
// capacity and linearization rows and dual-fixes the L's they free, as
// it does on every grid cell.
func FuzzPresolveParity(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0))
	f.Add(uint64(1), uint8(1), uint8(2))
	f.Add(uint64(1), uint8(3), uint8(2))
	f.Add(uint64(0x9e3779b97f4a7c15), uint8(6), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, bins, rows uint8) {
		r := casaRNG(seed | 1) // xorshift's zero state is a fixed point
		m := NewModel()
		nb := 1 + int(bins)%6
		var obj LinExpr
		bs := make([]Var, nb)
		for i := range bs {
			bs[i] = m.AddBinary(fmt.Sprintf("b%d", i))
			obj = obj.Add(r.fl(-10, 10), bs[i])
		}
		for k := 0; k < 1+int(rows)%4; k++ {
			// An equality row over one to three continuous singletons
			// plus some binaries.
			var e LinExpr
			for s := 0; s < 1+r.intn(3); s++ {
				c := m.AddContinuous(fmt.Sprintf("c%d_%d", k, s), 0, r.fl(1, 10))
				e = e.Add(r.fl(0.5, 3), c)
				obj = obj.Add(r.fl(-5, 5), c)
			}
			for _, bv := range bs {
				if r.intn(2) == 0 {
					e = e.Add(r.fl(-3, 3), bv)
				}
			}
			m.AddConstraint("", e, EQ, r.fl(0, 6))
		}
		if r.intn(2) == 0 {
			var e LinExpr
			for _, bv := range bs {
				e = e.Add(r.fl(0, 4), bv)
			}
			m.AddConstraint("", e, LE, r.fl(1, 8))
		}
		m.SetObjective(obj, Minimize)
		checkPresolveParity(t, "mixed", m)

		build := buildCASAModel
		if r.intn(2) == 0 {
			build = buildCacheOnlyModel
		}
		nl := 4 + r.intn(13)
		cm := build(&r, nl, r.intn(2*nl), false)
		for k := 1 + r.intn(3); k > 0; k-- {
			// Pin an l the way core pins an oversized trace.
			v := Var(r.intn(nl))
			pin := float64(r.intn(2))
			cm.SetBounds(v, pin, pin)
		}
		checkPresolveParity(t, "casa", cm)
	})
}
