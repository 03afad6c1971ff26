package ilp

import (
	"context"
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
	// z appears only in x + z = 3 (z continuous in [0,10]): presolve
	// substitutes z away; postsolve must reconstruct z = 3 - x.
	m := NewModel()
	x := m.AddBinary("x")
	z := m.AddContinuous("z", 0, 10)
	m.AddConstraint("tie", Expr(1, x, 1, z), EQ, 3)
	m.AddConstraint("keep", Expr(1, x), LE, 1)
	m.SetObjective(Expr(-4, x, 1, z), Minimize)
	pr := presolve(m)
	if pr.colsSubst == 0 {
		t.Fatal("singleton column not substituted")
	}
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
