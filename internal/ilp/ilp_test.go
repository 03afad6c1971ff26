package ilp

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSenseKindRelStrings(t *testing.T) {
	if Minimize.String() != "minimize" || Maximize.String() != "maximize" {
		t.Error("sense names")
	}
	if Continuous.String() != "continuous" || Binary.String() != "binary" || Integer.String() != "integer" {
		t.Error("kind names")
	}
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Error("rel names")
	}
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" ||
		Unbounded.String() != "unbounded" || Feasible.String() != "feasible" ||
		Aborted.String() != "aborted" {
		t.Error("status names")
	}
}

func TestExprBuilder(t *testing.T) {
	m := NewModel()
	x := m.AddContinuous("x", 0, 10)
	y := m.AddContinuous("y", 0, 10)
	e := Expr(2, x, -1.5, y).Add(3, x).AddConst(4)
	if got := Eval(e, []float64{1, 2}); !almostEq(got, 2*1-1.5*2+3*1+4) {
		t.Errorf("Eval = %g", got)
	}
	// Bad arguments panic.
	for _, f := range []func(){
		func() { Expr(1.0) },
		func() { Expr("x", x) },
		func() { Expr(1, "y") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Expr accepted bad arguments")
				}
			}()
			f()
		}()
	}
}

func TestModelValidate(t *testing.T) {
	m := NewModel()
	if err := m.Validate(); err == nil {
		t.Error("empty model accepted")
	}
	x := m.AddContinuous("x", 0, 1)
	if err := m.Validate(); err == nil {
		t.Error("model without objective accepted")
	}
	m.SetObjective(Expr(1, x), Minimize)
	if err := m.Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	m.SetBounds(x, 2, 1)
	if err := m.Validate(); err == nil {
		t.Error("inverted bounds accepted")
	}
	m.SetBounds(x, 0, 1)
	m.AddConstraint("bad", LinExpr{Terms: []Term{{Var: Var(9), Coef: 1}}}, LE, 1)
	if err := m.Validate(); err == nil {
		t.Error("unknown variable accepted")
	}
}

func TestLPSimple2D(t *testing.T) {
	// max 3x + 5y st x<=4, 2y<=12, 3x+2y<=18 -> x=2,y=6, obj=36.
	m := NewModel()
	x := m.AddContinuous("x", 0, math.Inf(1))
	y := m.AddContinuous("y", 0, math.Inf(1))
	m.AddConstraint("c1", Expr(1, x), LE, 4)
	m.AddConstraint("c2", Expr(2, y), LE, 12)
	m.AddConstraint("c3", Expr(3, x, 2, y), LE, 18)
	m.SetObjective(Expr(3, x, 5, y), Maximize)
	sol, err := SolveLP(context.Background(), m, Options{})
	if err != nil {
		t.Fatalf("SolveLP: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !almostEq(sol.Objective, 36) || !almostEq(sol.Value(x), 2) || !almostEq(sol.Value(y), 6) {
		t.Errorf("got obj=%g x=%g y=%g", sol.Objective, sol.Value(x), sol.Value(y))
	}
}

func TestLPMinimizationWithGE(t *testing.T) {
	// min 2x + 3y st x+y >= 10, x >= 2, y >= 1 -> x=9? obj: coefficient of
	// x is cheaper: push y to its lower bound 1, x=9: obj=21.
	m := NewModel()
	x := m.AddContinuous("x", 2, math.Inf(1))
	y := m.AddContinuous("y", 1, math.Inf(1))
	m.AddConstraint("cover", Expr(1, x, 1, y), GE, 10)
	m.SetObjective(Expr(2, x, 3, y), Minimize)
	sol, err := SolveLP(context.Background(), m, Options{})
	if err != nil {
		t.Fatalf("SolveLP: %v", err)
	}
	if sol.Status != Optimal || !almostEq(sol.Objective, 21) {
		t.Fatalf("got %v obj=%g, want optimal 21", sol.Status, sol.Objective)
	}
}

func TestLPEquality(t *testing.T) {
	// min x+y st x + 2y = 4, x - y = 1 -> x=2, y=1, obj=3.
	m := NewModel()
	x := m.AddContinuous("x", 0, math.Inf(1))
	y := m.AddContinuous("y", 0, math.Inf(1))
	m.AddConstraint("e1", Expr(1, x, 2, y), EQ, 4)
	m.AddConstraint("e2", Expr(1, x, -1, y), EQ, 1)
	m.SetObjective(Expr(1, x, 1, y), Minimize)
	sol, err := SolveLP(context.Background(), m, Options{})
	if err != nil {
		t.Fatalf("SolveLP: %v", err)
	}
	if sol.Status != Optimal || !almostEq(sol.Value(x), 2) || !almostEq(sol.Value(y), 1) {
		t.Fatalf("got %v x=%g y=%g", sol.Status, sol.Value(x), sol.Value(y))
	}
}

func TestLPInfeasible(t *testing.T) {
	m := NewModel()
	x := m.AddContinuous("x", 0, 5)
	m.AddConstraint("c", Expr(1, x), GE, 10)
	m.SetObjective(Expr(1, x), Minimize)
	sol, err := SolveLP(context.Background(), m, Options{})
	if err != nil {
		t.Fatalf("SolveLP: %v", err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestLPUnbounded(t *testing.T) {
	m := NewModel()
	x := m.AddContinuous("x", 0, math.Inf(1))
	m.SetObjective(Expr(1, x), Maximize)
	m.AddConstraint("c", Expr(-1, x), LE, 0) // x >= 0, no upper limit
	sol, err := SolveLP(context.Background(), m, Options{})
	if err != nil {
		t.Fatalf("SolveLP: %v", err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestLPFreeVariable(t *testing.T) {
	// min x st x >= -7 with x free: optimum -7.
	m := NewModel()
	x := m.AddVar("x", Continuous, math.Inf(-1), math.Inf(1))
	m.AddConstraint("c", Expr(1, x), GE, -7)
	m.SetObjective(Expr(1, x), Minimize)
	sol, err := SolveLP(context.Background(), m, Options{})
	if err != nil {
		t.Fatalf("SolveLP: %v", err)
	}
	if sol.Status != Optimal || !almostEq(sol.Value(x), -7) {
		t.Fatalf("got %v x=%g, want -7", sol.Status, sol.Value(x))
	}
}

func TestLPNegativeLowerBounds(t *testing.T) {
	// min x + y with x in [-5,5], y in [-3, 3], x + y >= -6 -> x=-5, y=-1? No:
	// both want to go low; constraint binds at -6: obj=-6 (any split).
	m := NewModel()
	x := m.AddContinuous("x", -5, 5)
	y := m.AddContinuous("y", -3, 3)
	m.AddConstraint("c", Expr(1, x, 1, y), GE, -6)
	m.SetObjective(Expr(1, x, 1, y), Minimize)
	sol, err := SolveLP(context.Background(), m, Options{})
	if err != nil {
		t.Fatalf("SolveLP: %v", err)
	}
	if sol.Status != Optimal || !almostEq(sol.Objective, -6) {
		t.Fatalf("got %v obj=%g, want -6", sol.Status, sol.Objective)
	}
}

func TestLPObjectiveConstant(t *testing.T) {
	m := NewModel()
	x := m.AddContinuous("x", 0, 2)
	m.SetObjective(Expr(1, x).AddConst(10), Minimize)
	sol, err := SolveLP(context.Background(), m, Options{})
	if err != nil {
		t.Fatalf("SolveLP: %v", err)
	}
	if !almostEq(sol.Objective, 10) {
		t.Errorf("objective constant lost: %g", sol.Objective)
	}
}

func TestLPDegenerate(t *testing.T) {
	// A classic degenerate LP; Bland fallback must terminate.
	m := NewModel()
	x1 := m.AddContinuous("x1", 0, math.Inf(1))
	x2 := m.AddContinuous("x2", 0, math.Inf(1))
	x3 := m.AddContinuous("x3", 0, math.Inf(1))
	m.AddConstraint("c1", Expr(0.5, x1, -5.5, x2, -2.5, x3), LE, 0)
	m.AddConstraint("c2", Expr(0.5, x1, -1.5, x2, -0.5, x3), LE, 0)
	m.AddConstraint("c3", Expr(1, x1), LE, 1)
	m.SetObjective(Expr(10, x1, -57, x2, -9, x3), Maximize)
	sol, err := SolveLP(context.Background(), m, Options{})
	if err != nil {
		t.Fatalf("SolveLP: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !almostEq(sol.Objective, 1) { // known optimum x=(1, 0, 1)·? obj=1
		t.Errorf("objective = %g, want 1", sol.Objective)
	}
}

func TestILPKnapsack(t *testing.T) {
	// Classic 0/1 knapsack: values 60,100,120 weights 10,20,30 cap 50 ->
	// take items 2,3: value 220.
	m := NewModel()
	x1 := m.AddBinary("x1")
	x2 := m.AddBinary("x2")
	x3 := m.AddBinary("x3")
	m.AddConstraint("cap", Expr(10, x1, 20, x2, 30, x3), LE, 50)
	m.SetObjective(Expr(60, x1, 100, x2, 120, x3), Maximize)
	sol, err := Solve(context.Background(), m, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal || !almostEq(sol.Objective, 220) {
		t.Fatalf("got %v obj=%g, want optimal 220", sol.Status, sol.Objective)
	}
	if sol.Value(x1) != 0 || sol.Value(x2) != 1 || sol.Value(x3) != 1 {
		t.Errorf("wrong selection: %v", sol.X)
	}
}

func TestILPIntegerVariables(t *testing.T) {
	// max x + y st 2x + 3y <= 12, x,y integer >=0 and x <= 4: optimum 5
	// (x=4, y=1) or (x=3, y=2): obj 5.
	m := NewModel()
	x := m.AddVar("x", Integer, 0, 4)
	y := m.AddVar("y", Integer, 0, math.Inf(1))
	m.AddConstraint("c", Expr(2, x, 3, y), LE, 12)
	m.SetObjective(Expr(1, x, 1, y), Maximize)
	sol, err := Solve(context.Background(), m, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal || !almostEq(sol.Objective, 5) {
		t.Fatalf("got %v obj=%g, want 5", sol.Status, sol.Objective)
	}
	for _, v := range []Var{x, y} {
		if frac := math.Abs(sol.Value(v) - math.Round(sol.Value(v))); frac > 1e-9 {
			t.Errorf("non-integral value %g", sol.Value(v))
		}
	}
}

func TestILPInfeasibleIntegrality(t *testing.T) {
	// 2x = 1 with x binary: LP-feasible (x=0.5) but integer-infeasible.
	m := NewModel()
	x := m.AddBinary("x")
	m.AddConstraint("c", Expr(2, x), EQ, 1)
	m.SetObjective(Expr(1, x), Minimize)
	sol, err := Solve(context.Background(), m, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestILPEqualsBruteForceRandomized(t *testing.T) {
	// Randomized cross-validation on small instances.
	rng := uint64(12345)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	fl := func(lo, hi float64) float64 {
		return lo + (hi-lo)*float64(next()%10000)/10000
	}
	for trial := 0; trial < 60; trial++ {
		n := 3 + int(next()%6)  // 3..8 binaries
		nc := 1 + int(next()%4) // 1..4 constraints
		m := NewModel()
		vars := make([]Var, n)
		for i := range vars {
			vars[i] = m.AddBinary("")
		}
		obj := LinExpr{}
		for _, v := range vars {
			obj = obj.Add(fl(-10, 10), v)
		}
		sense := Minimize
		if next()%2 == 0 {
			sense = Maximize
		}
		m.SetObjective(obj, sense)
		for c := 0; c < nc; c++ {
			e := LinExpr{}
			for _, v := range vars {
				e = e.Add(fl(0, 5), v)
			}
			rel := []Rel{LE, GE}[next()%2]
			rhs := fl(1, float64(n)*2.5)
			m.AddConstraint("", e, rel, rhs)
		}
		want, err := SolveBruteForce(context.Background(), m)
		if err != nil {
			t.Fatalf("brute force: %v", err)
		}
		got, err := Solve(context.Background(), m, Options{})
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		if want.Status != got.Status {
			t.Fatalf("trial %d: status %v vs brute %v", trial, got.Status, want.Status)
		}
		if want.Status == Optimal && !almostEq(want.Objective, got.Objective) {
			t.Fatalf("trial %d: obj %g vs brute %g", trial, got.Objective, want.Objective)
		}
	}
}

func TestILPNodeLimit(t *testing.T) {
	// A 20-binary knapsack with a node limit of 1 can at best prove
	// nothing or return a feasible incumbent.
	m := NewModel()
	e := LinExpr{}
	obj := LinExpr{}
	for i := 0; i < 20; i++ {
		v := m.AddBinary("")
		e = e.Add(float64(3+i%7), v)
		obj = obj.Add(float64(5+(i*13)%11), v)
	}
	m.AddConstraint("cap", e, LE, 31)
	m.SetObjective(obj, Maximize)
	sol, err := Solve(context.Background(), m, Options{MaxNodes: 1})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Feasible && sol.Status != Aborted {
		t.Fatalf("status = %v, want feasible or aborted", sol.Status)
	}
	// And with an ample budget it is optimal.
	sol, err = Solve(context.Background(), m, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
}

func TestSolveWithoutIntegersMatchesLP(t *testing.T) {
	m := NewModel()
	x := m.AddContinuous("x", 0, 3)
	y := m.AddContinuous("y", 0, 3)
	m.AddConstraint("c", Expr(1, x, 1, y), LE, 4)
	m.SetObjective(Expr(2, x, 1, y), Maximize)
	a, err := SolveLP(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Status != Optimal || b.Status != Optimal || !almostEq(a.Objective, b.Objective) {
		t.Fatalf("LP %v/%g vs MILP %v/%g", a.Status, a.Objective, b.Status, b.Objective)
	}
}

func TestBruteForceRejectsContinuous(t *testing.T) {
	m := NewModel()
	m.AddContinuous("x", 0, 5)
	m.SetObjective(Expr(1, Var(0)), Minimize)
	if _, err := SolveBruteForce(context.Background(), m); err == nil {
		t.Fatal("brute force accepted a continuous variable")
	}
}

// TestSolveTrace: with Options.Trace set the solver narrates its progress
// — the root LP, periodic node lines, incumbent improvements and a final
// summary — and the reported effort counters match the Solution.
func TestSolveTrace(t *testing.T) {
	// A knapsack big enough to force branching.
	m := NewModel()
	vals := []float64{60, 100, 120, 70, 90, 45, 30, 80}
	wts := []float64{10, 20, 30, 15, 25, 12, 8, 18}
	var obj, wt LinExpr
	for i := range vals {
		v := m.AddBinary("")
		obj = obj.Add(vals[i], v)
		wt = wt.Add(wts[i], v)
	}
	m.SetObjective(obj, Maximize)
	m.AddConstraint("cap", wt, LE, 60)

	var buf strings.Builder
	sol, err := Solve(context.Background(), m, Options{Trace: &buf, TraceEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	out := buf.String()
	if !strings.Contains(out, "ilp: node=1 ") {
		t.Errorf("trace missing per-node progress:\n%s", out)
	}
	// Maximizing with nonnegative weights: the all-zero corner is
	// feasible, so the root LP runs the primal simplex from it.
	if !strings.Contains(out, "ilp: root lp=primal status=optimal ") {
		t.Errorf("trace missing primal root line:\n%s", out)
	}
	if !strings.Contains(out, "ilp: incumbent ") {
		t.Errorf("trace missing incumbent line:\n%s", out)
	}
	done := fmt.Sprintf("ilp: done status=optimal nodes=%d branches=%d iters=%d",
		sol.Nodes, sol.Branches, sol.SimplexIters)
	if !strings.Contains(out, done) {
		t.Errorf("trace missing final summary %q:\n%s", done, out)
	}
	if sol.Branches <= 0 || sol.Branches >= sol.Nodes {
		t.Errorf("branches = %d out of range (nodes=%d)", sol.Branches, sol.Nodes)
	}

	// Trace off: silent, same answer.
	quiet, err := Solve(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if quiet.Objective != sol.Objective || quiet.Nodes != sol.Nodes {
		t.Errorf("trace changed the search: obj %g vs %g, nodes %d vs %d",
			quiet.Objective, sol.Objective, quiet.Nodes, sol.Nodes)
	}
}
