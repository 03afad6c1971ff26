package ilp

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
)

// xorshift for deterministic random instances.
type testRNG uint64

func (r *testRNG) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = testRNG(x)
	return x
}

func (r *testRNG) fl(lo, hi float64) float64 {
	return lo + (hi-lo)*float64(r.next()%10000)/10000
}

// knapModel builds a deterministic named binary knapsack with a
// "spm_capacity" row — the same structural shape (named binaries, one
// capacity row) the CASA models have.
func knapModel(n int, cap float64) *Model {
	m := NewModel()
	e := LinExpr{}
	obj := LinExpr{}
	for i := 0; i < n; i++ {
		v := m.AddBinary(fmt.Sprintf("l_%d", i))
		e = e.Add(float64(1+i%7), v)
		obj = obj.Add(float64(3+(i*5)%11), v)
	}
	m.AddConstraint("spm_capacity", e, LE, cap)
	m.SetObjective(obj, Maximize)
	return m
}

// randBinaryModel builds a small random binary program: 6–13 binaries
// under 3–5 rows with mixed-sign coefficients, each row's right-hand
// side drawn within reach of a random binary point, so every model is
// feasible. Mixed signs keep dual fixing from settling the variables, so
// most draws reach a root LP instead of being solved by presolve.
func randBinaryModel(r *testRNG) *Model {
	n := 6 + int(r.next()%8)
	nc := 3 + int(r.next()%3)
	m := NewModel()
	vars := make([]Var, n)
	x0 := make([]float64, n)
	for i := range vars {
		vars[i] = m.AddBinary("")
		x0[i] = float64(r.next() % 2)
	}
	obj := LinExpr{}
	for _, v := range vars {
		obj = obj.Add(r.fl(-10, 10), v)
	}
	sense := Minimize
	if r.next()%2 == 0 {
		sense = Maximize
	}
	m.SetObjective(obj, sense)
	for c := 0; c < nc; c++ {
		e := LinExpr{}
		act := 0.0
		for i, v := range vars {
			a := r.fl(-5, 5)
			e = e.Add(a, v)
			act += a * x0[i]
		}
		if r.next()%2 == 0 {
			m.AddConstraint("", e, LE, act+r.fl(0, 2))
		} else {
			m.AddConstraint("", e, GE, act-r.fl(0, 2))
		}
	}
	return m
}

// checkEngineParity solves m twice, with the factored engine (fsx) and
// with the dense two-phase simplex at every node
// (Options.DisableWarmStart), and requires the same status and, when
// optimal, the same objective. It returns the fsx solve and the path its
// root LP took, read from the solver trace: "primal" from the cache-only
// crash, "dual" after falling back, "" when no root LP ran.
func checkEngineParity(t *testing.T, name string, m *Model) (*Solution, string) {
	t.Helper()
	dense, err := Solve(context.Background(), m, Options{DisableWarmStart: true})
	if err != nil {
		t.Fatalf("%s dense: %v", name, err)
	}
	var trace strings.Builder
	warm, err := Solve(context.Background(), m, Options{Trace: &trace})
	if err != nil {
		t.Fatalf("%s fsx: %v", name, err)
	}
	if dense.Status != warm.Status {
		t.Fatalf("%s: status %v (fsx) vs %v (dense)", name, warm.Status, dense.Status)
	}
	if dense.Status == Optimal && !almostEq(dense.Objective, warm.Objective) {
		t.Fatalf("%s: obj %.9g (fsx) vs %.9g (dense)", name, warm.Objective, dense.Objective)
	}
	root := ""
	if _, rest, ok := strings.Cut(trace.String(), "ilp: root lp="); ok {
		root, _, _ = strings.Cut(rest, " ")
	}
	return warm, root
}

// TestEngineParityRandomized cross-validates the factored engine against
// the dense simplex on 80 small random binary programs, at least 60 of
// which must reach a root LP rather than be solved by presolve, and on
// CASA-shaped
// models: a capacity row plus linearization rows L ≥ l_i + l_j − 1 over
// 30–45 traces, large enough that the engine's pivots run past a
// refactorization (every fsxRefactorEvery pivots). 24 CASA draws have
// mixed-sign gains and 12 more use core's sign pattern, whose cache-only
// corner is feasible; both root paths — the primal from that corner and
// the dual fallback — must be exercised.
func TestEngineParityRandomized(t *testing.T) {
	paths := map[string]int{}
	rng := testRNG(987654321)
	for trial := 0; trial < 80; trial++ {
		_, root := checkEngineParity(t, fmt.Sprintf("trial %d", trial), randBinaryModel(&rng))
		paths[root]++
	}
	// A trial that presolve solves outright compares no LP engine.
	if lp := 80 - paths[""]; lp < 60 {
		t.Fatalf("only %d of 80 random binary programs reached a root LP (paths %v); want at least 60", lp, paths)
	}
	r := casaRNG(0x2545f4914f6cdd1d)
	refactored := 0
	for trial := 0; trial < 36; trial++ {
		nl := 30 + r.intn(16)
		build := buildCASAModel
		if trial >= 24 {
			build = buildCacheOnlyModel
		}
		m := build(&r, nl, nl+r.intn(2*nl), false)
		sol, root := checkEngineParity(t, fmt.Sprintf("casa trial %d", trial), m)
		paths[root]++
		if sol.SimplexIters > fsxRefactorEvery {
			refactored++
		}
	}
	if refactored == 0 {
		t.Fatalf("no CASA-shaped solve ran past a refactorization (%d pivots)", fsxRefactorEvery)
	}
	if paths["primal"] == 0 || paths["dual"] == 0 {
		t.Fatalf("root paths %v: both the primal and the dual root must run", paths)
	}
	t.Logf("root paths: %v", paths)
}

// FuzzEngineParity fuzzes the factored engine against the dense simplex
// on CASA-shaped models drawn from the fuzzed seed and sizes.
func FuzzEngineParity(f *testing.F) {
	f.Add(uint64(1), uint8(30), uint8(40), false)
	f.Add(uint64(0x9e3779b97f4a7c15), uint8(12), uint8(20), true)
	f.Add(uint64(42), uint8(3), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed uint64, traces, edges uint8, faithful bool) {
		r := casaRNG(seed | 1) // xorshift's zero state is a fixed point
		nl := 2 + int(traces)%44
		ne := int(edges) % (2 * nl)
		if faithful {
			// Three rows and a binary L per edge: fewer edges keep the
			// dense per-node oracle fast enough to fuzz.
			ne %= 24
		}
		checkEngineParity(t, fmt.Sprintf("seed %#x traces %d edges %d faithful %v", seed, nl, ne, faithful),
			buildCASAModel(&r, nl, ne, faithful))
	})
}

// TestCutoffExactness checks that a transferred cutoff — at the optimum,
// above it, or wrongly below it — never changes the returned objective.
func TestCutoffExactness(t *testing.T) {
	rng := testRNG(24680)
	for trial := 0; trial < 60; trial++ {
		m := randBinaryModel(&rng)
		base, err := Solve(context.Background(), m, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if base.Status != Optimal {
			continue
		}
		slack := 1.0
		if m.sense == Maximize {
			slack = -1
		}
		for name, cut := range map[string]float64{
			"exact":     base.Objective,
			"loose":     base.Objective + slack, // worse than optimal: weak cutoff
			"too-tight": base.Objective - slack, // asserts a better point than exists
		} {
			cut := cut
			got, err := Solve(context.Background(), m, Options{Cutoff: &cut})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if got.Status != Optimal {
				t.Fatalf("trial %d cutoff=%s: status %v, want optimal", trial, name, got.Status)
			}
			if !almostEq(got.Objective, base.Objective) {
				t.Fatalf("trial %d cutoff=%s: obj %g, want %g", trial, name, got.Objective, base.Objective)
			}
		}
	}
}

// TestWarmCellHitCounter checks the hit counter fires when a solve runs
// with a transferred cutoff.
func TestWarmCellHitCounter(t *testing.T) {
	hits := obs.GetCounter("casa_ilp_warm_cell_hits_total")
	m := knapModel(12, 17)
	base, err := Solve(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cut := base.Objective

	before := hits.Value()
	if _, err := Solve(context.Background(), m, Options{Cutoff: &cut}); err != nil {
		t.Fatal(err)
	}
	if hits.Value() != before+1 {
		t.Fatalf("warm hits %d -> %d, want +1", before, hits.Value())
	}
}
