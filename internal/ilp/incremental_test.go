package ilp

import (
	"context"
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

// randBinaryModel builds a small random binary program.
func randBinaryModel(r *testRNG) *Model {
	n := 3 + int(r.next()%6)
	nc := 1 + int(r.next()%4)
	m := NewModel()
	vars := make([]Var, n)
	for i := range vars {
		vars[i] = m.AddBinary("")
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
		for _, v := range vars {
			e = e.Add(r.fl(0, 5), v)
		}
		rel := []Rel{LE, GE}[r.next()%2]
		m.AddConstraint("", e, rel, r.fl(1, float64(n)*2.5))
	}
	return m
}

// TestEngineParityRandomized cross-validates the factored engine (fsx)
// against the dense two-phase simplex at every node
// (Options.DisableWarmStart) on random binary programs.
func TestEngineParityRandomized(t *testing.T) {
	rng := testRNG(987654321)
	for trial := 0; trial < 80; trial++ {
		m := randBinaryModel(&rng)

		dense, err := Solve(context.Background(), m, Options{DisableWarmStart: true})
		if err != nil {
			t.Fatalf("trial %d dense: %v", trial, err)
		}
		warm, err := Solve(context.Background(), m, Options{})
		if err != nil {
			t.Fatalf("trial %d fsx: %v", trial, err)
		}
		if dense.Status != warm.Status {
			t.Fatalf("trial %d: status %v (fsx) vs %v (dense)", trial, warm.Status, dense.Status)
		}
		if dense.Status == Optimal && !almostEq(dense.Objective, warm.Objective) {
			t.Fatalf("trial %d: obj %g (fsx) vs %g (dense)", trial, warm.Objective, dense.Objective)
		}
	}
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
