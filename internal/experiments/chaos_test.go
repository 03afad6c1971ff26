package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// degradedByCell walks a trial's span forest and returns the degradation
// cause for every cell that consumed a degraded CASA allocation, keyed by
// cell index (the same walk cmd/experiments uses to fill the run report).
func degradedByCell(roots []*obs.Span) map[int]string {
	out := map[int]string{}
	var walk func(sp *obs.Span, cell int)
	walk = func(sp *obs.Span, cell int) {
		if sp.Name == "cell" {
			if idx, ok := sp.Attrs["index"].(int); ok {
				cell = idx
			}
		}
		if reason, ok := sp.Attrs["degraded"]; ok && cell >= 0 {
			if _, dup := out[cell]; !dup {
				out[cell] = fmt.Sprint(reason)
			}
		}
		for _, c := range sp.Children {
			walk(c, cell)
		}
	}
	for _, r := range roots {
		walk(r, -1)
	}
	return out
}

// TestChaosFig4 drives the full fig4 grid under randomized (but seeded)
// fault plans and checks the robustness contract end to end:
//
//   - the grid always completes — a trial ends in rows, rows+GridError,
//     or rows+degradations, never a hang or an unrecovered panic;
//   - every cell a fault touched is accounted for: failed cells appear in
//     the *parallel.GridError with a cause, degraded cells carry their
//     cause on the span tree the run report is built from;
//   - cells no fault touched produce rows byte-identical to a fault-free
//     baseline, regardless of what happened to their neighbors.
func TestChaosFig4(t *testing.T) {
	cfg := DefaultFig4()

	fault.Set(nil)
	base, err := Fig4(context.Background(), NewSuite().SetWorkers(1), cfg)
	if err != nil {
		t.Fatalf("fault-free baseline: %v", err)
	}

	trials := 6
	if raceEnabled || testing.Short() {
		trials = 2
	}
	points := []string{fault.SolverDeadline, fault.StreamRead, fault.MemoMiss, fault.CellPanic}
	rng := rand.New(rand.NewSource(0xCA5A))

	for trial := 0; trial < trials; trial++ {
		// Random plan: each point independently gets 1-2 scheduled hits
		// with probability 1/2; at least one point is always armed. Serial
		// workers make the per-point hit sequence — and therefore the set
		// of cells each clause lands on — deterministic per seed.
		plan := fault.NewPlan()
		armed := false
		for _, pt := range points {
			if rng.Intn(2) == 0 {
				continue
			}
			armed = true
			for n := 1 + rng.Intn(2); n > 0; n-- {
				plan.On(pt, 1+rng.Int63n(6))
			}
		}
		if !armed {
			plan.On(points[rng.Intn(len(points))], 1)
		}

		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			fault.Set(plan)
			defer fault.Set(nil)

			tr := obs.NewTracer()
			ctx := obs.WithTracer(context.Background(), tr)
			rows, err := Fig4(ctx, NewSuite().SetWorkers(1), cfg)

			failed := map[int]error{}
			if err != nil {
				var ge *parallel.GridError
				if !errors.As(err, &ge) {
					t.Fatalf("plan %v: non-grid error: %v", plan, err)
				}
				if len(rows) != len(cfg.SPMSizes) {
					t.Fatalf("plan %v: MapAll returned %d slots, want %d", plan, len(rows), len(cfg.SPMSizes))
				}
				for _, ce := range ge.Failed {
					if ce.Err == nil || ce.Err.Error() == "" {
						t.Errorf("plan %v: failed cell %d has no cause", plan, ce.Index)
					}
					failed[ce.Index] = ce.Err
				}
			}
			degraded := degradedByCell(tr.Roots())
			for i, reason := range degraded {
				if reason == "" {
					t.Errorf("plan %v: degraded cell %d has no cause", plan, i)
				}
			}

			// Fired faults must be visible in the outcome: an aborted solve
			// degrades its cell, injected panics and stream errors fail
			// theirs with an attributable cause. (Forced memo misses only
			// recompute, so they leave no trace beyond counters.)
			fired := plan.Fired()
			if fired[fault.SolverDeadline] > 0 && len(degraded) == 0 {
				t.Errorf("plan %v: solver-deadline fired %d times but no cell is degraded",
					plan, fired[fault.SolverDeadline])
			}
			for _, want := range []struct {
				point string
				check func(error) bool
			}{
				{fault.StreamRead, func(e error) bool {
					var ie *fault.InjectedError
					return errors.As(e, &ie) && ie.Point == fault.StreamRead
				}},
				{fault.CellPanic, func(e error) bool {
					var pe *parallel.PanicError
					return errors.As(e, &pe)
				}},
			} {
				if fired[want.point] == 0 {
					continue
				}
				found := false
				for _, e := range failed {
					if want.check(e) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("plan %v: %s fired %d times but no failed cell carries it (failed: %v)",
						plan, want.point, fired[want.point], failed)
				}
			}

			// Untouched cells are bit-identical to the fault-free baseline.
			for i := range base {
				if _, isFailed := failed[i]; isFailed {
					continue
				}
				if _, isDegraded := degraded[i]; isDegraded {
					continue
				}
				if rows[i] != base[i] {
					t.Errorf("plan %v: non-faulted cell %d diverged:\n got %+v\nwant %+v",
						plan, i, rows[i], base[i])
				}
			}
		})
	}
}

// TestChaosEnvSpec closes the CASA_FAULTS loop: the exact spec string the
// README documents parses into a plan whose injected failure surfaces as
// a failed fig4 cell with an attributable cause.
func TestChaosEnvSpec(t *testing.T) {
	plan, err := fault.Parse("cell-panic:2")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	fault.Set(plan)
	defer fault.Set(nil)

	rows, err := Fig4(context.Background(), NewSuite().SetWorkers(1), DefaultFig4())
	var ge *parallel.GridError
	if !errors.As(err, &ge) {
		t.Fatalf("Fig4 under cell-panic:2 returned %v, want *parallel.GridError", err)
	}
	// Cells evaluate largest scratchpad first (warmplan.go), so the 2nd
	// serial hit lands on cell 2 (512 B) of the natural-order grid.
	if len(ge.Failed) != 1 || ge.Failed[0].Index != 2 {
		t.Fatalf("failed cells = %+v, want exactly cell 2 (2nd hit, largest-first order)", ge.Failed)
	}
	var pe *parallel.PanicError
	if !errors.As(ge.Failed[0].Err, &pe) {
		t.Fatalf("cell 2 cause = %v, want *parallel.PanicError", ge.Failed[0].Err)
	}
	if len(rows) != 4 || rows[0].SPMSize == 0 || rows[1].SPMSize == 0 || rows[3].SPMSize == 0 {
		t.Errorf("surviving cells missing from partial results: %+v", rows)
	}
	if got := plan.Fired()[fault.CellPanic]; got != 1 {
		t.Errorf("Fired[cell-panic] = %d, want 1", got)
	}
}
