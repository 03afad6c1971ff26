package ilp

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/fault"
)

// hardKnapsack builds a maximize knapsack whose LP relaxation is
// fractional almost everywhere, so branch & bound needs a real tree:
// value/weight ratios are close together and the capacity cuts the
// items mid-stream.
func hardKnapsack(n int) *Model {
	m := NewModel()
	obj := LinExpr{}
	capacity := LinExpr{}
	total := 0
	for i := 0; i < n; i++ {
		x := m.AddBinary("x" + string(rune('a'+i%26)) + string(rune('0'+i/26)))
		v := float64(100 + (i*37)%29)
		w := float64(100 + (i*53)%31)
		obj = obj.Add(v, x)
		capacity = capacity.Add(w, x)
		total += int(w)
	}
	m.SetObjective(obj, Maximize)
	m.AddConstraint("capacity", capacity, LE, float64(total)/2)
	return m
}

func TestSolveCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := Solve(ctx, hardKnapsack(16), Options{})
	if err != nil {
		t.Fatalf("anytime Solve must not error on cancellation, got %v", err)
	}
	if sol.Status != Aborted || !sol.Degraded || sol.DegradedReason != "canceled" {
		t.Fatalf("got status=%v degraded=%v reason=%q, want Aborted/degraded/canceled",
			sol.Status, sol.Degraded, sol.DegradedReason)
	}
}

func TestSolveExpiredDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	sol, err := Solve(ctx, hardKnapsack(16), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Aborted || sol.DegradedReason != "deadline" {
		t.Fatalf("got status=%v reason=%q, want Aborted/deadline", sol.Status, sol.DegradedReason)
	}
}

func TestSolveBudgetReturnsIncumbentWithGap(t *testing.T) {
	// Stopping at the node limit with an incumbent in hand reports it as a
	// degraded Feasible with a gap. The limit is taken from the solve
	// itself: the smallest MaxNodes at which plunging has produced an
	// incumbent, searched upward from 1.
	m := hardKnapsack(24)
	full, err := Solve(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Status != Optimal {
		t.Fatalf("unlimited solve: %v", full.Status)
	}
	var sol *Solution
	limit := 1
	for ; limit < full.Nodes; limit++ {
		if sol, err = Solve(context.Background(), m, Options{MaxNodes: limit}); err != nil {
			t.Fatal(err)
		}
		if sol.Status != Aborted {
			break
		}
	}
	if sol == nil || sol.Status != Feasible {
		t.Fatalf("no node limit below %d nodes yields a degraded incumbent (last: %+v)", full.Nodes, sol)
	}
	t.Logf("first incumbent at MaxNodes=%d of %d nodes", limit, full.Nodes)
	if !sol.Degraded || sol.DegradedReason != "node-limit" {
		t.Fatalf("degraded=%v reason=%q, want degraded node-limit", sol.Degraded, sol.DegradedReason)
	}
	if sol.Gap < 0 {
		t.Fatalf("gap = %g, want >= 0", sol.Gap)
	}
	// The degraded objective must not beat the true optimum, and the true
	// optimum must be within the reported gap of it.
	if sol.Objective > full.Objective+1e-6 {
		t.Fatalf("degraded objective %g beats optimum %g", sol.Objective, full.Objective)
	}
	slack := sol.Gap*math.Max(1, math.Abs(sol.Objective)) + 1e-6
	if full.Objective-sol.Objective > slack {
		t.Fatalf("optimum %g exceeds incumbent %g + gap slack %g", full.Objective, sol.Objective, slack)
	}
}

func TestSolveWallClockBudget(t *testing.T) {
	// A 1ns budget expires before the first node: the solve still
	// terminates, without error, and is labeled degraded.
	sol, err := Solve(context.Background(), hardKnapsack(20), Options{Budget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Degraded || sol.DegradedReason != "deadline" {
		t.Fatalf("degraded=%v reason=%q, want degraded deadline", sol.Degraded, sol.DegradedReason)
	}
}

func TestSolveLPCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveLP(ctx, hardKnapsack(8), Options{}); err != context.Canceled {
		t.Fatalf("SolveLP err = %v, want context.Canceled", err)
	}
}

func TestSolveBruteForceCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveBruteForce(ctx, hardKnapsack(8)); err != context.Canceled {
		t.Fatalf("SolveBruteForce err = %v, want context.Canceled", err)
	}
}

func TestSolveFaultSolverDeadline(t *testing.T) {
	fault.Set(fault.NewPlan().On(fault.SolverDeadline, 1))
	defer fault.Set(nil)
	sol, err := Solve(context.Background(), hardKnapsack(12), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Aborted || sol.DegradedReason != "fault:solver-deadline" {
		t.Fatalf("got status=%v reason=%q, want Aborted fault:solver-deadline", sol.Status, sol.DegradedReason)
	}
	// With the fault disarmed the same model solves to optimality.
	sol, err = Solve(context.Background(), hardKnapsack(12), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("post-fault status = %v, want Optimal", sol.Status)
	}
}
