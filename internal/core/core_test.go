package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/conflict"
	"repro/internal/fault"
	"repro/internal/ilp"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/trace"
)

// makeSet builds a trace set with one trace per entry of loops: each trace
// is a self-looping block (trips iterations of codeInstrs instructions)
// followed by a jump block, so trace formation cannot merge neighbours.
func makeSet(t *testing.T, loops []struct{ Code, Trips int }) *trace.Set {
	t.Helper()
	pb := ir.NewProgramBuilder("synthetic")
	f := pb.Func("main")
	for i, l := range loops {
		head := fmt.Sprintf("h%d", i)
		link := fmt.Sprintf("j%d", i)
		next := fmt.Sprintf("h%d", i+1)
		if i == len(loops)-1 {
			next = "end"
		}
		f.Block(head).Code(l.Code).Branch(head, link, ir.Loop{Trips: l.Trips})
		f.Block(link).ALU(1).Jump(next)
	}
	f.Block("end").Return()
	p, err := pb.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	prof, err := sim.ProfileProgram(p)
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	set, err := trace.Build(p, prof, trace.Options{MaxBytes: 4096, LineBytes: 16})
	if err != nil {
		t.Fatalf("trace.Build: %v", err)
	}
	if err := set.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return set
}

func defaultParams(spm int) Params {
	return Params{
		SPMSize:    spm,
		ESPHit:     0.2,
		ECacheHit:  0.5,
		ECacheMiss: 40,
	}
}

// loopTraces returns the trace IDs of the loop traces (fetch-heavy ones),
// in the order of their defining loops.
func loopTraces(set *trace.Set, n int) []int {
	ids := make([]int, 0, n)
	for _, tr := range set.Traces {
		if tr.Fetches > 1 && len(ids) < n {
			ids = append(ids, tr.ID)
		}
	}
	return ids
}

func TestParamsValidate(t *testing.T) {
	set := makeSet(t, []struct{ Code, Trips int }{{10, 5}})
	g := conflict.New(make([]int64, len(set.Traces)))
	bad := []Params{
		{SPMSize: -1, ESPHit: 1, ECacheHit: 2, ECacheMiss: 3},
		{SPMSize: 64, ESPHit: 0, ECacheHit: 2, ECacheMiss: 3},
		{SPMSize: 64, ESPHit: 1, ECacheHit: 0, ECacheMiss: 3},
		{SPMSize: 64, ESPHit: 1, ECacheHit: 2, ECacheMiss: 2},
	}
	for _, p := range bad {
		if _, err := Allocate(context.Background(), set, g, p); err == nil {
			t.Errorf("Allocate accepted %+v", p)
		}
		if _, err := GreedyAllocate(context.Background(), set, g, p); err == nil {
			t.Errorf("GreedyAllocate accepted %+v", p)
		}
	}
	// Mismatched graph size.
	if _, err := Allocate(context.Background(), set, conflict.New(make([]int64, 99)), defaultParams(64)); err == nil {
		t.Error("Allocate accepted mismatched graph")
	}
}

func TestLinearizationString(t *testing.T) {
	if Tight.String() != "tight" || Faithful.String() != "faithful" {
		t.Error("linearization names")
	}
}

func TestNoConflictsReducesToKnapsack(t *testing.T) {
	// Three loops with distinct heat; no conflict edges. CASA should pick
	// the fetch-densest set that fits.
	set := makeSet(t, []struct{ Code, Trips int }{
		{10, 1000}, // hot, (10+1+1+1)*4 = 52B raw
		{10, 10},   // lukewarm
		{10, 500},  // hot
	})
	fetches := make([]int64, len(set.Traces))
	for i, tr := range set.Traces {
		fetches[i] = tr.Fetches
	}
	g := conflict.New(fetches)
	ids := loopTraces(set, 3)
	// Room for exactly two loop traces.
	spm := set.Traces[ids[0]].RawBytes + set.Traces[ids[2]].RawBytes
	a, err := Allocate(context.Background(), set, g, defaultParams(spm))
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if a.Status != ilp.Optimal {
		t.Fatalf("status %v", a.Status)
	}
	if !a.InSPM[ids[0]] || !a.InSPM[ids[2]] {
		t.Errorf("expected the two hot loops in SPM; got %v", a.InSPM)
	}
	if a.InSPM[ids[1]] {
		t.Error("lukewarm loop should stay cached")
	}
	if a.UsedBytes > spm {
		t.Errorf("capacity violated: %d > %d", a.UsedBytes, spm)
	}
}

func TestConflictsChangeTheChoice(t *testing.T) {
	// Two moderately hot loops (A, B) thrash each other badly; a third (C)
	// is slightly hotter but conflict-free. With room for one trace only,
	// a cache-unaware knapsack picks C; CASA must weigh the conflict
	// misses it can remove and pick A or B.
	set := makeSet(t, []struct{ Code, Trips int }{
		{10, 400}, // A
		{10, 400}, // B
		{10, 500}, // C — highest f_i
	})
	fetches := make([]int64, len(set.Traces))
	for i, tr := range set.Traces {
		fetches[i] = tr.Fetches
	}
	g := conflict.New(fetches)
	ids := loopTraces(set, 3)
	// Massive mutual thrashing between A and B.
	g.AddMisses(ids[0], ids[1], 300)
	g.AddMisses(ids[1], ids[0], 300)

	spm := set.Traces[ids[0]].RawBytes // room for one
	p := defaultParams(spm)
	a, err := Allocate(context.Background(), set, g, p)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if !a.InSPM[ids[0]] && !a.InSPM[ids[1]] {
		t.Errorf("CASA should remove the thrashing pair's misses; chose %v", a.InSPM)
	}
	if a.InSPM[ids[2]] {
		t.Error("C does not fit together with A/B")
	}
	// Sanity: the cache-unaware choice (C) really is worse under the model.
	inC := make([]bool, len(set.Traces))
	inC[ids[2]] = true
	if PredictEnergy(set, g, p, inC) <= a.PredictedEnergy {
		t.Error("test premise broken: C should be the worse choice")
	}
}

func TestFaithfulAndTightAgree(t *testing.T) {
	set := makeSet(t, []struct{ Code, Trips int }{
		{8, 200}, {12, 300}, {6, 150}, {10, 250},
	})
	fetches := make([]int64, len(set.Traces))
	for i, tr := range set.Traces {
		fetches[i] = tr.Fetches
	}
	ids := loopTraces(set, 4)
	g := conflict.New(fetches)
	g.AddMisses(ids[0], ids[1], 120)
	g.AddMisses(ids[1], ids[0], 90)
	g.AddMisses(ids[2], ids[3], 60)
	g.AddMisses(ids[3], ids[0], 45)

	for _, spm := range []int{64, 96, 160} {
		pt := defaultParams(spm)
		pt.Linearization = Tight
		pf := defaultParams(spm)
		pf.Linearization = Faithful
		at, err := Allocate(context.Background(), set, g, pt)
		if err != nil {
			t.Fatalf("tight: %v", err)
		}
		af, err := Allocate(context.Background(), set, g, pf)
		if err != nil {
			t.Fatalf("faithful: %v", err)
		}
		if math.Abs(at.PredictedEnergy-af.PredictedEnergy) > 1e-6 {
			t.Errorf("spm %d: tight %g vs faithful %g",
				spm, at.PredictedEnergy, af.PredictedEnergy)
		}
	}
}

func TestSelfConflictHandled(t *testing.T) {
	// One trace with heavy self-eviction: placing it in the SPM removes
	// those misses; CASA must prefer it over an equally hot clean trace
	// when only one fits.
	set := makeSet(t, []struct{ Code, Trips int }{
		{10, 300}, // self-thrashing
		{10, 300}, // clean
	})
	fetches := make([]int64, len(set.Traces))
	for i, tr := range set.Traces {
		fetches[i] = tr.Fetches
	}
	ids := loopTraces(set, 2)
	g := conflict.New(fetches)
	g.AddMisses(ids[0], ids[0], 200)

	spm := set.Traces[ids[0]].RawBytes
	a, err := Allocate(context.Background(), set, g, defaultParams(spm))
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if !a.InSPM[ids[0]] {
		t.Errorf("self-conflicting trace should win the slot; got %v", a.InSPM)
	}
}

func TestOversizedTraceNeverSelected(t *testing.T) {
	set := makeSet(t, []struct{ Code, Trips int }{
		{100, 1000}, // ~400B, very hot
		{5, 50},     // small
	})
	fetches := make([]int64, len(set.Traces))
	for i, tr := range set.Traces {
		fetches[i] = tr.Fetches
	}
	g := conflict.New(fetches)
	ids := loopTraces(set, 2)
	spm := set.Traces[ids[1]].RawBytes + 8 // big trace cannot fit
	a, err := Allocate(context.Background(), set, g, defaultParams(spm))
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if a.InSPM[ids[0]] {
		t.Error("oversized trace selected")
	}
	if !a.InSPM[ids[1]] {
		t.Error("fitting hot trace not selected")
	}
}

func TestPredictedEnergyMatchesEval(t *testing.T) {
	set := makeSet(t, []struct{ Code, Trips int }{
		{8, 100}, {9, 200}, {7, 150},
	})
	fetches := make([]int64, len(set.Traces))
	for i, tr := range set.Traces {
		fetches[i] = tr.Fetches
	}
	ids := loopTraces(set, 3)
	g := conflict.New(fetches)
	g.AddMisses(ids[0], ids[1], 40)
	g.AddMisses(ids[1], ids[2], 25)
	p := defaultParams(80)
	a, err := Allocate(context.Background(), set, g, p)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	recomputed := PredictEnergy(set, g, p, a.InSPM)
	if math.Abs(recomputed-a.PredictedEnergy) > 1e-6 {
		t.Errorf("PredictEnergy %g != solver objective %g", recomputed, a.PredictedEnergy)
	}
}

// TestILPMatchesExhaustive enumerates all feasible selections on small
// random instances and checks CASA finds the minimum-energy one.
func TestILPMatchesExhaustive(t *testing.T) {
	rng := uint64(7)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	for trial := 0; trial < 12; trial++ {
		nLoops := 4 + next(3) // 4..6 loop traces
		loops := make([]struct{ Code, Trips int }, nLoops)
		for i := range loops {
			loops[i] = struct{ Code, Trips int }{Code: 4 + next(10), Trips: 10 + next(400)}
		}
		set := makeSet(t, loops)
		fetches := make([]int64, len(set.Traces))
		for i, tr := range set.Traces {
			fetches[i] = tr.Fetches
		}
		g := conflict.New(fetches)
		ids := loopTraces(set, nLoops)
		for e := 0; e < nLoops; e++ {
			a, b := ids[next(nLoops)], ids[next(nLoops)]
			g.AddMisses(a, b, int64(10+next(200)))
		}
		p := defaultParams(40 + next(200))
		a, err := Allocate(context.Background(), set, g, p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		// Exhaustive enumeration over all traces (cold link traces too).
		n := len(set.Traces)
		if n > 16 {
			t.Fatalf("trial %d: too many traces (%d) for enumeration", trial, n)
		}
		best := math.Inf(1)
		sel := make([]bool, n)
		for mask := 0; mask < 1<<n; mask++ {
			bytes := 0
			for i := 0; i < n; i++ {
				sel[i] = mask&(1<<i) != 0
				if sel[i] {
					bytes += set.Traces[i].RawBytes
				}
			}
			if bytes > p.SPMSize {
				continue
			}
			if e := PredictEnergy(set, g, p, sel); e < best {
				best = e
			}
		}
		if math.Abs(best-a.PredictedEnergy) > 1e-6 {
			t.Errorf("trial %d: ILP %g vs exhaustive %g", trial, a.PredictedEnergy, best)
		}
	}
}

func TestGreedyIsFeasibleAndNeverBeatsILP(t *testing.T) {
	set := makeSet(t, []struct{ Code, Trips int }{
		{10, 500}, {8, 300}, {12, 400}, {6, 100}, {9, 250},
	})
	fetches := make([]int64, len(set.Traces))
	for i, tr := range set.Traces {
		fetches[i] = tr.Fetches
	}
	ids := loopTraces(set, 5)
	g := conflict.New(fetches)
	g.AddMisses(ids[0], ids[2], 150)
	g.AddMisses(ids[2], ids[0], 120)
	g.AddMisses(ids[1], ids[4], 80)
	for _, spm := range []int{48, 96, 200} {
		p := defaultParams(spm)
		gr, err := GreedyAllocate(context.Background(), set, g, p)
		if err != nil {
			t.Fatalf("greedy: %v", err)
		}
		if gr.UsedBytes > spm {
			t.Fatalf("greedy overflow: %d > %d", gr.UsedBytes, spm)
		}
		opt, err := Allocate(context.Background(), set, g, p)
		if err != nil {
			t.Fatalf("ilp: %v", err)
		}
		if gr.PredictedEnergy < opt.PredictedEnergy-1e-6 {
			t.Errorf("spm %d: greedy %g beats optimal %g — ILP broken",
				spm, gr.PredictedEnergy, opt.PredictedEnergy)
		}
	}
}

func TestNumInSPM(t *testing.T) {
	a := &Allocation{InSPM: []bool{true, false, true, true}}
	if a.NumInSPM() != 3 {
		t.Errorf("NumInSPM = %d", a.NumInSPM())
	}
}

func TestBuildModelExportsLP(t *testing.T) {
	set := makeSet(t, []struct{ Code, Trips int }{{8, 100}, {8, 120}})
	fetches := make([]int64, len(set.Traces))
	for i, tr := range set.Traces {
		fetches[i] = tr.Fetches
	}
	ids := loopTraces(set, 2)
	g := conflict.New(fetches)
	g.AddMisses(ids[0], ids[1], 30)
	m, l, err := BuildModel(set, g, defaultParams(64))
	if err != nil {
		t.Fatalf("BuildModel: %v", err)
	}
	if len(l) != len(set.Traces) {
		t.Fatalf("got %d location vars", len(l))
	}
	if m.NumVars() < len(set.Traces)+1 { // l vars + at least one L var
		t.Errorf("model too small: %d vars", m.NumVars())
	}
	// Must be solvable standalone.
	sol, err := ilp.Solve(context.Background(), m, ilp.Options{})
	if err != nil || sol.Status != ilp.Optimal {
		t.Fatalf("solve: %v %v", err, sol.Status)
	}
}

func fetchCounts(set *trace.Set) []int64 {
	fetches := make([]int64, len(set.Traces))
	for i, tr := range set.Traces {
		fetches[i] = tr.Fetches
	}
	return fetches
}

func TestAllocateFallsBackToGreedyOnAbort(t *testing.T) {
	set := makeSet(t, []struct{ Code, Trips int }{{12, 40}, {10, 30}, {8, 20}, {6, 10}})
	g := conflict.New(fetchCounts(set))
	p := defaultParams(64)

	// An injected solver deadline aborts the ILP before any incumbent;
	// Allocate must still return a feasible, labeled selection.
	fault.Set(fault.NewPlan().On(fault.SolverDeadline, 1))
	defer fault.Set(nil)
	a, err := Allocate(context.Background(), set, g, p)
	if err != nil {
		t.Fatalf("Allocate under solver fault: %v", err)
	}
	if !a.Fallback || !a.Degraded || a.DegradedReason != "fault:solver-deadline" {
		t.Fatalf("fallback=%v degraded=%v reason=%q, want greedy fallback labeled with the fault",
			a.Fallback, a.Degraded, a.DegradedReason)
	}
	if a.UsedBytes > p.SPMSize {
		t.Fatalf("fallback allocation uses %d of %d bytes", a.UsedBytes, p.SPMSize)
	}

	// The fallback selection matches GreedyAllocate exactly.
	gr, err := GreedyAllocate(context.Background(), set, g, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gr.InSPM {
		if a.InSPM[i] != gr.InSPM[i] {
			t.Fatalf("fallback selection differs from greedy at trace %d", i)
		}
	}

	// With the fault disarmed the same inputs solve to optimality and are
	// not labeled degraded.
	fault.Set(nil)
	a, err = Allocate(context.Background(), set, g, p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Degraded || a.Fallback || a.Status != ilp.Optimal {
		t.Fatalf("clean solve: degraded=%v fallback=%v status=%v", a.Degraded, a.Fallback, a.Status)
	}
}

func TestAllocateCanceledContextFallsBack(t *testing.T) {
	set := makeSet(t, []struct{ Code, Trips int }{{12, 40}, {10, 30}})
	g := conflict.New(fetchCounts(set))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, err := Allocate(ctx, set, g, defaultParams(64))
	if err != nil {
		t.Fatalf("Allocate with canceled context: %v", err)
	}
	if !a.Fallback || a.DegradedReason != "canceled" {
		t.Fatalf("fallback=%v reason=%q, want greedy fallback on cancellation", a.Fallback, a.DegradedReason)
	}
}
