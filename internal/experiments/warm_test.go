package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ilp"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestWarmMatchesColdStudies is the central exactness contract of the
// warm-start machinery: every fig4 and sensitivity cell's suite-owned
// allocation and CASA outcome — solved with cross-cell cutoffs and
// reduced-cost fixing — must equal, bit for bit, those of a standalone
// PrepareProgram pipeline, which has no donor store. The sensitivity
// grid must also install at least one transferred cutoff, so the
// warm path is exercised, not bypassed.
func TestWarmMatchesColdStudies(t *testing.T) {
	if raceEnabled {
		t.Skip("full warm-vs-cold sweep is too heavy under the race detector")
	}
	if testing.Short() {
		t.Skip("warm-vs-cold sweep skipped in -short mode")
	}
	ctx := context.Background()
	s := NewSuite().SetWorkers(1)
	fig4, sens := DefaultFig4(), DefaultSensitivity()
	if _, err := Fig4(ctx, s, fig4); err != nil {
		t.Fatalf("Fig4: %v", err)
	}
	hits := obs.GetCounter("casa_ilp_warm_cell_hits_total")
	hitsBefore := hits.Value()
	if _, err := Sensitivity(ctx, s, sens); err != nil {
		t.Fatalf("Sensitivity: %v", err)
	}
	if hits.Value() == hitsBefore {
		t.Error("sensitivity grid installed no transferred cutoff; the warm path is untested")
	}
	cold := func(name string, cache CacheSpec, spm int) *Pipeline {
		prog, err := workload.Shared(name)
		if err == nil {
			var p *Pipeline
			if p, err = PrepareProgram(ctx, prog, cache, spm); err == nil {
				return p
			}
		}
		t.Fatalf("%s/%+v/%d: standalone pipeline: %v", name, cache, spm, err)
		return nil
	}
	var pairs [][2]*Pipeline // {suite-owned, standalone}
	for _, spm := range fig4.SPMSizes {
		w, _ := s.Pipeline(ctx, fig4.Workload, fig4.Cache, spm)
		pairs = append(pairs, [2]*Pipeline{w, cold(fig4.Workload, fig4.Cache, spm)})
	}
	for _, c := range sens.Variants {
		w, _ := s.Pipeline(ctx, sens.Workload, c, sens.SPMSize)
		pairs = append(pairs, [2]*Pipeline{w, cold(sens.Workload, c, sens.SPMSize)})
	}
	bits := math.Float64bits
	warmed := 0
	for _, pair := range pairs {
		var allocs [2]*core.Allocation
		var outs [2]*Outcome
		var models [2]float64
		for k, p := range pair {
			a, err := p.CASAAllocation(ctx)
			if err != nil {
				t.Fatalf("%s/%d: allocation: %v", p.Workload, p.SPMSize, err)
			}
			if outs[k], err = p.RunCASA(ctx); err != nil {
				t.Fatalf("%s/%d: RunCASA: %v", p.Workload, p.SPMSize, err)
			}
			allocs[k] = a
			models[k] = core.PredictEnergy(p.Set, p.Graph, p.casaParams(), a.InSPM)
		}
		cell := fmt.Sprintf("%s/%+v/%d", pair[1].Workload, pair[1].Cache, pair[1].SPMSize)
		wa, ca, wo, co := allocs[0], allocs[1], outs[0], outs[1]
		if !slices.Equal(wa.InSPM, ca.InSPM) || wa.UsedBytes != ca.UsedBytes || wa.Status != ca.Status {
			t.Errorf("%s: warm allocation diverged from cold:\nwarm %v %d B %v\ncold %v %d B %v", cell,
				wa.InSPM, wa.UsedBytes, wa.Status, ca.InSPM, ca.UsedBytes, ca.Status)
		}
		// The model energy of the selection, evaluated on each pipeline's
		// own conflict graph, is bit-identical.
		// PredictedEnergy itself is the solver objective at the LP point,
		// whose continuous linearization variables carry pivot-path
		// rounding, so it agrees only to a few ulps.
		if bits(models[0]) != bits(models[1]) {
			t.Errorf("%s: model energy %v (warm) != %v (cold)", cell, models[0], models[1])
		}
		if d := math.Abs(wa.PredictedEnergy - ca.PredictedEnergy); d > 1e-12*math.Abs(models[1]) {
			t.Errorf("%s: solver objective %v (warm) vs %v (cold)", cell, wa.PredictedEnergy, ca.PredictedEnergy)
		}
		wr, cr := *wo.Result, *co.Result
		we, ce := wr.Energy, cr.Energy
		if bits(wo.EnergyMicroJ) != bits(co.EnergyMicroJ) || wo.PlacedTraces != co.PlacedTraces ||
			wo.UsedBytes != co.UsedBytes || wr.Fetches != cr.Fetches || wr.SPMAccesses != cr.SPMAccesses ||
			wr.CacheHits != cr.CacheHits || wr.CacheMisses != cr.CacheMisses || wr.Cycles != cr.Cycles ||
			bits(we.SPM) != bits(ce.SPM) || bits(we.CacheHits) != bits(ce.CacheHits) ||
			bits(we.CacheMisses) != bits(ce.CacheMisses) || bits(we.MainMemory) != bits(ce.MainMemory) {
			t.Errorf("%s: warm outcome diverged from cold:\nwarm %+v\ncold %+v", cell, wr, cr)
		}
		if co.Warm {
			t.Errorf("%s: standalone pipeline reports a warm solve", cell)
		}
		if wo.Warm {
			warmed++
		}
	}
	if warmed == 0 {
		t.Error("no cell was warm-started; the warm-vs-cold comparison is vacuous")
	}
}

// TestWarmStore pins the donor store's contract: neighbors differ in
// exactly one parameter and share the program, come back in key order
// whatever the insertion order, the store clears itself at its bound,
// and Dump lists only donors over bundled workloads' shared programs.
func TestWarmStore(t *testing.T) {
	mpeg, err := workload.Shared("mpeg")
	if err != nil {
		t.Fatal(err)
	}
	custom := &ir.Program{Name: "mpeg"} // a bundled name, but not the shared instance
	other := &ir.Program{Name: "other"}
	set := &trace.Set{}
	pipe := func(prog *ir.Program, cache CacheSpec, spm int) *Pipeline {
		return &Pipeline{Prog: prog, Cache: cache, SPMSize: spm, Set: set}
	}
	a, b := DM(1024), DM(2048)
	lru2 := CacheSpec{Size: 1024, Line: 16, Assoc: 2}

	var w WarmStore
	for _, p := range []*Pipeline{
		pipe(mpeg, b, 512),    // both differ: not a neighbor
		pipe(mpeg, lru2, 256), // cache neighbor
		pipe(mpeg, a, 256),    // the target itself
		pipe(mpeg, b, 256),    // cache neighbor
		pipe(mpeg, lru2, 512), // both differ: not a neighbor
		pipe(mpeg, a, 128),    // spm neighbor
		pipe(custom, a, 128),  // same parameters, other program
		pipe(other, a, 512),   // other program
	} {
		w.Record(p, []bool{true})
	}
	if got := w.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8", got)
	}

	for _, tc := range []struct {
		name string
		k    donorKey
		want []donorKey
	}{
		{"bundled program", donorKey{prog: mpeg, cache: a, spm: 256}, []donorKey{
			{prog: mpeg, cache: a, spm: 128},
			{prog: mpeg, cache: lru2, spm: 256},
			{prog: mpeg, cache: b, spm: 256},
		}},
		{"custom program", donorKey{prog: custom, cache: a, spm: 256}, []donorKey{
			{prog: custom, cache: a, spm: 128},
		}},
		{"unknown program", donorKey{prog: &ir.Program{Name: "mpeg"}, cache: a, spm: 256}, nil},
	} {
		var got []donorKey
		for _, c := range w.neighbors(tc.k) {
			got = append(got, c.key)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: neighbors = %v, want %v", tc.name, got, tc.want)
		}
	}

	dump := w.Dump()
	var dumped []string
	for _, d := range dump {
		if d.Workload != "mpeg" {
			t.Errorf("Dump lists a donor of %q; only bundled workloads persist", d.Workload)
		}
		dumped = append(dumped, fmt.Sprintf("%d/%d/%d", d.Cache().Size, d.Cache().Assoc, d.SPMBytes))
	}
	if want := []string{"1024/1/128", "1024/1/256", "1024/2/256", "2048/1/256", "1024/2/512", "2048/1/512"}; !slices.Equal(dumped, want) {
		t.Errorf("Dump = %v, want %v", dumped, want)
	}

	for spm := 0; len(w.cells) < maxWarmDonors; spm++ {
		w.Record(pipe(other, b, spm), nil)
	}
	w.Record(pipe(mpeg, a, 1024), nil)
	if got := w.Len(); got != 1 {
		t.Errorf("after recording into a full store Len = %d, want 1 (cleared, then stored)", got)
	}
	if n := w.Clear(); n != 1 || w.Len() != 0 {
		t.Errorf("Clear returned %d, left %d; want 1, 0", n, w.Len())
	}
}

// TestFig4PermutedOrderInvariant is the order-independence property:
// whatever order the grid's cells are evaluated in — natural
// (smallest first), warm (largest first), or random permutations where
// consecutive cells are often not grid neighbors — the rows are
// identical. Cell order may change which solves find donors (and so the
// hit/miss counters), but donated cutoffs never change an answer.
func TestFig4PermutedOrderInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("permutation sweep skipped in -short mode")
	}
	ctx := context.Background()
	cfg := DefaultFig4()
	want, err := Fig4(ctx, NewSuite().SetWorkers(1), cfg)
	if err != nil {
		t.Fatalf("reference Fig4: %v", err)
	}
	n := len(cfg.SPMSizes)
	orders := [][]int{{0, 1, 2, 3}, {3, 1, 0, 2}}
	rng := rand.New(rand.NewSource(0x0F0F))
	perms := 3
	if raceEnabled {
		perms = 1
	}
	for p := 0; p < perms; p++ {
		orders = append(orders, rng.Perm(n))
	}
	for _, order := range orders {
		got, err := fig4Ordered(ctx, NewSuite().SetWorkers(1), cfg, order)
		if err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("order %v: row %d diverged:\n got %+v\nwant %+v", order, i, got[i], want[i])
			}
		}
	}
}

// TestSensitivityPermutedOrderInvariant is the order-independence
// property for the cache-organization sweep, whose cells are all
// cache-geometry neighbors of one another (warmplan.go): whatever order
// the cells run in, the rows are identical. It also pins down that
// cutoff transfer actually fires on this grid — the serial
// natural-order sweep must install at least one transferred cutoff, or
// the property test would be vacuously passing on a cold path.
func TestSensitivityPermutedOrderInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("permutation sweep skipped in -short mode")
	}
	ctx := context.Background()
	cfg := DefaultSensitivity()
	hitsBefore := obs.GetCounter("casa_ilp_warm_cell_hits_total").Value()
	want, err := Sensitivity(ctx, NewSuite().SetWorkers(1), cfg)
	if err != nil {
		t.Fatalf("reference Sensitivity: %v", err)
	}
	if got := obs.GetCounter("casa_ilp_warm_cell_hits_total").Value(); got == hitsBefore {
		t.Errorf("serial sensitivity sweep installed no transferred cutoff (casa_ilp_warm_cell_hits_total unchanged at %d)", got)
	}
	n := len(cfg.Variants)
	orders := [][]int{{6, 5, 4, 3, 2, 1, 0}, {3, 0, 6, 1, 4, 2, 5}}
	rng := rand.New(rand.NewSource(0x5EED))
	perms := 2
	if raceEnabled {
		perms = 1
	}
	for p := 0; p < perms; p++ {
		orders = append(orders, rng.Perm(n))
	}
	for _, order := range orders {
		got, err := sensitivityOrdered(ctx, NewSuite().SetWorkers(1), cfg, order)
		if err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("order %v: row %d diverged:\n got %+v\nwant %+v", order, i, got[i], want[i])
			}
		}
	}
}

// TestSensitivityConcurrentWarmStress runs the sensitivity sweep with
// many workers sharing one suite and checks the rows still match the
// serial run: with several neighboring cells in flight at once, which
// donors a cell's cutoff is valued over depends on scheduling, and none
// of that may leak into results.
func TestSensitivityConcurrentWarmStress(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent sensitivity sweep skipped in -short mode")
	}
	ctx := context.Background()
	cfg := DefaultSensitivity()
	want, err := Sensitivity(ctx, NewSuite().SetWorkers(1), cfg)
	if err != nil {
		t.Fatalf("serial Sensitivity: %v", err)
	}
	rounds := 2
	if raceEnabled {
		rounds = 1
	}
	for r := 0; r < rounds; r++ {
		got, err := Sensitivity(ctx, NewSuite().SetWorkers(8), cfg)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("round %d: row %d diverged under concurrency:\n got %+v\nwant %+v", r, i, got[i], want[i])
			}
		}
	}
}

// TestFig4ConcurrentWarmStress runs the grid with many workers sharing
// one suite — one presolve session, one warm store, one conflict-graph
// store — and checks the rows still match the serial run. Under the
// race detector this doubles as the data-race gate on the shared
// incremental state.
func TestFig4ConcurrentWarmStress(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultFig4()
	want, err := Fig4(ctx, NewSuite().SetWorkers(1), cfg)
	if err != nil {
		t.Fatalf("serial Fig4: %v", err)
	}
	rounds := 3
	if raceEnabled || testing.Short() {
		rounds = 1
	}
	for r := 0; r < rounds; r++ {
		got, err := Fig4(ctx, NewSuite().SetWorkers(8), cfg)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("round %d: row %d diverged under concurrency:\n got %+v\nwant %+v", r, i, got[i], want[i])
			}
		}
	}
}

// TestRootLPWorkMpeg128 gates the root LP's work on fig4's hardest cell.
// Its cache-only corner is feasible and a few traces away from the LP
// optimum, so the root must take the primal path from it and finish in
// at most 50 steps (pivots plus bound flips); the dual simplex from the
// all-slack basis takes 554 pivots here.
func TestRootLPWorkMpeg128(t *testing.T) {
	p, err := NewSuite().Pipeline(context.Background(), "mpeg", DM(2048), 128)
	if err != nil {
		t.Fatal(err)
	}
	prm := core.Params{SPMSize: p.SPMSize, ESPHit: p.Cost.SPMAccess,
		ECacheHit: p.Cost.CacheHit, ECacheMiss: p.Cost.CacheMiss}
	m, _, err := core.BuildModel(p.Set, p.Graph, prm)
	if err != nil {
		t.Fatal(err)
	}
	var tr strings.Builder
	prm.Solver.Trace = &tr
	sol, err := ilp.Solve(context.Background(), m, prm.Solver)
	if err != nil || sol.Status != ilp.Optimal {
		t.Fatalf("solve: %v %v", err, sol.Status)
	}
	var path string
	steps := -1
	for _, line := range strings.Split(tr.String(), "\n") {
		if strings.HasPrefix(line, "ilp: root ") {
			fmt.Sscanf(line, "ilp: root lp=%s status=optimal iters=%d", &path, &steps)
		}
	}
	if path != "primal" || steps < 0 || steps > 50 {
		t.Fatalf("root LP: path %q, %d steps; want the primal path in at most 50\n%s", path, steps, tr.String())
	}
	t.Logf("root: %d steps; %d nodes, %d iterations in all", steps, sol.Nodes, sol.SimplexIters)
}
