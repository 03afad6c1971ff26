package memsim

import (
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/energy"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/loopcache"
	"repro/internal/sim"
	"repro/internal/trace"
)

// thrashFixture builds a program with two hot loops that conflict in a
// small direct-mapped cache when laid out a cache-size apart.
func thrashFixture(t *testing.T) (*ir.Program, *trace.Set) {
	t.Helper()
	pb := ir.NewProgramBuilder("thrash")
	f := pb.Func("main")
	// outer loop alternates between two bodies, each one line long.
	f.Block("a").Code(11).Branch("a", "b", ir.Loop{Trips: 4}) // 48B padded
	f.Block("b").Code(11).Branch("b", "c", ir.Loop{Trips: 4})
	f.Block("c").ALU(1).Branch("a", "end", ir.Loop{Trips: 200})
	f.Block("end").Return()
	p, err := pb.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	prof, err := sim.ProfileProgram(p)
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	set, err := trace.Build(p, prof, trace.Options{MaxBytes: 64, LineBytes: 16})
	if err != nil {
		t.Fatalf("trace.Build: %v", err)
	}
	return p, set
}

func costFor(t testing.TB, cacheCfg cache.Config, spm int) energy.CostModel {
	t.Helper()
	cfg := energy.Config{SPMBytes: spm}
	if cacheCfg.SizeBytes > 0 {
		cfg.Cache = energy.CacheGeometry{
			SizeBytes: cacheCfg.SizeBytes,
			LineBytes: cacheCfg.LineBytes,
			Assoc:     cacheCfg.Assoc,
		}
	}
	return mustCost(t, cfg)
}

// mustCost builds a cost model, failing the test on error.
func mustCost(t testing.TB, cfg energy.Config) energy.CostModel {
	t.Helper()
	cm, err := energy.NewCostModel(cfg)
	if err != nil {
		t.Fatalf("NewCostModel: %v", err)
	}
	return cm
}

// mustLayout builds a layout, failing the test on error.
func mustLayout(t testing.TB, set *trace.Set, alloc []bool, opt layout.Options) *layout.Layout {
	t.Helper()
	l, err := layout.New(set, alloc, opt)
	if err != nil {
		t.Fatalf("layout.New: %v", err)
	}
	return l
}

func TestCacheOnlyRunAccounting(t *testing.T) {
	p, set := thrashFixture(t)
	lay := mustLayout(t, set, nil, layout.Options{})
	ccfg := cache.Config{SizeBytes: 2048, LineBytes: 16, Assoc: 1}
	res, err := Run(p, lay, Config{Cache: ccfg, Cost: costFor(t, ccfg, 0), TrackConflicts: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.SPMAccesses != 0 {
		t.Errorf("no SPM configured but %d SPM accesses", res.SPMAccesses)
	}
	if res.CacheAccesses != res.Fetches {
		t.Errorf("cache accesses %d != fetches %d", res.CacheAccesses, res.Fetches)
	}
	if res.CacheHits+res.CacheMisses != res.CacheAccesses {
		t.Error("hits+misses != accesses")
	}
	if res.ColdMisses+res.ConflictMisses != res.CacheMisses {
		t.Error("cold+conflict != misses")
	}
	// A 2kB cache holds this tiny program entirely: only cold misses.
	if res.ConflictMisses != 0 {
		t.Errorf("program fits in cache; got %d conflict misses", res.ConflictMisses)
	}
	// Per-MO fetches sum to the total.
	var sum int64
	for _, mo := range res.PerMO {
		sum += mo.Fetches
	}
	if sum != res.Fetches {
		t.Errorf("per-MO fetch sum %d != %d", sum, res.Fetches)
	}
	// Per-MO fetches equal the trace f_i.
	for _, tr := range set.Traces {
		if res.PerMO[tr.ID].Fetches != tr.Fetches {
			t.Errorf("trace %d fetches %d, want f_i=%d", tr.ID, res.PerMO[tr.ID].Fetches, tr.Fetches)
		}
	}
}

func TestThrashingProducesConflicts(t *testing.T) {
	p, set := thrashFixture(t)
	lay := mustLayout(t, set, nil, layout.Options{})
	// 128B direct-mapped cache: the two 48-64B hot loops plus the latch
	// cannot coexist; conflicts are inevitable.
	ccfg := cache.Config{SizeBytes: 64, LineBytes: 16, Assoc: 1}
	res, err := Run(p, lay, Config{Cache: ccfg, Cost: costFor(t, ccfg, 0), TrackConflicts: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.ConflictMisses == 0 {
		t.Fatal("expected conflict misses in 64B cache")
	}
	if len(res.Conflicts) == 0 {
		t.Fatal("conflict tracking produced no edges")
	}
	// The attribution must sum to the conflict misses.
	var sum int64
	for _, n := range res.Conflicts {
		sum += n
	}
	if sum != res.ConflictMisses {
		t.Errorf("attributed %d, conflict misses %d", sum, res.ConflictMisses)
	}
	// Per-MO misses sum.
	var moMisses int64
	for _, mo := range res.PerMO {
		moMisses += mo.Misses
	}
	if moMisses != res.CacheMisses {
		t.Errorf("per-MO misses %d != %d", moMisses, res.CacheMisses)
	}
}

func TestSPMServesAllocatedTrace(t *testing.T) {
	p, set := thrashFixture(t)
	hot := 0
	for _, tr := range set.Traces {
		if tr.Fetches > set.Traces[hot].Fetches {
			hot = tr.ID
		}
	}
	alloc := make([]bool, len(set.Traces))
	alloc[hot] = true
	lay := mustLayout(t, set, alloc, layout.Options{Mode: layout.Copy, SPMSize: 128})
	ccfg := cache.Config{SizeBytes: 64, LineBytes: 16, Assoc: 1}
	res, err := Run(p, lay, Config{Cache: ccfg, Cost: costFor(t, ccfg, 128)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.SPMAccesses != set.Traces[hot].Fetches {
		t.Errorf("SPM accesses %d, want %d", res.SPMAccesses, set.Traces[hot].Fetches)
	}
	if res.PerMO[hot].SPM != res.SPMAccesses {
		t.Errorf("per-MO SPM %d, want %d", res.PerMO[hot].SPM, res.SPMAccesses)
	}
	if res.PerMO[hot].Misses != 0 {
		t.Errorf("SPM-resident trace suffered %d cache misses", res.PerMO[hot].Misses)
	}
	if res.Energy.SPM <= 0 {
		t.Error("SPM energy not accounted")
	}
	// Energy conservation: component energies must equal per-event sums.
	cost := costFor(t, ccfg, 128)
	wantSPM := float64(res.SPMAccesses) * cost.SPMAccess
	if math.Abs(res.Energy.SPM-wantSPM) > 1e-6 {
		t.Errorf("SPM energy %g, want %g", res.Energy.SPM, wantSPM)
	}
	wantHit := float64(res.CacheHits) * cost.CacheHit
	if math.Abs(res.Energy.CacheHits-wantHit) > 1e-6 {
		t.Errorf("hit energy %g, want %g", res.Energy.CacheHits, wantHit)
	}
	wantMiss := float64(res.CacheMisses) * cost.CacheMiss
	if math.Abs(res.Energy.CacheMisses-wantMiss) > 1e-6 {
		t.Errorf("miss energy %g, want %g", res.Energy.CacheMisses, wantMiss)
	}
	if got := res.TotalEnergyMicroJ(); math.Abs(got-res.TotalEnergyNJ()/1000) > 1e-12 {
		t.Errorf("unit conversion wrong: %g vs %g", got, res.TotalEnergyNJ())
	}
}

func TestSPMReducesEnergyOnThrashingWorkload(t *testing.T) {
	p, set := thrashFixture(t)
	ccfg := cache.Config{SizeBytes: 64, LineBytes: 16, Assoc: 1}
	plain := mustLayout(t, set, nil, layout.Options{})
	base, err := Run(p, plain, Config{Cache: ccfg, Cost: costFor(t, ccfg, 0)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	hot := 0
	for _, tr := range set.Traces {
		if tr.Fetches > set.Traces[hot].Fetches {
			hot = tr.ID
		}
	}
	alloc := make([]bool, len(set.Traces))
	alloc[hot] = true
	lay := mustLayout(t, set, alloc, layout.Options{Mode: layout.Copy, SPMSize: 128})
	withSPM, err := Run(p, lay, Config{Cache: ccfg, Cost: costFor(t, ccfg, 128)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if withSPM.TotalEnergyNJ() >= base.TotalEnergyNJ() {
		t.Errorf("SPM did not reduce energy: %g vs %g",
			withSPM.TotalEnergyNJ(), base.TotalEnergyNJ())
	}
}

func TestLoopCachePath(t *testing.T) {
	p, set := thrashFixture(t)
	lay := mustLayout(t, set, nil, layout.Options{})
	// Preload the hottest trace's exec range.
	hot := 0
	for _, tr := range set.Traces {
		if tr.Fetches > set.Traces[hot].Fetches {
			hot = tr.ID
		}
	}
	base, size := lay.ExecRange(hot)
	ctrl, err := loopcache.NewController(
		loopcache.Config{SizeBytes: 128, MaxRegions: 4},
		[]loopcache.Region{{Start: base, End: base + uint32(size), Name: "hot"}},
	)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	ccfg := cache.Config{SizeBytes: 64, LineBytes: 16, Assoc: 1}
	cost := mustCost(t, energy.Config{
		Cache:            energy.CacheGeometry{SizeBytes: 64, LineBytes: 16, Assoc: 1},
		LoopCacheBytes:   128,
		LoopCacheEntries: 4,
	})
	res, err := Run(p, lay, Config{Cache: ccfg, LoopCache: ctrl, Cost: cost})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.LoopCacheAccesses != set.Traces[hot].Fetches {
		t.Errorf("loop cache accesses %d, want %d", res.LoopCacheAccesses, set.Traces[hot].Fetches)
	}
	if res.PerMO[hot].LoopCache != res.LoopCacheAccesses {
		t.Error("per-MO loop cache accounting wrong")
	}
	// Controller energy charged on every non-SPM fetch.
	wantCtrl := float64(res.Fetches) * cost.LoopCacheController
	if math.Abs(res.Energy.LoopCacheController-wantCtrl) > 1e-6 {
		t.Errorf("controller energy %g, want %g", res.Energy.LoopCacheController, wantCtrl)
	}
}

func TestNoCacheGoesToMainMemory(t *testing.T) {
	p, set := thrashFixture(t)
	lay := mustLayout(t, set, nil, layout.Options{})
	cost := mustCost(t, energy.Config{})
	res, err := Run(p, lay, Config{Cost: cost})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.MainMemoryFetches != res.Fetches {
		t.Errorf("main memory fetches %d, want all %d", res.MainMemoryFetches, res.Fetches)
	}
	if res.CacheAccesses != 0 {
		t.Error("no cache configured but cache accessed")
	}
	if res.Energy.MainMemory <= 0 {
		t.Error("main memory energy missing")
	}
}

func TestBadCacheConfigRejected(t *testing.T) {
	p, set := thrashFixture(t)
	lay := mustLayout(t, set, nil, layout.Options{})
	_, err := Run(p, lay, Config{Cache: cache.Config{SizeBytes: 100, LineBytes: 16, Assoc: 1}})
	if err == nil {
		t.Fatal("expected config error")
	}
}

func TestDeterminism(t *testing.T) {
	p, set := thrashFixture(t)
	lay := mustLayout(t, set, nil, layout.Options{})
	ccfg := cache.Config{SizeBytes: 64, LineBytes: 16, Assoc: 1}
	run := func() *Result {
		res, err := Run(p, lay, Config{Cache: ccfg, Cost: costFor(t, ccfg, 0), TrackConflicts: true})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if a.Fetches != b.Fetches || a.CacheMisses != b.CacheMisses ||
		a.TotalEnergyNJ() != b.TotalEnergyNJ() {
		t.Error("simulation not deterministic")
	}
	for k, v := range a.Conflicts {
		if b.Conflicts[k] != v {
			t.Errorf("conflict %v differs: %d vs %d", k, v, b.Conflicts[k])
		}
	}
}

func TestCycleAccounting(t *testing.T) {
	p, set := thrashFixture(t)
	lay := mustLayout(t, set, nil, layout.Options{})
	ccfg := cache.Config{SizeBytes: 64, LineBytes: 16, Assoc: 1}
	res, err := Run(p, lay, Config{Cache: ccfg, Cost: costFor(t, ccfg, 0)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	tm := DefaultTiming()
	lineWords := int64((ccfg.LineBytes + 3) / 4)
	want := res.CacheHits*tm.CacheHit +
		res.CacheMisses*(tm.CacheHit+tm.MissSetup+tm.MissPerWord*lineWords)
	if res.Cycles != want {
		t.Errorf("cycles = %d, want %d", res.Cycles, want)
	}
	if cpf := res.CyclesPerFetch(); cpf <= 1 {
		t.Errorf("CyclesPerFetch = %g, want > 1 with misses present", cpf)
	}
}

func TestCyclesImproveWithSPM(t *testing.T) {
	p, set := thrashFixture(t)
	ccfg := cache.Config{SizeBytes: 64, LineBytes: 16, Assoc: 1}
	plain := mustLayout(t, set, nil, layout.Options{})
	base, err := Run(p, plain, Config{Cache: ccfg, Cost: costFor(t, ccfg, 0)})
	if err != nil {
		t.Fatal(err)
	}
	hot := 0
	for _, tr := range set.Traces {
		if tr.Fetches > set.Traces[hot].Fetches {
			hot = tr.ID
		}
	}
	alloc := make([]bool, len(set.Traces))
	alloc[hot] = true
	lay := mustLayout(t, set, alloc, layout.Options{Mode: layout.Copy, SPMSize: 128})
	spm, err := Run(p, lay, Config{Cache: ccfg, Cost: costFor(t, ccfg, 128)})
	if err != nil {
		t.Fatal(err)
	}
	if spm.Cycles >= base.Cycles {
		t.Errorf("SPM did not cut fetch cycles: %d vs %d", spm.Cycles, base.Cycles)
	}
}

func TestCustomTiming(t *testing.T) {
	p, set := thrashFixture(t)
	lay := mustLayout(t, set, nil, layout.Options{})
	ccfg := cache.Config{SizeBytes: 2048, LineBytes: 16, Assoc: 1}
	tm := Timing{SPM: 1, LoopCache: 1, CacheHit: 2, MissSetup: 10, MissPerWord: 5}
	res, err := Run(p, lay, Config{Cache: ccfg, Cost: costFor(t, ccfg, 0), Timing: &tm})
	if err != nil {
		t.Fatal(err)
	}
	want := res.CacheHits*2 + res.CacheMisses*(2+10+5*4)
	if res.Cycles != want {
		t.Errorf("custom timing: cycles = %d, want %d", res.Cycles, want)
	}
}

func TestZeroFetchCyclesPerFetch(t *testing.T) {
	r := &Result{}
	if r.CyclesPerFetch() != 0 {
		t.Error("CyclesPerFetch on empty result should be 0")
	}
}

func TestL2Hierarchy(t *testing.T) {
	p, set := thrashFixture(t)
	lay := mustLayout(t, set, nil, layout.Options{})
	l1 := cache.Config{SizeBytes: 64, LineBytes: 16, Assoc: 1}
	l2 := cache.Config{SizeBytes: 512, LineBytes: 16, Assoc: 2}
	cost := mustCost(t, energy.Config{
		Cache: energy.CacheGeometry{SizeBytes: 64, LineBytes: 16, Assoc: 1},
		L2:    energy.CacheGeometry{SizeBytes: 512, LineBytes: 16, Assoc: 2},
	})
	res, err := Run(p, lay, Config{Cache: l1, L2: l2, Cost: cost})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Exactly one L2 access per L1 miss; L2 misses are a subset.
	if res.L2Accesses != res.CacheMisses {
		t.Errorf("L2 accesses %d != L1 misses %d", res.L2Accesses, res.CacheMisses)
	}
	if res.L2Hits+res.L2Misses != res.L2Accesses {
		t.Error("L2 hits+misses != accesses")
	}
	if res.L2Misses > res.CacheMisses {
		t.Error("L2 misses exceed L1 misses")
	}
	// The thrashing working set fits in the 512B L2: it must absorb most
	// of the L1 misses, cutting energy versus the single-level hierarchy.
	single := mustCost(t, energy.Config{
		Cache: energy.CacheGeometry{SizeBytes: 64, LineBytes: 16, Assoc: 1},
	})
	base, err := Run(p, lay, Config{Cache: l1, Cost: single})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalEnergyNJ() >= base.TotalEnergyNJ() {
		t.Errorf("L2 did not help a thrashing workload: %g vs %g",
			res.TotalEnergyNJ(), base.TotalEnergyNJ())
	}
	if res.Cycles >= base.Cycles {
		t.Errorf("L2 did not cut stall cycles: %d vs %d", res.Cycles, base.Cycles)
	}
}

func TestL2RequiresL1(t *testing.T) {
	p, set := thrashFixture(t)
	lay := mustLayout(t, set, nil, layout.Options{})
	_, err := Run(p, lay, Config{L2: cache.Config{SizeBytes: 512, LineBytes: 16, Assoc: 1}})
	if err == nil {
		t.Fatal("L2 without L1 accepted")
	}
}

// TestRepriceChecksHierarchy: Reprice under the run's own hierarchy
// equals a fresh run priced under the new cost model, and a cache or
// second level the run did not simulate is an error, not counters from
// another hierarchy.
func TestRepriceChecksHierarchy(t *testing.T) {
	p, set := thrashFixture(t)
	lay := mustLayout(t, set, nil, layout.Options{})
	ccfg := cache.Config{SizeBytes: 64, LineBytes: 16, Assoc: 1}
	run, err := Run(p, lay, Config{Cache: ccfg, Cost: costFor(t, ccfg, 256), TrackConflicts: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	cfg := Config{Cache: ccfg, Cost: costFor(t, ccfg, 0)}
	got, err := Reprice(run, cfg)
	if err != nil {
		t.Fatalf("Reprice: %v", err)
	}
	want, err := Run(p, lay, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	diffResults(t, want, got)

	twoWay := ccfg
	twoWay.Assoc = 2
	for name, bad := range map[string]Config{
		"other-cache": {Cache: twoWay, Cost: cfg.Cost},
		"added-l2":    {Cache: ccfg, L2: cache.Config{SizeBytes: 256, LineBytes: 16, Assoc: 2}, Cost: cfg.Cost},
	} {
		if _, err := Reprice(run, bad); err == nil {
			t.Errorf("%s: Reprice accepted a hierarchy the run did not simulate", name)
		}
	}
}
