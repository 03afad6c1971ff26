package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/layout"
	"repro/internal/memsim"
)

// fastPipeline prepares the small adpcm configuration used by most tests;
// its ILPs solve in milliseconds.
func fastPipeline(t *testing.T, spm int) *Pipeline {
	t.Helper()
	p, err := Prepare(context.Background(), "adpcm", DM(128), spm)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	return p
}

func TestPrepareBuildsConsistentPipeline(t *testing.T) {
	p := fastPipeline(t, 128)
	if p.Workload != "adpcm" || p.SPMSize != 128 {
		t.Errorf("pipeline identity wrong: %s/%d", p.Workload, p.SPMSize)
	}
	if p.Set == nil || p.Graph == nil || p.Baseline == nil {
		t.Fatal("pipeline incomplete")
	}
	if p.Graph.N() != len(p.Set.Traces) {
		t.Errorf("graph has %d vertices, %d traces", p.Graph.N(), len(p.Set.Traces))
	}
	// Graph totals match the profiling run's conflict misses.
	if p.Graph.TotalConflictMisses() != p.Baseline.ConflictMisses {
		t.Errorf("graph misses %d, run reported %d",
			p.Graph.TotalConflictMisses(), p.Baseline.ConflictMisses)
	}
	// f_i matches the simulated per-MO fetches.
	for i, tr := range p.Set.Traces {
		if p.Baseline.PerMO[i].Fetches != tr.Fetches {
			t.Errorf("trace %d: f_i %d vs simulated %d", i, tr.Fetches, p.Baseline.PerMO[i].Fetches)
		}
	}
}

func TestPrepareUnknownWorkload(t *testing.T) {
	if _, err := Prepare(context.Background(), "nope", DM(128), 64); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestSuiteMemoizes(t *testing.T) {
	s := NewSuite()
	a, err := s.Pipeline(context.Background(), "adpcm", DM(128), 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Pipeline(context.Background(), "adpcm", DM(128), 64)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("suite did not memoize")
	}
	c, err := s.Pipeline(context.Background(), "adpcm", DM(128), 128)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("distinct configurations shared a pipeline")
	}
}

func TestCASAOutcomeInvariants(t *testing.T) {
	p := fastPipeline(t, 128)
	casa, err := p.RunCASA(context.Background())
	if err != nil {
		t.Fatalf("RunCASA: %v", err)
	}
	if casa.Allocator != "casa" {
		t.Errorf("allocator = %q", casa.Allocator)
	}
	if casa.UsedBytes > p.SPMSize {
		t.Errorf("allocation exceeds SPM: %d > %d", casa.UsedBytes, p.SPMSize)
	}
	if math.Abs(casa.EnergyMicroJ-casa.Result.TotalEnergyMicroJ()) > 1e-9 {
		t.Error("energy field inconsistent with result")
	}
	// Total fetches preserved vs. the baseline run.
	if casa.Result.Fetches != p.Baseline.Fetches {
		t.Errorf("fetches changed: %d vs %d", casa.Result.Fetches, p.Baseline.Fetches)
	}
	// SPM accesses equal the f_i of the placed traces... which we can
	// bound: at least one hot trace placed means SPM accesses > 0.
	if casa.PlacedTraces > 0 && casa.Result.SPMAccesses == 0 {
		t.Error("placed traces but no SPM accesses")
	}
}

func TestCASANeverWorseThanCacheOnly(t *testing.T) {
	for _, spm := range []int{64, 128, 256} {
		p := fastPipeline(t, spm)
		casa, err := p.RunCASA(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		base, err := p.RunCacheOnly(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		// Copy semantics: an empty selection reproduces the baseline, so
		// the optimum can only improve (tiny numerical slack).
		if casa.EnergyMicroJ > base.EnergyMicroJ*1.001 {
			t.Errorf("spm %d: CASA %0.2fµJ worse than cache-only %0.2fµJ",
				spm, casa.EnergyMicroJ, base.EnergyMicroJ)
		}
	}
}

func TestSteinkeAndLoopCacheRun(t *testing.T) {
	p := fastPipeline(t, 128)
	st, err := p.RunSteinke(context.Background())
	if err != nil {
		t.Fatalf("RunSteinke: %v", err)
	}
	if st.UsedBytes > p.SPMSize {
		t.Error("knapsack overflow")
	}
	lc, err := p.RunLoopCache(context.Background())
	if err != nil {
		t.Fatalf("RunLoopCache: %v", err)
	}
	if lc.UsedBytes > p.SPMSize {
		t.Error("loop cache overflow")
	}
	if lc.PlacedTraces > LoopCacheEntries {
		t.Errorf("loop cache preloaded %d regions", lc.PlacedTraces)
	}
	if lc.Result.LoopCacheAccesses == 0 {
		t.Error("loop cache never hit; preloading is broken")
	}
	// Loop-cache controller energy must be accounted on every fetch.
	if lc.Result.Energy.LoopCacheController <= 0 {
		t.Error("controller energy missing")
	}
}

func TestGreedyVariantRuns(t *testing.T) {
	p := fastPipeline(t, 128)
	gr, err := p.RunCASAGreedy(context.Background())
	if err != nil {
		t.Fatalf("RunCASAGreedy: %v", err)
	}
	if gr.UsedBytes > p.SPMSize {
		t.Error("greedy overflow")
	}
}

func TestFig4SmallConfig(t *testing.T) {
	s := NewSuite()
	cfg := Fig4Config{Workload: "adpcm", Cache: DM(128), SPMSizes: []int{64, 128}}
	rows, err := Fig4(context.Background(), s, cfg)
	if err != nil {
		t.Fatalf("Fig4: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.EnergyPct <= 0 || r.CASAEnergyMicroJ <= 0 || r.SteinkeEnergyMicroJ <= 0 {
			t.Errorf("implausible row %+v", r)
		}
		want := 100 * r.CASAEnergyMicroJ / r.SteinkeEnergyMicroJ
		if math.Abs(r.EnergyPct-want) > 1e-6 {
			t.Errorf("energy pct inconsistent: %g vs %g", r.EnergyPct, want)
		}
	}
	var sb strings.Builder
	WriteFig4(&sb, cfg, rows)
	if !strings.Contains(sb.String(), "Figure 4") || !strings.Contains(sb.String(), "adpcm") {
		t.Errorf("render missing headers:\n%s", sb.String())
	}
}

func TestFig5SmallConfig(t *testing.T) {
	s := NewSuite()
	cfg := Fig5Config{Workload: "adpcm", Cache: DM(128), Sizes: []int{64, 128}}
	rows, err := Fig5(context.Background(), s, cfg)
	if err != nil {
		t.Fatalf("Fig5: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.CASAEnergyMicroJ <= 0 || r.LCEnergyMicroJ <= 0 {
			t.Errorf("implausible row %+v", r)
		}
	}
	var sb strings.Builder
	WriteFig5(&sb, cfg, rows)
	if !strings.Contains(sb.String(), "Figure 5") {
		t.Error("render missing header")
	}
}

func TestTable1SmallConfig(t *testing.T) {
	s := NewSuite()
	cfg := Table1Config{Benchmarks: []Table1Benchmark{
		{Workload: "adpcm", Cache: DM(128), MemSizes: []int{64, 128}},
	}}
	rows, avgs, err := Table1(context.Background(), s, cfg)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(rows) != 2 || len(avgs) != 1 {
		t.Fatalf("rows=%d avgs=%d", len(rows), len(avgs))
	}
	wantAvg := (rows[0].CASAvsSteinkePct + rows[1].CASAvsSteinkePct) / 2
	if math.Abs(avgs[0].CASAvsSteinkePct-wantAvg) > 1e-9 {
		t.Errorf("average wrong: %g vs %g", avgs[0].CASAvsSteinkePct, wantAvg)
	}
	var sb strings.Builder
	WriteTable1(&sb, rows, avgs)
	out := sb.String()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "avg") {
		t.Errorf("render incomplete:\n%s", out)
	}
}

func TestAblateCopyVsMove(t *testing.T) {
	p := fastPipeline(t, 128)
	r, err := AblateCopyVsMove(context.Background(), p)
	if err != nil {
		t.Fatalf("AblateCopyVsMove: %v", err)
	}
	if r.CopyMicroJ <= 0 || r.MoveMicroJ <= 0 {
		t.Errorf("implausible energies: %+v", r)
	}
	// The two placements differ; identical results would mean the move
	// semantics are not being exercised (unless nothing was selected).
	if r.CopyMicroJ == r.MoveMicroJ && r.CopyMisses == r.MoveMisses {
		t.Logf("copy and move coincided (empty selection?): %+v", r)
	}
}

func TestAblateLinearizationAgrees(t *testing.T) {
	p := fastPipeline(t, 128)
	r, err := AblateLinearization(context.Background(), p)
	if err != nil {
		t.Fatalf("AblateLinearization: %v", err)
	}
	if math.Abs(r.TightEnergy-r.FaithfulEnergy) > 1e-6*math.Max(1, r.TightEnergy) {
		t.Errorf("formulations disagree: tight %g vs faithful %g",
			r.TightEnergy, r.FaithfulEnergy)
	}
	if r.TightNodes <= 0 || r.FaithfulNodes <= 0 {
		t.Errorf("node counts missing: %+v", r)
	}
}

func TestAblateGreedyVsILP(t *testing.T) {
	p := fastPipeline(t, 128)
	r, err := AblateGreedyVsILP(context.Background(), p)
	if err != nil {
		t.Fatalf("AblateGreedyVsILP: %v", err)
	}
	if r.GreedyPredicted < r.ILPPredicted-1e-6 {
		t.Errorf("greedy predicted %g beats ILP %g — optimality broken",
			r.GreedyPredicted, r.ILPPredicted)
	}
}

func TestSensitivitySmallConfig(t *testing.T) {
	s := NewSuite()
	cfg := SensitivityConfig{
		Workload: "adpcm",
		SPMSize:  128,
		Variants: []CacheSpec{DM(128), {Size: 128, Line: 16, Assoc: 2}},
		Labels:   []string{"dm", "2-way"},
	}
	rows, err := Sensitivity(context.Background(), s, cfg)
	if err != nil {
		t.Fatalf("Sensitivity: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.CASAMicroJ <= 0 || r.BaseMicroJ <= 0 {
			t.Errorf("implausible row %+v", r)
		}
		// CASA never loses to the cache-only baseline (copy semantics).
		if r.CASAvsBasePct < -0.1 {
			t.Errorf("%s: CASA worse than baseline by %.1f%%", r.Label, -r.CASAvsBasePct)
		}
	}
	var sb strings.Builder
	WriteSensitivity(&sb, cfg, rows)
	if !strings.Contains(sb.String(), "sensitivity") && !strings.Contains(sb.String(), "Hierarchy") {
		t.Errorf("render missing header:\n%s", sb.String())
	}
	// Mismatched labels rejected.
	bad := cfg
	bad.Labels = bad.Labels[:1]
	if _, err := Sensitivity(context.Background(), s, bad); err == nil {
		t.Error("mismatched labels accepted")
	}
}

// TestPaperShapeAdpcm asserts the headline claim on the fast benchmark: at
// the paper's adpcm configuration (128B cache), CASA beats the loop cache
// on average across sizes, and beats Steinke at the larger sizes.
func TestPaperShapeAdpcm(t *testing.T) {
	s := NewSuite()
	cfg := Table1Config{Benchmarks: []Table1Benchmark{
		{Workload: "adpcm", Cache: DM(128), MemSizes: []int{64, 128, 256}},
	}}
	_, avgs, err := Table1(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if avgs[0].CASAvsSteinkePct <= 0 {
		t.Errorf("CASA vs Steinke average %.1f%%, want positive", avgs[0].CASAvsSteinkePct)
	}
	if avgs[0].CASAvsLCPct <= 0 {
		t.Errorf("CASA vs loop cache average %.1f%%, want positive", avgs[0].CASAvsLCPct)
	}
}

func TestWCETStudySmallConfig(t *testing.T) {
	s := NewSuite()
	cfg := WCETStudyConfig{}
	cfg.Rows = append(cfg.Rows, struct {
		Workload string
		Cache    CacheSpec
		SPMSize  int
	}{"adpcm", DM(128), 128})
	rows, err := WCETStudy(context.Background(), s, cfg)
	if err != nil {
		t.Fatalf("WCETStudy: %v", err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	r := rows[0]
	// Bounds dominate observations, and CASA tightens the bound.
	if r.CacheOnlyBound < r.CacheOnlyObserved {
		t.Errorf("cache bound %d below observed %d", r.CacheOnlyBound, r.CacheOnlyObserved)
	}
	if r.CASABound < r.CASAObserved {
		t.Errorf("CASA bound %d below observed %d", r.CASABound, r.CASAObserved)
	}
	if r.CASABound >= r.CacheOnlyBound {
		t.Errorf("CASA did not tighten: %d vs %d", r.CASABound, r.CacheOnlyBound)
	}
	if r.TighteningPct <= 0 {
		t.Errorf("tightening %.1f%%", r.TighteningPct)
	}
	var sb strings.Builder
	WriteWCETStudy(&sb, rows)
	if !strings.Contains(sb.String(), "WCET study") {
		t.Error("render missing header")
	}
}

func TestOverlayStudyShape(t *testing.T) {
	ocfg, err := DefaultOverlayStudy()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := OverlayStudy(context.Background(), NewSuite(), ocfg)
	if err != nil {
		t.Fatalf("OverlayStudy: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// The two-pass workload has multiple phases and overlay must win
	// decisively there; mpeg collapses to one phase and must roughly tie.
	for _, r := range rows {
		switch r.Workload {
		case "twopass":
			if r.Phases < 2 {
				t.Errorf("twopass discovered %d phases", r.Phases)
			}
			if r.GainPct < 10 {
				t.Errorf("twopass overlay gain %.1f%%, want decisive win", r.GainPct)
			}
		case "mpeg":
			if r.GainPct > 5 || r.GainPct < -5 {
				t.Errorf("mpeg overlay gain %.1f%%, want rough tie", r.GainPct)
			}
		}
		if r.CopyMicroJ < 0 {
			t.Errorf("%s: negative copy energy", r.Workload)
		}
	}
	var sb strings.Builder
	WriteOverlayStudy(&sb, rows)
	if !strings.Contains(sb.String(), "Overlay study") {
		t.Error("render missing header")
	}
}

func TestDataStudyShape(t *testing.T) {
	s := NewSuite()
	cfg := DataStudyConfig{}
	cfg.Rows = append(cfg.Rows, struct {
		Workload string
		Cache    CacheSpec
		SPMSize  int
	}{"adpcm", DM(128), 256})
	rows, err := DataStudy(context.Background(), s, cfg)
	if err != nil {
		t.Fatalf("DataStudy: %v", err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	r := rows[0]
	// The joint optimum can never lose to either single-sided discipline
	// under the shared model (it contains both as special cases).
	if r.JointMicroJ > r.CodeOnlyMicroJ*1.001 {
		t.Errorf("joint %.2f worse than code-only %.2f", r.JointMicroJ, r.CodeOnlyMicroJ)
	}
	if r.JointMicroJ > r.DataOnlyMicroJ*1.001 {
		t.Errorf("joint %.2f worse than data-only %.2f", r.JointMicroJ, r.DataOnlyMicroJ)
	}
	if r.JointCodeBytes+r.JointDataBytes > 256 {
		t.Errorf("joint allocation over capacity: %d+%d", r.JointCodeBytes, r.JointDataBytes)
	}
	var sb strings.Builder
	WriteDataStudy(&sb, rows)
	if !strings.Contains(sb.String(), "Data study") {
		t.Error("render missing header")
	}
}

// TestL2ClaimHolds verifies the paper's §4 remark: "If we had I-caches at
// different levels (e.g. L1, L2) in the memory hierarchy, we need not do
// anything, as the algorithm tries to minimize the L1 I-cache misses. The
// L2 I-cache misses, being a subset of the L1 I-cache misses, are thus
// also minimized." The CASA selection is computed exactly as for the
// single-level hierarchy, then evaluated under L1+L2.
func TestL2ClaimHolds(t *testing.T) {
	p := fastPipeline(t, 128) // adpcm, 128B L1
	alloc, err := core.Allocate(context.Background(), p.Set, p.Graph, p.casaParams())
	if err != nil {
		t.Fatal(err)
	}
	l1 := cache.Config{SizeBytes: 128, LineBytes: 16, Assoc: 1}
	l2 := cache.Config{SizeBytes: 1024, LineBytes: 16, Assoc: 2}
	cost := mustCost(t, energy.Config{
		Cache:    energy.CacheGeometry{SizeBytes: 128, LineBytes: 16, Assoc: 1},
		L2:       energy.CacheGeometry{SizeBytes: 1024, LineBytes: 16, Assoc: 2},
		SPMBytes: 128,
	})
	run := func(inSPM []bool) *memsim.Result {
		lay, err := layout.New(p.Set, inSPM, layout.Options{Mode: layout.Copy, SPMSize: 128})
		if err != nil {
			t.Fatal(err)
		}
		res, err := memsim.Run(p.Prog, lay, memsim.Config{Cache: l1, L2: l2, Cost: cost})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(nil)
	casa := run(alloc.InSPM)
	if casa.CacheMisses >= base.CacheMisses {
		t.Errorf("CASA did not cut L1 misses under L1+L2: %d vs %d",
			casa.CacheMisses, base.CacheMisses)
	}
	if casa.L2Misses > base.L2Misses {
		t.Errorf("CASA increased L2 misses: %d vs %d", casa.L2Misses, base.L2Misses)
	}
	if casa.TotalEnergyNJ() >= base.TotalEnergyNJ() {
		t.Errorf("CASA did not cut two-level energy: %g vs %g",
			casa.TotalEnergyNJ(), base.TotalEnergyNJ())
	}
}

func TestDefaultConfigsWellFormed(t *testing.T) {
	if cfg := DefaultFig4(); cfg.Workload != "mpeg" || len(cfg.SPMSizes) != 4 {
		t.Errorf("DefaultFig4 = %+v", cfg)
	}
	if cfg := DefaultFig5(); cfg.Workload != "mpeg" || len(cfg.Sizes) != 4 {
		t.Errorf("DefaultFig5 = %+v", cfg)
	}
	if cfg := DefaultTable1(); len(cfg.Benchmarks) != 3 {
		t.Errorf("DefaultTable1 has %d benchmarks", len(cfg.Benchmarks))
	}
	if cfg := DefaultSensitivity(); len(cfg.Variants) != len(cfg.Labels) || len(cfg.Variants) != 7 {
		t.Errorf("DefaultSensitivity shape: %d/%d", len(cfg.Variants), len(cfg.Labels))
	}
	if cfg := DefaultWCETStudy(); len(cfg.Rows) != 3 {
		t.Errorf("DefaultWCETStudy has %d rows", len(cfg.Rows))
	}
	if cfg, err := DefaultOverlayStudy(); err != nil || len(cfg.Rows) != 3 {
		t.Errorf("DefaultOverlayStudy has %d rows (err %v)", len(cfg.Rows), err)
	}
	if cfg := DefaultDataStudy(); len(cfg.Rows) != 3 {
		t.Errorf("DefaultDataStudy has %d rows", len(cfg.Rows))
	}
}

func TestPipelineRunSelectionMatchesCASA(t *testing.T) {
	// RunSelection with the CASA selection must reproduce RunCASA exactly.
	p := fastPipeline(t, 128)
	casa, err := p.RunCASA(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	inSPM := make([]bool, len(p.Set.Traces))
	for _, tr := range p.Set.Traces {
		if casa.Result.PerMO[tr.ID].SPM > 0 {
			inSPM[tr.ID] = true
		}
	}
	again, err := p.RunSelection(context.Background(), "replay", inSPM, layout.Copy)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(again.EnergyMicroJ-casa.EnergyMicroJ) > 1e-9 {
		t.Errorf("replay %.4f µJ != casa %.4f µJ", again.EnergyMicroJ, casa.EnergyMicroJ)
	}
}

// TestPipelineDeterminism: two independently-prepared pipelines for the
// same configuration must agree bit-for-bit on every reported number —
// the property all experiment reproducibility rests on.
func TestPipelineDeterminism(t *testing.T) {
	a := fastPipeline(t, 128)
	b := fastPipeline(t, 128)
	if a.Baseline.CacheMisses != b.Baseline.CacheMisses ||
		a.Baseline.TotalEnergyNJ() != b.Baseline.TotalEnergyNJ() {
		t.Fatal("profiling runs differ")
	}
	if a.Graph.NumEdges() != b.Graph.NumEdges() ||
		a.Graph.TotalConflictMisses() != b.Graph.TotalConflictMisses() {
		t.Fatal("conflict graphs differ")
	}
	ra, err := a.RunCASA(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.RunCASA(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ra.EnergyMicroJ != rb.EnergyMicroJ || ra.UsedBytes != rb.UsedBytes {
		t.Fatalf("CASA runs differ: %.6f/%d vs %.6f/%d",
			ra.EnergyMicroJ, ra.UsedBytes, rb.EnergyMicroJ, rb.UsedBytes)
	}
}

func TestPlacementStudyShape(t *testing.T) {
	s := NewSuite()
	cfg := PlacementStudyConfig{}
	cfg.Rows = append(cfg.Rows, struct {
		Workload string
		Cache    CacheSpec
		SPMSize  int
	}{"adpcm", DM(128), 128})
	rows, err := PlacementStudy(context.Background(), s, cfg)
	if err != nil {
		t.Fatalf("PlacementStudy: %v", err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	r := rows[0]
	if r.BaselineMicroJ <= 0 || r.CASAMicroJ <= 0 {
		t.Errorf("implausible energies: %+v", r)
	}
	// CASA (which can also exploit the scratchpad) must beat pure
	// placement on these workloads.
	if r.CASAVs <= r.BestPlacementVs {
		t.Errorf("CASA %.1f%% should beat placement %.1f%%", r.CASAVs, r.BestPlacementVs)
	}
	var sb strings.Builder
	WritePlacementStudy(&sb, rows)
	if !strings.Contains(sb.String(), "Placement study") {
		t.Error("render missing header")
	}
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

// TestCacheOnlyDerivedMatchesSimulated is the oracle for RunCacheOnly,
// which re-prices the conflict-profiling run instead of simulating: on
// every Figure 4, sensitivity (random replacement included) and Table 1
// cell, the derived outcome must equal a direct simulation of the plain
// layout under the cache-only cost model — every counter, every per-MO
// entry, and the energy and cycle totals bit for bit.
func TestCacheOnlyDerivedMatchesSimulated(t *testing.T) {
	type cell struct {
		name  string
		cache CacheSpec
		spm   int
	}
	var cells []cell
	seen := map[cell]bool{}
	add := func(c cell) {
		if !seen[c] {
			seen[c] = true
			cells = append(cells, c)
		}
	}
	fig4 := DefaultFig4()
	for _, spm := range fig4.SPMSizes {
		add(cell{fig4.Workload, fig4.Cache, spm})
	}
	sens := DefaultSensitivity()
	for _, spec := range sens.Variants {
		add(cell{sens.Workload, spec, sens.SPMSize})
	}
	for _, b := range DefaultTable1().Benchmarks {
		for _, spm := range b.MemSizes {
			add(cell{b.Workload, b.Cache, spm})
		}
	}
	if raceEnabled {
		// One Figure 4, one random-replacement and one Table 1 cell keep
		// the instrumented pass short; the full sweep runs uninstrumented.
		cells = []cell{cells[0], cells[len(fig4.SPMSizes)+4], cells[len(cells)-1]}
	}
	s := NewSuite()
	for _, c := range cells {
		t.Run(fmt.Sprintf("%s/%dB-%dB-%dway-%s/spm%d", c.name, c.cache.Size, c.cache.Line,
			c.cache.Assoc, c.cache.Policy, c.spm), func(t *testing.T) {
			ctx := context.Background()
			p, err := s.Pipeline(ctx, c.name, c.cache, c.spm)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.RunCacheOnly(ctx)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := layout.New(p.Set, nil, layout.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cost, err := energy.NewCostModel(energy.Config{Cache: c.cache.geometry()})
			if err != nil {
				t.Fatal(err)
			}
			want, err := memsim.Run(p.Prog, plain, memsim.Config{Cache: c.cache.cacheConfig(), Cost: cost})
			if err != nil {
				t.Fatal(err)
			}
			assertSameRun(t, want, got.Result)
			if math.Float64bits(got.EnergyMicroJ) != math.Float64bits(want.TotalEnergyMicroJ()) {
				t.Errorf("EnergyMicroJ %v, simulated %v", got.EnergyMicroJ, want.TotalEnergyMicroJ())
			}
		})
	}
}

// TestCacheOnlyIdentityExact gates the energy model where it must be
// exact: on the cache-only layout every simulated miss is either cold
// or attributed to an evictor in the conflict graph. On every Figure 4
// and sensitivity cell the profiling run (Pipeline.Baseline) must fetch
// exactly the traces' f_i, its conflict misses must equal the graph's
// edge weights, and its energy must equal the model's prediction for
// the empty selection plus the cold misses' extra cost, to 1e-12
// relative. A conflict-attribution or copy-semantics bug breaks one of
// the three.
func TestCacheOnlyIdentityExact(t *testing.T) {
	type cell struct {
		name  string
		cache CacheSpec
		spm   int
	}
	var cells []cell
	fig4 := DefaultFig4()
	for _, spm := range fig4.SPMSizes {
		cells = append(cells, cell{fig4.Workload, fig4.Cache, spm})
	}
	sens := DefaultSensitivity()
	for _, spec := range sens.Variants {
		cells = append(cells, cell{sens.Workload, spec, sens.SPMSize})
	}
	s := NewSuite()
	worst := 0.0
	for _, c := range cells {
		t.Run(fmt.Sprintf("%s/%dB-%dB-%dway-%s/spm%d", c.name, c.cache.Size, c.cache.Line,
			c.cache.Assoc, c.cache.Policy, c.spm), func(t *testing.T) {
			p, err := s.Pipeline(context.Background(), c.name, c.cache, c.spm)
			if err != nil {
				t.Fatal(err)
			}
			base := p.Baseline
			var fetches int64
			for _, tr := range p.Set.Traces {
				fetches += tr.Fetches
			}
			if fetches != base.Fetches {
				t.Errorf("Σ f_i = %d, baseline fetched %d", fetches, base.Fetches)
			}
			var attributed int64
			for _, e := range p.Graph.Edges() {
				attributed += e.Misses
			}
			if attributed != base.ConflictMisses {
				t.Errorf("Σ m_ij = %d, baseline conflict misses %d", attributed, base.ConflictMisses)
			}
			prm := p.casaParams()
			model := core.PredictEnergy(p.Set, p.Graph, prm, make([]bool, len(p.Set.Traces))) +
				float64(base.ColdMisses)*(prm.ECacheMiss-prm.ECacheHit)
			simulated := base.TotalEnergyNJ()
			rel := math.Abs(simulated-model) / simulated
			worst = max(worst, rel)
			if rel > 1e-12 {
				t.Errorf("simulated %v nJ, model %v nJ: relative error %.3g", simulated, model, rel)
			}
		})
	}
	t.Logf("largest relative energy error over %d cells: %.3g", len(cells), worst)
}

// assertSameRun compares two simulation results counter for counter and
// float bit for float bit.
func assertSameRun(t *testing.T, want, got *memsim.Result) {
	t.Helper()
	ints := []struct {
		name      string
		want, got int64
	}{
		{"Fetches", want.Fetches, got.Fetches},
		{"SPMAccesses", want.SPMAccesses, got.SPMAccesses},
		{"LoopCacheAccesses", want.LoopCacheAccesses, got.LoopCacheAccesses},
		{"CacheAccesses", want.CacheAccesses, got.CacheAccesses},
		{"CacheHits", want.CacheHits, got.CacheHits},
		{"CacheMisses", want.CacheMisses, got.CacheMisses},
		{"L2Accesses", want.L2Accesses, got.L2Accesses},
		{"L2Hits", want.L2Hits, got.L2Hits},
		{"L2Misses", want.L2Misses, got.L2Misses},
		{"ColdMisses", want.ColdMisses, got.ColdMisses},
		{"ConflictMisses", want.ConflictMisses, got.ConflictMisses},
		{"MainMemoryFetches", want.MainMemoryFetches, got.MainMemoryFetches},
		{"Cycles", want.Cycles, got.Cycles},
	}
	for _, c := range ints {
		if c.want != c.got {
			t.Errorf("%s: %d, simulated %d", c.name, c.got, c.want)
		}
	}
	if len(want.PerMO) != len(got.PerMO) {
		t.Fatalf("PerMO length %d, simulated %d", len(got.PerMO), len(want.PerMO))
	}
	for i := range want.PerMO {
		if want.PerMO[i] != got.PerMO[i] {
			t.Errorf("PerMO[%d]: %+v, simulated %+v", i, got.PerMO[i], want.PerMO[i])
		}
	}
	floats := []struct {
		name      string
		want, got float64
	}{
		{"Energy.SPM", want.Energy.SPM, got.Energy.SPM},
		{"Energy.CacheHits", want.Energy.CacheHits, got.Energy.CacheHits},
		{"Energy.CacheMisses", want.Energy.CacheMisses, got.Energy.CacheMisses},
		{"Energy.LoopCache", want.Energy.LoopCache, got.Energy.LoopCache},
		{"Energy.LoopCacheController", want.Energy.LoopCacheController, got.Energy.LoopCacheController},
		{"Energy.MainMemory", want.Energy.MainMemory, got.Energy.MainMemory},
	}
	for _, f := range floats {
		if math.Float64bits(f.want) != math.Float64bits(f.got) {
			t.Errorf("%s: %v, simulated %v", f.name, f.got, f.want)
		}
	}
}
