package repro

import (
	"context"
	"io"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/ilp"
	"repro/internal/layout"
	"repro/internal/memsim"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The benchmarks below regenerate the paper's tables and figures (run
// them with -v style output via cmd/experiments; here they are measured
// as testing.B benches) plus the ablation studies DESIGN.md calls out,
// and a handful of micro-benchmarks for the substrates. Figure 4 and the
// sensitivity grid are timed by perfbench's fig4-grid and
// sensitivity-grid workloads, which also check their rows and work
// counts. CI runs every benchmark here once as a smoke test; timing is
// judged by the perfbench A/B of scripts/bench.sh.

// BenchmarkFig5CASAvsLoopCache regenerates Figure 5: the CASA-allocated
// scratchpad vs. the Ross-preloaded loop cache on mpeg. Like every
// study benchmark below, each iteration starts cold (coldStart).
func BenchmarkFig5CASAvsLoopCache(b *testing.B) {
	cfg := experiments.DefaultFig5()
	for i := 0; i < b.N; i++ {
		s := coldStart(b, cfg.Workload)
		rows, err := experiments.Fig5(context.Background(), s, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.WriteFig5(benchWriter(b), cfg, rows)
		}
	}
}

// BenchmarkTable1 regenerates Table 1: overall energy savings across
// adpcm, g721 and mpeg with their per-benchmark cache sizes.
func BenchmarkTable1(b *testing.B) {
	cfg := experiments.DefaultTable1()
	for i := 0; i < b.N; i++ {
		s := coldStart(b, workload.Names()...)
		rows, avgs, err := experiments.Table1(context.Background(), s, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.WriteTable1(benchWriter(b), rows, avgs)
		}
	}
}

// BenchmarkAblationLinearization compares the paper's faithful
// linearization (13)–(15) with binary L against the tight continuous-L
// variant on the adpcm/128 configuration (the faithful relaxation is too
// weak for plain B&B on the larger graphs; see
// experiments.LinearizationAblation).
func BenchmarkAblationLinearization(b *testing.B) {
	s := experiments.NewSuite()
	p, err := s.Pipeline(context.Background(), "adpcm", experiments.DM(128), 128)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblateLinearization(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("tight: %v (%d nodes) faithful: %v (%d nodes)",
				r.TightTime, r.TightNodes, r.FaithfulTime, r.FaithfulNodes)
		}
	}
}

// BenchmarkAblationGreedyVsILP compares exact and greedy CASA on the
// mpeg/512 configuration.
func BenchmarkAblationGreedyVsILP(b *testing.B) {
	s := experiments.NewSuite()
	p, err := s.Pipeline(context.Background(), "mpeg", experiments.DM(2048), 512)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblateGreedyVsILP(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("ilp: %.2f µJ greedy: %.2f µJ", r.ILPMicroJ, r.GreedyMicroJ)
		}
	}
}

// BenchmarkAblationCopyVsMove isolates the layout-perturbation effect of
// move semantics on the mpeg/512 configuration.
func BenchmarkAblationCopyVsMove(b *testing.B) {
	s := experiments.NewSuite()
	p, err := s.Pipeline(context.Background(), "mpeg", experiments.DM(2048), 512)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblateCopyVsMove(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("copy: %.2f µJ (%d misses) move: %.2f µJ (%d misses)",
				r.CopyMicroJ, r.CopyMisses, r.MoveMicroJ, r.MoveMisses)
		}
	}
}

// ---- Substrate micro-benchmarks -----------------------------------------

// BenchmarkRecordProfileMpeg measures the one interpreter run a cold
// program costs on the largest workload (~2.7M fetches per run):
// sim.ProfileProgram records the block trace and derives the profile
// from the recording.
func BenchmarkRecordProfileMpeg(b *testing.B) {
	p, err := workload.Load("mpeg")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.ProfileProgram(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceReplay measures the default simulation engine end to end
// on the largest workload: the block trace is recorded (and memoized)
// once, then every iteration compiles the layout into cache-line probes
// and walks the trace through a fresh 2 kB direct-mapped cache.
func BenchmarkTraceReplay(b *testing.B) {
	p, err := workload.Load("mpeg")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := sim.CachedProfile(p)
	if err != nil {
		b.Fatal(err)
	}
	set, err := trace.Build(p, prof, trace.Options{MaxBytes: 512, LineBytes: 16})
	if err != nil {
		b.Fatal(err)
	}
	lay, err := layout.New(set, nil, layout.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ccfg := cache.Config{SizeBytes: 2048, LineBytes: 16, Assoc: 1}
	cost, err := energy.NewCostModel(energy.Config{Cache: energy.CacheGeometry{
		SizeBytes: ccfg.SizeBytes, LineBytes: ccfg.LineBytes, Assoc: ccfg.Assoc}})
	if err != nil {
		b.Fatal(err)
	}
	cfg := memsim.Config{Cache: ccfg, Cost: cost, TrackConflicts: true}
	if _, err := memsim.Run(p, lay, cfg); err != nil { // record + memoize the trace
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := memsim.Run(p, lay, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateCopy times one simulation of CASA's copy layout with
// the full walk and with the walk restricted to the cache sets its
// scratchpad traces map to (the profiling run supplies the rest), on
// the largest Figure 4 cell and a set-associative sensitivity cell.
func BenchmarkSimulateCopy(b *testing.B) {
	cells := []struct {
		name     string
		workload string
		cache    experiments.CacheSpec
		spm      int
	}{
		{"mpeg-2k-dm-1024", "mpeg", experiments.DM(2048), 1024},
		{"g721-1k-2way-lru-256", "g721", experiments.CacheSpec{Size: 1024, Line: 16, Assoc: 2, Policy: cache.LRU}, 256},
	}
	for _, c := range cells {
		p, err := experiments.NewSuite().Pipeline(context.Background(), c.workload, c.cache, c.spm)
		if err != nil {
			b.Fatal(err)
		}
		alloc, err := p.CASAAllocation(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		lay, err := layout.New(p.Set, alloc.InSPM, layout.Options{Mode: layout.Copy, SPMSize: p.SPMSize})
		if err != nil {
			b.Fatal(err)
		}
		ccfg := cache.Config{SizeBytes: c.cache.Size, LineBytes: c.cache.Line, Assoc: c.cache.Assoc, Replacement: c.cache.Policy}
		for _, walk := range []struct {
			name     string
			baseline *memsim.Result
		}{{"full", nil}, {"restricted", p.Baseline}} {
			b.Run(c.name+"/"+walk.name, func(b *testing.B) {
				cfg := memsim.Config{Cache: ccfg, Cost: p.Cost, Baseline: walk.baseline}
				b.ReportAllocs()
				var res *memsim.Result
				for i := 0; i < b.N; i++ {
					if res, err = memsim.Run(p.Prog, lay, cfg); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(res.SetsWalked), "sets_walked")
			})
		}
	}
}

// BenchmarkTraceFormationMpeg measures trace formation on mpeg.
func BenchmarkTraceFormationMpeg(b *testing.B) {
	p, err := workload.Load("mpeg")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := sim.ProfileProgram(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Build(p, prof, trace.Options{MaxBytes: 512, LineBytes: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCASAILPMpeg measures one full CASA ILP solve (model build +
// branch & bound) on the mpeg/1024 configuration.
func BenchmarkCASAILPMpeg(b *testing.B) {
	s := experiments.NewSuite()
	p, err := s.Pipeline(context.Background(), "mpeg", experiments.DM(2048), 1024)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := p.RunCASA(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveCASAILP measures the branch & bound solver alone — no
// model build, no allocation decode — on the hardest cold solves of the
// two evaluation grids: mpeg/128, fig4's hardest cell (173 nodes, 238
// simplex iterations), and g721 on the sensitivity grid's 2-way random
// cache (312 nodes, 1222 iterations). nodes/op and iters/op report the
// search's work beside its time, so a weaker search shows even when the
// host hides the slowdown.
func BenchmarkSolveCASAILP(b *testing.B) {
	cases := []struct {
		name     string
		workload string
		cache    experiments.CacheSpec
		spm      int
	}{
		{"mpeg-128", "mpeg", experiments.DM(2048), 128},
		{"g721-2way-random", "g721", experiments.CacheSpec{Size: 1024, Line: 16, Assoc: 2, Policy: cache.Random}, 256},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			s := experiments.NewSuite()
			p, err := s.Pipeline(context.Background(), tc.workload, tc.cache, tc.spm)
			if err != nil {
				b.Fatal(err)
			}
			prm := core.Params{SPMSize: p.SPMSize, ESPHit: p.Cost.SPMAccess,
				ECacheHit: p.Cost.CacheHit, ECacheMiss: p.Cost.CacheMiss}
			m, _, err := core.BuildModel(p.Set, p.Graph, prm)
			if err != nil {
				b.Fatal(err)
			}
			nodes, iters := 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol, err := ilp.Solve(context.Background(), m, prm.Solver)
				if err != nil || sol.Status != ilp.Optimal {
					b.Fatalf("%v %v", err, sol.Status)
				}
				nodes += sol.Nodes
				iters += sol.SimplexIters
			}
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
			b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
		})
	}
}

// BenchmarkSimplexKnapsackLP measures the LP solver on a pure knapsack
// relaxation with 200 variables.
func BenchmarkSimplexKnapsackLP(b *testing.B) {
	m := ilp.NewModel()
	e := ilp.LinExpr{}
	obj := ilp.LinExpr{}
	for i := 0; i < 200; i++ {
		v := m.AddContinuous("", 0, 1)
		e = e.Add(float64(1+i%13), v)
		obj = obj.Add(float64(2+(i*7)%19), v)
	}
	m.AddConstraint("cap", e, ilp.LE, 250)
	m.SetObjective(obj, ilp.Maximize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sol, err := ilp.SolveLP(context.Background(), m, ilp.Options{})
		if err != nil || sol.Status != ilp.Optimal {
			b.Fatalf("%v %v", err, sol.Status)
		}
	}
}

// benchWriter routes one-time experiment output through b.Log so results
// appear with -v without polluting benchmark timing lines.
func benchWriter(b *testing.B) io.Writer { return logWriter{b} }

// coldStart drops the named workloads' process-wide profile and trace
// memos and returns a fresh suite, so a study iteration recomputes
// everything whatever ran before it in the process.
func coldStart(b *testing.B, names ...string) *experiments.Suite {
	for _, name := range names {
		prog, err := workload.Shared(name)
		if err != nil {
			b.Fatal(err)
		}
		sim.Forget(prog)
	}
	return experiments.NewSuite()
}

type logWriter struct{ b *testing.B }

func (w logWriter) Write(p []byte) (int, error) {
	w.b.Log(string(p))
	return len(p), nil
}

// BenchmarkWCETStudy regenerates the WCET-tightening study: static
// fetch-cycle bounds for cache-only vs. CASA layouts on all three
// benchmarks.
func BenchmarkWCETStudy(b *testing.B) {
	cfg := experiments.DefaultWCETStudy()
	for i := 0; i < b.N; i++ {
		s := coldStart(b, workload.Names()...)
		rows, err := experiments.WCETStudy(context.Background(), s, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.WriteWCETStudy(benchWriter(b), rows)
		}
	}
}

// BenchmarkOverlayStudy regenerates the overlay (dynamic copying) study —
// the paper's §7 future work: static CASA vs. phased scratchpad
// reloading. Each iteration builds a fresh config, and with it a fresh
// two-pass program that no memo has seen.
func BenchmarkOverlayStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := coldStart(b, "mpeg")
		cfg, err := experiments.DefaultOverlayStudy()
		if err != nil {
			b.Fatal(err)
		}
		rows, err := experiments.OverlayStudy(context.Background(), s, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.WriteOverlayStudy(benchWriter(b), rows)
		}
	}
}

// BenchmarkDataStudy regenerates the data-preloading study — the paper's
// other §7 future work: joint code+data scratchpad allocation.
func BenchmarkDataStudy(b *testing.B) {
	cfg := experiments.DefaultDataStudy()
	for i := 0; i < b.N; i++ {
		s := coldStart(b, workload.Names()...)
		rows, err := experiments.DataStudy(context.Background(), s, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.WriteDataStudy(benchWriter(b), rows)
		}
	}
}

// BenchmarkPlacementStudy regenerates the code-placement comparison: how
// much of CASA's win cache-conscious reordering ([10,14]) achieves alone.
func BenchmarkPlacementStudy(b *testing.B) {
	cfg := experiments.DefaultPlacementStudy()
	for i := 0; i < b.N; i++ {
		s := coldStart(b, workload.Names()...)
		rows, err := experiments.PlacementStudy(context.Background(), s, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.WritePlacementStudy(benchWriter(b), rows)
		}
	}
}
