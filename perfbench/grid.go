package main

import (
	"context"
	_ "embed"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The expected tables are the seed commit's `experiments -exp fig4` and
// `experiments -exp sensitivity` standard output.
var (
	//go:embed testdata/fig4.txt
	fig4Rows string
	//go:embed testdata/sensitivity.txt
	sensitivityRows string
)

// gridSpec is one grid workload: a study run cold on one worker, and the
// table it must print.
type gridSpec struct {
	// programs are the bundled programs the study runs; their sim memos
	// are dropped before every repetition.
	programs []string
	// study runs the study on s and renders its table.
	study    func(ctx context.Context, s *experiments.Suite) (string, error)
	expected string
	// cells are the study's (program, cache, scratchpad) configurations.
	cells []cellConfig
}

type cellConfig struct {
	program string
	cache   experiments.CacheSpec
	spm     int
}

func fig4Grid() gridSpec {
	cfg := experiments.DefaultFig4()
	g := gridSpec{
		programs: []string{cfg.Workload},
		expected: fig4Rows,
		study: func(ctx context.Context, s *experiments.Suite) (string, error) {
			rows, err := experiments.Fig4(ctx, s, cfg)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			experiments.WriteFig4(&b, cfg, rows)
			return b.String(), nil
		},
	}
	for _, spm := range cfg.SPMSizes {
		g.cells = append(g.cells, cellConfig{cfg.Workload, cfg.Cache, spm})
	}
	return g
}

func sensitivityGrid() gridSpec {
	cfg := experiments.DefaultSensitivity()
	g := gridSpec{
		programs: []string{cfg.Workload},
		expected: sensitivityRows,
		study: func(ctx context.Context, s *experiments.Suite) (string, error) {
			rows, err := experiments.Sensitivity(ctx, s, cfg)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			experiments.WriteSensitivity(&b, cfg, rows)
			return b.String(), nil
		},
	}
	for _, spec := range cfg.Variants {
		g.cells = append(g.cells, cellConfig{cfg.Workload, spec, cfg.SPMSize})
	}
	return g
}

// workCounters are the simulated statistics and solver effort of one
// grid; they must repeat exactly across repetitions, traced or not.
var workCounters = []string{
	"casa_sim_fetches_total",
	"casa_sim_cache_hits_total",
	"casa_sim_cache_misses_total",
	"casa_sim_cache_evictions_total",
	"casa_sim_spm_accesses_total",
	"casa_ilp_nodes_total",
	"casa_ilp_simplex_iters_total",
}

// gridRep is what one cold grid repetition measured.
type gridRep struct {
	ms    float64
	delta obs.Snapshot
	roots []*obs.Span
	// fail says why the repetition failed; empty when it passed.
	fail string
}

// rep runs the grid once from cold: the programs' sim memos dropped, a
// collected heap, a fresh suite on one worker, then timed profile and
// trace-recording calls ahead of the study, so each program's memos miss
// exactly once.
func (g *gridSpec) rep(progs []*ir.Program, traced bool) gridRep {
	for _, p := range progs {
		sim.Forget(p)
	}
	runtime.GC()
	suite := experiments.NewSuite().SetWorkers(1)
	ctx := context.Background()
	var tr *obs.Tracer
	if traced {
		tr = obs.NewTracer()
		ctx = obs.WithTracer(ctx, tr)
	}
	before := obs.Default.Snapshot()
	start := time.Now()
	gctx, root := obs.StartSpan(ctx, "bench.grid")
	table, err := g.coldRun(gctx, suite, progs)
	root.End()
	r := gridRep{
		ms:    float64(time.Since(start).Nanoseconds()) / 1e6,
		delta: obs.Default.Delta(before),
		roots: tr.Roots(),
	}
	n := float64(len(progs))
	switch {
	case err != nil:
		r.fail = err.Error()
	case table != g.expected:
		r.fail = "rows differ from the expected table:\n" + table
	case r.delta["casa_profile_memo_misses_total"] != n || r.delta["casa_stream_cache_misses_total"] != n:
		r.fail = fmt.Sprintf("not cold: %v profile-memo and %v trace-memo misses for %v programs",
			r.delta["casa_profile_memo_misses_total"], r.delta["casa_stream_cache_misses_total"], n)
	case r.delta["casa_solve_degraded_total"] > 0 || r.delta["casa_fallback_greedy_total"] > 0:
		r.fail = "a cell was degraded"
	}
	return r
}

func (g *gridSpec) coldRun(ctx context.Context, suite *experiments.Suite, progs []*ir.Program) (string, error) {
	for _, p := range progs {
		_, sp := obs.StartSpan(ctx, "bench.profile")
		_, err := sim.CachedProfile(p)
		sp.End()
		if err != nil {
			return "", err
		}
		_, sp = obs.StartSpan(ctx, "bench.record")
		_, err = sim.CachedTrace(p)
		sp.End()
		if err != nil {
			return "", err
		}
	}
	sctx, sp := obs.StartSpan(ctx, "bench.study")
	defer sp.End()
	return g.study(sctx, suite)
}

// sameWork reports which work counter of d differs from ref, if any.
func sameWork(ref, d obs.Snapshot) string {
	for _, c := range workCounters {
		if d[c] != ref[c] {
			return fmt.Sprintf("%s = %v, first repetition had %v", c, d[c], ref[c])
		}
	}
	return ""
}

func runGrid(g gridSpec, o options) (*result, error) {
	// Set-up builds the shared program instances the study uses.
	progs := make([]*ir.Program, len(g.programs))
	for i, name := range g.programs {
		p, err := workload.Shared(name)
		if err != nil {
			return nil, err
		}
		progs[i] = p
	}
	if o.setupOnly {
		return nil, nil
	}

	// One checked repetition ahead of timing finishes the process's lazy
	// start-up and fixes the reference work counts.
	warm := g.rep(progs, false)
	attempted, failed := 1, 0
	fail := func(why string) {
		failed++
		if failed <= 3 {
			fmt.Fprintln(os.Stderr, "perfbench: failed grid:", why)
		}
	}
	if warm.fail != "" {
		fail(warm.fail)
	}

	var lat, tracedMS []float64
	tally := newSpanTally("experiments.self_ms")
	counters := obs.Snapshot{}
	var use runtimeUse
	loopStart := time.Now()
	// A traced run alternates untraced and traced repetitions: the
	// untraced ones pair with the traced ones for the tracing overhead.
	for i := 0; i < 2 || time.Since(loopStart) < o.seconds; i++ {
		traced := o.traced && i%2 == 1
		if o.traced && !traced {
			use.begin()
		}
		r := g.rep(progs, traced)
		if o.traced && !traced {
			use.end(1)
		}
		attempted++
		if r.fail == "" {
			r.fail = sameWork(warm.delta, r.delta)
		}
		if r.fail != "" {
			fail(r.fail)
		}
		if traced {
			tracedMS = append(tracedMS, r.ms)
			tally.add(r.roots)
			addSnapshot(counters, r.delta)
		} else {
			lat = append(lat, r.ms)
		}
	}
	elapsed := time.Since(loopStart).Seconds()

	res := &result{Attempted: attempted, Failed: failed}
	if !o.traced {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.Metrics = endToEnd(o.setupS, lat, lat, float64(len(lat))/elapsed, rss)
		res.Correct = failed == 0
		return res, nil
	}

	byName := map[string]*ir.Program{}
	for i, name := range g.programs {
		byName[name] = progs[i]
	}
	traces := 0
	for _, c := range g.cells {
		p, err := experiments.PrepareProgram(context.Background(), byName[c.program], c.cache, c.spm)
		if err != nil {
			return nil, err
		}
		traces += len(p.Set.Traces)
	}
	n := float64(len(tracedMS))
	m := layerMetrics(tally, counters, n, float64(traces)*n)
	use.report(m)
	m["client.overhead_ms"] = metric{0, "ms"}
	m["obs.trace_overhead_pct"] = metric{100 * (median(tracedMS)/median(lat) - 1), "%"}
	res.Metrics = m
	covErr := tally.checkCoverage()
	if covErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", covErr)
	}
	if err := reportLayers(m); err != nil {
		return nil, err
	}
	res.Correct = failed == 0 && covErr == nil
	return res, nil
}
