// Package experiments assembles the full evaluation pipeline of the paper
// (Figure 3): workload → profile → trace generation → allocation (CASA,
// Steinke's knapsack, or Ross's loop-cache preloading) → layout → memory-
// hierarchy simulation → energy, and regenerates every figure and table of
// the results section.
//
// A Pipeline bundles everything derived from one (workload, cache,
// scratchpad-size) triple so the three allocators are compared on exactly
// the same traces and the same profiling run, as the paper prescribes
// ("for a fair comparison, traces are generated for both the allocation
// techniques"). A Suite memoizes Pipelines across figures.
//
// Concurrency model: every experiment cell — one (workload, cache,
// scratchpad size) point of a study — is deterministic and independent,
// so the study functions fan their grids out across a bounded worker pool
// (internal/parallel) sized by the Suite's worker setting. Shared state
// is either immutable after construction (programs, profiles, trace sets,
// conflict graphs, layouts) or guarded by singleflight memo entries (the
// Suite's pipeline table, each Pipeline's outcome and allocation memos),
// so a Suite and its Pipelines are safe for concurrent use and results
// are bit-identical to a serial run.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/ilp"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/loopcache"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/steinke"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Memoization effectiveness counters. Hit rates are the observability
// pay-off metric of the PR 1 memo layers: a warm second round should show
// pipeline/outcome hits near 100%.
var (
	mPipeHits    = obs.GetCounter("casa_pipeline_memo_hits_total")
	mPipeMisses  = obs.GetCounter("casa_pipeline_memo_misses_total")
	mOutHits     = obs.GetCounter("casa_outcome_memo_hits_total")
	mOutMisses   = obs.GetCounter("casa_outcome_memo_misses_total")
	mAllocHits   = obs.GetCounter("casa_alloc_memo_hits_total")
	mAllocMisses = obs.GetCounter("casa_alloc_memo_misses_total")
)

// CacheSpec selects the I-cache configuration of an experiment.
type CacheSpec struct {
	// Size is the capacity in bytes.
	Size int
	// Line is the line size in bytes (the paper-wide default is 16).
	Line int
	// Assoc is the associativity (1 = direct-mapped, as in the paper).
	Assoc int
	// Policy is the replacement policy for associative configurations.
	Policy cache.Policy
}

// DefaultLine is the line size used throughout the evaluation.
const DefaultLine = 16

// LoopCacheEntries is the preload limit of the modelled loop cache; the
// paper assumes a maximum of 4 loops.
const LoopCacheEntries = 4

// DM returns a direct-mapped CacheSpec with the default line size.
func DM(size int) CacheSpec {
	return CacheSpec{Size: size, Line: DefaultLine, Assoc: 1}
}

func (c CacheSpec) cacheConfig() cache.Config {
	return cache.Config{
		SizeBytes:   c.Size,
		LineBytes:   c.Line,
		Assoc:       c.Assoc,
		Replacement: c.Policy,
	}
}

func (c CacheSpec) geometry() energy.CacheGeometry {
	return energy.CacheGeometry{SizeBytes: c.Size, LineBytes: c.Line, Assoc: c.Assoc}
}

// Pipeline is everything shared by the allocators for one configuration.
// All exported fields are immutable after Prepare; the Run* methods
// memoize their outcomes and are safe for concurrent use.
type Pipeline struct {
	// Workload is the benchmark name.
	Workload string
	// Prog is the loaded program.
	Prog *ir.Program
	// Prof is its execution profile.
	Prof *sim.Profile
	// Cache is the I-cache configuration.
	Cache CacheSpec
	// SPMSize is the scratchpad (or loop cache) capacity in bytes.
	SPMSize int
	// Set is the trace partition (traces capped at SPMSize).
	Set *trace.Set
	// Graph is the conflict graph from the cache-only profiling run.
	Graph *conflict.Graph
	// Baseline is the cache-only run (trace layout, empty scratchpad).
	Baseline *memsim.Result
	// Cost is the scratchpad-configuration cost model.
	Cost energy.CostModel
	// SolveBudget caps the CASA ILP's wall-clock time (0 = unlimited);
	// on expiry the solver degrades to its incumbent or the greedy
	// fallback instead of failing the cell.
	SolveBudget time.Duration
	// Warm, when non-nil, is the donor store shared with neighboring
	// pipelines (warmplan.go): the CASA solve is seeded from its
	// single-parameter neighbors and, once proven optimal, recorded into
	// it. Set by the owning Suite, or by a caller keeping its own store
	// (the serving daemon); nil for cold standalone pipelines. It never
	// changes results, only solve time.
	Warm *WarmStore

	// mu guards the memo tables below; each entry is singleflight so a
	// result is computed once even under concurrent callers.
	mu       sync.Mutex
	outcomes map[string]*outcomeEntry
	alloc    *allocEntry
}

type outcomeEntry struct {
	once sync.Once
	out  *Outcome
	err  error
}

type allocEntry struct {
	once  sync.Once
	alloc *core.Allocation
	warm  bool // the solve was seeded from a Warm store donor
	err   error
}

// Prepare builds the pipeline for one (workload, cache, scratchpad size)
// configuration: it profiles the program, forms traces, lays them out
// without a scratchpad and runs the conflict-tracking profiling
// simulation. The context carries the optional tracing span tree
// (obs.WithTracer); each preparation stage records its own child span.
func Prepare(ctx context.Context, name string, cacheSpec CacheSpec, spmSize int) (*Pipeline, error) {
	prog, err := workload.Shared(name)
	if err != nil {
		return nil, err
	}
	return PrepareProgram(ctx, prog, cacheSpec, spmSize)
}

// PrepareProgram is Prepare for an already-constructed program (custom
// workloads, tests). The program must not be mutated afterwards: profiles
// and fetch streams are memoized process-wide per program instance.
func PrepareProgram(ctx context.Context, prog *ir.Program, cacheSpec CacheSpec, spmSize int) (*Pipeline, error) {
	ctx, ps := obs.StartSpan(ctx, "prepare")
	defer ps.End()
	ps.SetAttr("workload", prog.Name)
	ps.SetAttr("cache_bytes", cacheSpec.Size)
	ps.SetAttr("spm_bytes", spmSize)

	_, sp := obs.StartSpan(ctx, "profile")
	prof, err := sim.CachedProfile(prog)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("experiments: profile %s: %w", prog.Name, err)
	}
	_, sp = obs.StartSpan(ctx, "trace-partition")
	set, err := trace.Build(prog, prof, trace.Options{MaxBytes: spmSize, LineBytes: cacheSpec.Line})
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("experiments: traces %s: %w", prog.Name, err)
	}
	_, sp = obs.StartSpan(ctx, "layout")
	plain, err := layout.New(set, nil, layout.Options{})
	sp.End()
	if err != nil {
		return nil, err
	}
	_, sp = obs.StartSpan(ctx, "energy-model")
	cost, err := energy.NewCostModel(energy.Config{
		Cache:    cacheSpec.geometry(),
		SPMBytes: spmSize,
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	_, sp = obs.StartSpan(ctx, "baseline-sim")
	base, err := memsim.Run(prog, plain, memsim.Config{
		Cache:          cacheSpec.cacheConfig(),
		Cost:           cost,
		TrackConflicts: true,
		KeepCache:      true,
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	_, sp = obs.StartSpan(ctx, "conflict-graph")
	fetches := make([]int64, len(set.Traces))
	for i, t := range set.Traces {
		fetches[i] = t.Fetches
	}
	g := conflict.New(fetches)
	for k, v := range base.Conflicts {
		if err := g.AddMisses(k.Victim, k.Evictor, v); err != nil {
			sp.End()
			return nil, fmt.Errorf("experiments: conflict graph: %w", err)
		}
	}
	sp.SetAttr("edges", g.NumEdges())
	sp.End()
	return &Pipeline{
		Workload: prog.Name,
		Prog:     prog,
		Prof:     prof,
		Cache:    cacheSpec,
		SPMSize:  spmSize,
		Set:      set,
		Graph:    g,
		Baseline: base,
		Cost:     cost,
	}, nil
}

// Outcome is the measured result of one allocator under one pipeline.
type Outcome struct {
	// Allocator names the technique ("casa", "casa-greedy", "steinke",
	// "loopcache", "cache-only").
	Allocator string
	// Result is the full simulation result.
	Result *memsim.Result
	// EnergyMicroJ is the total instruction-memory energy in µJ.
	EnergyMicroJ float64
	// PlacedTraces and UsedBytes describe the allocation (scratchpad
	// techniques only).
	PlacedTraces int
	UsedBytes    int
	// SolverNodes reports ILP effort (CASA only).
	SolverNodes int
	// Degraded marks an anytime result: the ILP stopped on its budget or
	// cancellation and the allocation is the best incumbent (or the
	// greedy fallback) rather than a proven optimum.
	Degraded bool
	// DegradedReason says why ("deadline", "canceled", "node-limit", ...).
	DegradedReason string
	// Gap is the relative optimality gap of a degraded incumbent
	// (0 when proven optimal or unknown).
	Gap float64
	// Fallback marks a degraded result obtained from GreedyAllocate
	// because the solver produced no incumbent at all.
	Fallback bool
	// Warm marks a CASA result whose solve was seeded with a cutoff from
	// a donor in the pipeline's Warm store. It changes no other field.
	Warm bool
}

func (p *Pipeline) finish(name string, res *memsim.Result, placed, used, nodes int) *Outcome {
	return &Outcome{
		Allocator:    name,
		Result:       res,
		EnergyMicroJ: res.TotalEnergyMicroJ(),
		PlacedTraces: placed,
		UsedBytes:    used,
		SolverNodes:  nodes,
	}
}

// casaParams derives the CASA energy parameters from the pipeline's cost
// model.
func (p *Pipeline) casaParams() core.Params {
	return core.Params{
		SPMSize:    p.SPMSize,
		ESPHit:     p.Cost.SPMAccess,
		ECacheHit:  p.Cost.CacheHit,
		ECacheMiss: p.Cost.CacheMiss,
		Solver:     ilp.Options{Budget: p.SolveBudget},
	}
}

// outcome returns the memoized result for key, computing it at most once
// via fn even under concurrent callers. Lookups are counted in the memo
// hit/miss metrics; a "hit" is any call that finds the entry already
// created (it may still block briefly on the in-flight computation).
func (p *Pipeline) outcome(key string, fn func() (*Outcome, error)) (*Outcome, error) {
	p.mu.Lock()
	if p.outcomes == nil {
		p.outcomes = make(map[string]*outcomeEntry)
	}
	e, ok := p.outcomes[key]
	if !ok {
		e = &outcomeEntry{}
		p.outcomes[key] = e
	}
	p.mu.Unlock()
	if ok {
		mOutHits.Inc()
	} else {
		mOutMisses.Inc()
	}
	e.once.Do(func() { e.out, e.err = fn() })
	return e.out, e.err
}

// CASAAllocation returns the pipeline's CASA ILP allocation, solved at
// most once; RunCASA, the ablations and the WCET study all share it.
func (p *Pipeline) CASAAllocation(ctx context.Context) (*core.Allocation, error) {
	e := p.casaAllocation(ctx)
	return e.alloc, e.err
}

// casaAllocation is CASAAllocation returning the whole memo entry.
func (p *Pipeline) casaAllocation(ctx context.Context) *allocEntry {
	p.mu.Lock()
	created := p.alloc == nil
	if created {
		p.alloc = &allocEntry{}
	}
	e := p.alloc
	p.mu.Unlock()
	if created {
		mAllocMisses.Inc()
	} else {
		mAllocHits.Inc()
	}
	e.once.Do(func() {
		actx, sp := obs.StartSpan(ctx, "allocate")
		defer sp.End()
		sp.SetAttr("workload", p.Workload)
		params := p.casaParams()
		if p.Warm != nil {
			// Cross-cell warm start: seed the solve with the tightest
			// cutoff transferable from a solved neighbor (warmplan.go).
			// Cold solves are counted as misses here; hits are counted by
			// the solver when it installs the cutoff.
			if cut, ok := p.Warm.cutoff(p, params); ok {
				params.Solver.Cutoff = &cut
				e.warm = true
				sp.SetAttr("warm_cutoff", cut)
			} else {
				mWarmCellMisses.Inc()
			}
		}
		e.alloc, e.err = core.Allocate(actx, p.Set, p.Graph, params)
		if e.err != nil {
			e.err = fmt.Errorf("experiments: casa %s/%d: %w", p.Workload, p.SPMSize, e.err)
		} else if a := e.alloc; p.Warm != nil && a.Status == ilp.Optimal && !a.Degraded && !a.Fallback {
			// Only proven-optimal selections donate (WarmStore.Record).
			p.Warm.Record(p, a.InSPM)
		}
	})
	if e.err == nil && e.alloc.Degraded {
		// Annotate every caller's span (memo hits included) so each cell
		// that consumes a degraded allocation is visible in run reports.
		_, sp := obs.StartSpan(ctx, "degraded-allocation")
		sp.SetAttr("degraded", e.alloc.DegradedReason)
		sp.SetAttr("gap", e.alloc.Gap)
		if e.alloc.Fallback {
			sp.SetAttr("fallback", "greedy")
		}
		sp.End()
	}
	return e
}

// RunCASA allocates with the paper's algorithm (copy semantics) and
// simulates the result.
func (p *Pipeline) RunCASA(ctx context.Context) (*Outcome, error) {
	return p.outcome("casa", func() (*Outcome, error) {
		e := p.casaAllocation(ctx)
		alloc, err := e.alloc, e.err
		if err != nil {
			return nil, err
		}
		out, err := p.runSPM(ctx, "casa", alloc.InSPM, layout.Copy, alloc.UsedBytes, alloc.Nodes)
		if err != nil {
			return nil, err
		}
		out.Degraded = alloc.Degraded
		out.DegradedReason = alloc.DegradedReason
		out.Gap = alloc.Gap
		out.Fallback = alloc.Fallback
		out.Warm = e.warm
		return out, nil
	})
}

// RunCASAGreedy runs the greedy variant of the fine-grained model (for
// ablation).
func (p *Pipeline) RunCASAGreedy(ctx context.Context) (*Outcome, error) {
	return p.outcome("casa-greedy", func() (*Outcome, error) {
		alloc, err := core.GreedyAllocate(ctx, p.Set, p.Graph, p.casaParams())
		if err != nil {
			return nil, err
		}
		return p.runSPM(ctx, "casa-greedy", alloc.InSPM, layout.Copy, alloc.UsedBytes, 0)
	})
}

// RunSteinke allocates with the cache-unaware knapsack baseline [13]
// (move semantics) and simulates the result.
func (p *Pipeline) RunSteinke(ctx context.Context) (*Outcome, error) {
	return p.outcome("steinke", func() (*Outcome, error) {
		alloc, err := steinke.Allocate(p.Set, p.SPMSize)
		if err != nil {
			return nil, err
		}
		return p.runSPM(ctx, "steinke", alloc.InSPM, layout.Move, alloc.UsedBytes, 0)
	})
}

// RunSelection simulates an arbitrary scratchpad selection under the given
// placement semantics; the ablation benches use it to isolate copy vs.
// move effects.
func (p *Pipeline) RunSelection(ctx context.Context, name string, inSPM []bool, mode layout.Mode) (*Outcome, error) {
	used := 0
	for i, in := range inSPM {
		if in {
			used += p.Set.Traces[i].RawBytes
		}
	}
	return p.runSPM(ctx, name, inSPM, mode, used, 0)
}

func (p *Pipeline) runSPM(ctx context.Context, name string, inSPM []bool, mode layout.Mode, used, nodes int) (*Outcome, error) {
	_, sp := obs.StartSpan(ctx, "spm-layout")
	lay, err := layout.New(p.Set, inSPM, layout.Options{Mode: mode, SPMSize: p.SPMSize})
	sp.End()
	if err != nil {
		return nil, err
	}
	_, sp = obs.StartSpan(ctx, "simulate")
	sp.SetAttr("allocator", name)
	// Given the profiling run, a copy layout walks only the cache sets
	// its scratchpad traces map to; memsim checks that Baseline matches
	// and takes the full walk for every other run.
	res, err := memsim.Run(p.Prog, lay, memsim.Config{
		Cache:    p.Cache.cacheConfig(),
		Cost:     p.Cost,
		Baseline: p.Baseline,
	})
	if err == nil {
		sp.SetAttr("sets_walked", res.SetsWalked)
		sp.SetAttr("sets", p.Cache.cacheConfig().Sets())
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	placed := 0
	for _, in := range inSPM {
		if in {
			placed++
		}
	}
	return p.finish(name, res, placed, used, nodes), nil
}

// RunLoopCache preloads a loop cache of the pipeline's size with Ross's
// heuristic [12] and simulates the result. The loop cache replaces the
// scratchpad (Figure 1(b)); the main-memory layout is the plain trace
// layout.
func (p *Pipeline) RunLoopCache(ctx context.Context) (*Outcome, error) {
	return p.outcome("loopcache", func() (*Outcome, error) { return p.runLoopCache(ctx) })
}

func (p *Pipeline) runLoopCache(ctx context.Context) (*Outcome, error) {
	plain, err := layout.New(p.Set, nil, layout.Options{})
	if err != nil {
		return nil, err
	}
	cands := loopcache.Candidates(p.Prog, p.Prof, plain)
	ctrl, err := loopcache.Allocate(loopcache.Config{
		SizeBytes:  p.SPMSize,
		MaxRegions: LoopCacheEntries,
	}, cands)
	if err != nil {
		return nil, fmt.Errorf("experiments: loopcache %s/%d: %w", p.Workload, p.SPMSize, err)
	}
	cost, err := energy.NewCostModel(energy.Config{
		Cache:            p.Cache.geometry(),
		LoopCacheBytes:   p.SPMSize,
		LoopCacheEntries: LoopCacheEntries,
	})
	if err != nil {
		return nil, err
	}
	_, sp := obs.StartSpan(ctx, "simulate")
	sp.SetAttr("allocator", "loopcache")
	res, err := memsim.Run(p.Prog, plain, memsim.Config{
		Cache:     p.Cache.cacheConfig(),
		LoopCache: ctrl,
		Cost:      cost,
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	return p.finish("loopcache", res, len(ctrl.Regions()), ctrl.Used(), 0), nil
}

// RunCacheOnly reports the trace layout with no scratchpad or loop cache:
// the reference hierarchy. It simulates nothing: the conflict-profiling
// run of Prepare (Baseline) drove the same plain layout through the same
// cache, so its counters are exactly the cache-only run's, and only the
// energy has to be re-priced under the scratchpad-free cost model.
func (p *Pipeline) RunCacheOnly(ctx context.Context) (*Outcome, error) {
	return p.outcome("cache-only", p.runCacheOnly)
}

func (p *Pipeline) runCacheOnly() (*Outcome, error) {
	cost, err := energy.NewCostModel(energy.Config{Cache: p.Cache.geometry()})
	if err != nil {
		return nil, err
	}
	res, err := memsim.Reprice(p.Baseline, memsim.Config{
		Cache: p.Cache.cacheConfig(),
		Cost:  cost,
	})
	if err != nil {
		return nil, err
	}
	return p.finish("cache-only", res, 0, 0, 0), nil
}

// Suite memoizes pipelines so that figures sharing configurations (e.g.
// Figure 4, Figure 5 and Table 1 all use mpeg with a 2 kB cache) prepare
// them once, and carries the worker-pool width the study functions fan
// out with. A Suite is safe for concurrent use.
type Suite struct {
	mu          sync.Mutex
	workers     int
	solveBudget time.Duration
	pipelines   map[suiteKey]*suiteEntry

	// warm holds solved cells for cross-cell warm starts (warmplan.go).
	warm WarmStore
}

type suiteKey struct {
	name    string
	cache   CacheSpec
	spmSize int
}

type suiteEntry struct {
	once sync.Once
	p    *Pipeline
	err  error
}

// NewSuite returns an empty suite with the default worker count
// (CASA_WORKERS, else GOMAXPROCS-style runtime.NumCPU).
func NewSuite() *Suite {
	return &Suite{pipelines: make(map[suiteKey]*suiteEntry)}
}

// SetWorkers fixes the worker-pool width for this suite's studies
// (0 restores the default resolution) and returns the suite for
// chaining.
func (s *Suite) SetWorkers(n int) *Suite {
	s.mu.Lock()
	s.workers = n
	s.mu.Unlock()
	return s
}

// Workers returns the resolved worker-pool width the suite's studies run
// with.
func (s *Suite) Workers() int {
	s.mu.Lock()
	n := s.workers
	s.mu.Unlock()
	return parallel.Workers(n)
}

// SetSolveBudget caps each pipeline's CASA ILP solve at d of wall clock
// (0 = unlimited) and returns the suite for chaining. The budget applies
// to pipelines prepared after the call; on expiry a solve degrades to
// its incumbent (or the greedy fallback) instead of failing.
func (s *Suite) SetSolveBudget(d time.Duration) *Suite {
	s.mu.Lock()
	s.solveBudget = d
	s.mu.Unlock()
	return s
}

// SolveBudget returns the suite's per-solve wall-clock budget.
func (s *Suite) SolveBudget() time.Duration {
	s.mu.Lock()
	d := s.solveBudget
	s.mu.Unlock()
	return d
}

// Pipeline returns the (possibly cached) pipeline for a configuration.
// Concurrent callers of the same configuration share one preparation.
func (s *Suite) Pipeline(ctx context.Context, name string, cacheSpec CacheSpec, spmSize int) (*Pipeline, error) {
	k := suiteKey{name: name, cache: cacheSpec, spmSize: spmSize}
	s.mu.Lock()
	e, ok := s.pipelines[k]
	if !ok {
		e = &suiteEntry{}
		s.pipelines[k] = e
	}
	s.mu.Unlock()
	if ok {
		mPipeHits.Inc()
	} else {
		mPipeMisses.Inc()
	}
	e.once.Do(func() {
		prog, err := workload.Shared(name)
		if err != nil {
			e.err = err
			return
		}
		e.p, e.err = PrepareProgram(ctx, prog, cacheSpec, spmSize)
		if e.err == nil {
			e.p.SolveBudget = s.SolveBudget()
			e.p.Warm = &s.warm
		}
	})
	return e.p, e.err
}

// runCellsOrdered evaluates independent experiment cells on the suite's
// worker pool in an explicit evaluation order: order[k] is the cell
// index to run k-th (naturalOrder for a plain grid). Results — and the
// indices inside a *parallel.GridError — are mapped back to cell order,
// so callers see the grid exactly as if it ran in natural order,
// regardless of worker count or scheduling. With one worker the order
// is exactly the serial execution sequence; with more workers it is the
// submission order. The caller's context — tracer included — reaches
// every cell, so per-cell spans nest under the study span even though
// the cells run on pool goroutines.
//
// Cells that fail (or panic — the pool converts panics to CellErrors) do
// not cancel their siblings: every healthy cell still produces its row,
// and the losing cells come back in a *parallel.GridError alongside the
// partial results, so a faulted grid degrades instead of vanishing.
func runCellsOrdered[T any](ctx context.Context, s *Suite, order []int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	tmp, err := parallel.MapAll(ctx, len(order), s.Workers(),
		func(cctx context.Context, k int) (T, error) {
			i := order[k]
			cctx, sp := obs.StartSpan(cctx, "cell")
			defer sp.End()
			sp.SetAttr("index", i)
			return fn(cctx, i)
		})
	out := make([]T, len(order))
	for k, i := range order {
		out[i] = tmp[k]
	}
	var ge *parallel.GridError
	if errors.As(err, &ge) {
		for _, ce := range ge.Failed {
			ce.Index = order[ce.Index]
		}
		sort.Slice(ge.Failed, func(a, b int) bool { return ge.Failed[a].Index < ge.Failed[b].Index })
	}
	return out, err
}

// naturalOrder is the identity evaluation order 0, 1, …, n-1.
func naturalOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}
