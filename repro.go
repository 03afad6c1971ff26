// Package repro is the public API of the CASA reproduction: a library
// implementation of "Cache-Aware Scratchpad Allocation Algorithm" (Verma,
// Wehmeyer, Marwedel — DATE 2004) together with every substrate the paper
// depends on, built from scratch in pure Go:
//
//   - a program IR and deterministic instruction-fetch simulator
//     (ARMulator substitute),
//   - trace formation, program layout with copy/move semantics,
//   - an I-cache / scratchpad / preloaded-loop-cache memory-hierarchy
//     simulator with per-object conflict attribution (memsim substitute),
//   - a CACTI-flavored analytical energy model,
//   - a 0/1 ILP solver (simplex + branch & bound; CPLEX substitute),
//   - the CASA allocator itself, Steinke's knapsack baseline and Ross's
//     loop-cache preloading heuristic,
//   - the experiment harness regenerating the paper's Figure 4, Figure 5
//     and Table 1.
//
// The quickest route is the experiments API:
//
//	pl, _ := repro.Prepare(context.Background(), "mpeg", repro.DM(2048), 512)
//	casa, _ := pl.RunCASA(context.Background())
//	fmt.Printf("%.1f µJ\n", casa.EnergyMicroJ)
//
// Lower-level building blocks (the IR builder, the solvers, the
// simulators) are re-exported below for custom studies.
package repro

import (
	"context"
	"io"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/ilp"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/memsim"
	"repro/internal/overlay"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wcet"
	"repro/internal/workload"
)

// ---- Program representation -------------------------------------------

// Program is a whole application in the library's IR.
type Program = ir.Program

// ProgramBuilder constructs programs with label-based control flow.
type ProgramBuilder = ir.ProgramBuilder

// NewProgramBuilder returns an empty program builder.
func NewProgramBuilder(name string) *ProgramBuilder { return ir.NewProgramBuilder(name) }

// ValidateProgram checks a program's structural well-formedness.
func ValidateProgram(p *Program) error { return ir.Validate(p) }

// Branch behaviors for conditional branches in custom workloads.
type (
	// Loop models a counted loop back edge (taken Trips-1 of Trips times).
	Loop = ir.Loop
	// Pattern cycles through a fixed taken/not-taken sequence.
	Pattern = ir.Pattern
	// Biased takes the branch with a fixed probability, deterministically.
	Biased = ir.Biased
)

// ---- Workloads -----------------------------------------------------------

// Workloads returns the bundled benchmark names: adpcm, g721, mpeg.
func Workloads() []string { return workload.Names() }

// LoadWorkload returns a bundled benchmark program.
func LoadWorkload(name string) (*Program, error) { return workload.Load(name) }

// RandomWorkload generates a deterministic random program for testing.
func RandomWorkload(seed uint64) (*Program, error) {
	return workload.Random(workload.RandomSpec{Seed: seed})
}

// ---- Profiling and traces -------------------------------------------------

// Profile holds a program's execution counts.
type Profile = sim.Profile

// ProfileProgram executes a program once, recording its block trace, and
// returns the profile derived from that recording.
func ProfileProgram(p *Program) (*Profile, error) { return sim.ProfileProgram(p) }

// TraceSet is a program partitioned into traces (memory objects).
type TraceSet = trace.Set

// TraceOptions configures trace formation.
type TraceOptions = trace.Options

// BuildTraces partitions a program into traces.
func BuildTraces(p *Program, prof *Profile, opt TraceOptions) (*TraceSet, error) {
	return trace.Build(p, prof, opt)
}

// ---- Conflict graph ---------------------------------------------------------

// ConflictGraph is the paper's cache-conflict graph.
type ConflictGraph = conflict.Graph

// NewConflictGraph creates an empty conflict graph over per-object fetch
// counts.
func NewConflictGraph(fetches []int64) *ConflictGraph { return conflict.New(fetches) }

// ---- The CASA allocator ------------------------------------------------------

// CASAParams configures the allocator (sizes in bytes, energies in nJ).
type CASAParams = core.Params

// Allocation is a CASA result.
type Allocation = core.Allocation

// Allocate runs the CASA ILP and returns the optimal trace selection.
// The context carries the optional tracing span tree (obs.WithTracer).
func Allocate(ctx context.Context, set *TraceSet, g *ConflictGraph, p CASAParams) (*Allocation, error) {
	return core.Allocate(ctx, set, g, p)
}

// GreedyAllocate runs the greedy variant over the same energy model.
func GreedyAllocate(ctx context.Context, set *TraceSet, g *ConflictGraph, p CASAParams) (*Allocation, error) {
	return core.GreedyAllocate(ctx, set, g, p)
}

// Multi-scratchpad extension (paper §4).
type (
	// SPMSpec describes one scratchpad of a multi-scratchpad hierarchy.
	SPMSpec = core.SPMSpec
	// MultiParams configures the multi-scratchpad allocator.
	MultiParams = core.MultiParams
	// MultiAllocation assigns traces to scratchpads.
	MultiAllocation = core.MultiAllocation
)

// AllocateMulti solves the multi-scratchpad variant.
func AllocateMulti(set *TraceSet, g *ConflictGraph, p MultiParams) (*MultiAllocation, error) {
	return core.AllocateMulti(set, g, p)
}

// Data-preloading extension (paper §7 future work).
type (
	// DataObject is a placeable data item (table, state struct, buffer).
	DataObject = ir.DataObject
	// DataParams extends CASAParams with the off-chip data access energy.
	DataParams = core.DataParams
	// DataAllocation is a joint code+data result.
	DataAllocation = core.DataAllocation
)

// DataAccessCounts derives per-object access counts from a profile.
func DataAccessCounts(p *Program, prof *Profile) []int64 {
	return core.DataAccessCounts(p, prof)
}

// AllocateWithData solves the joint code+data scratchpad allocation.
func AllocateWithData(set *TraceSet, g *ConflictGraph, data []DataObject,
	accesses []int64, p DataParams) (*DataAllocation, error) {
	return core.AllocateWithData(set, g, data, accesses, p)
}

// Overlay extension (paper §7 future work: dynamic copying).
type (
	// OverlayPhases is a program's phase partition.
	OverlayPhases = overlay.Phases
	// OverlayParams configures the phased allocator (includes reload
	// costs).
	OverlayParams = overlay.Params
	// OverlayAllocation assigns traces to phase images.
	OverlayAllocation = overlay.Allocation
)

// DiscoverPhases partitions a program into overlay phases from its entry
// function's top-level structure.
func DiscoverPhases(p *Program, set *TraceSet) (*OverlayPhases, error) {
	return overlay.Discover(p, set)
}

// AllocateOverlay solves the phased scratchpad allocation with per-phase
// capacities and reload costs.
func AllocateOverlay(set *TraceSet, g *ConflictGraph, ph *OverlayPhases,
	p OverlayParams) (*OverlayAllocation, error) {
	return overlay.Allocate(set, g, ph, p)
}

// NewOverlayLayout builds the address map for an overlay allocation.
func NewOverlayLayout(set *TraceSet, a *OverlayAllocation, ph *OverlayPhases,
	opt LayoutOptions) (*Layout, error) {
	phase, num := overlay.LayoutPhases(set, a, ph)
	return layout.NewOverlay(set, phase, num, opt)
}

// TwoPassWorkload returns the overlay demonstration program: two
// sequential hot passes whose working sets each fill a small scratchpad.
func TwoPassWorkload() (*Program, error) { return workload.TwoPass() }

// SimResult is a full memory-hierarchy simulation result.
type SimResult = memsim.Result

// SimulateLayout runs the memory-hierarchy simulation of a program under
// an arbitrary layout (e.g. an overlay layout) with the given I-cache and
// scratchpad configuration.
func SimulateLayout(p *Program, lay *Layout, cacheSpec CacheSpec, spmBytes int) (*SimResult, error) {
	cost, err := energy.NewCostModel(energy.Config{
		Cache: energy.CacheGeometry{
			SizeBytes: cacheSpec.Size, LineBytes: cacheSpec.Line, Assoc: cacheSpec.Assoc,
		},
		SPMBytes: spmBytes,
	})
	if err != nil {
		return nil, err
	}
	return memsim.Run(p, lay, memsim.Config{
		Cache: cache.Config{
			SizeBytes: cacheSpec.Size, LineBytes: cacheSpec.Line,
			Assoc: cacheSpec.Assoc, Replacement: cacheSpec.Policy,
		},
		Cost: cost,
	})
}

// MainMemoryWordEnergy returns the modelled off-chip energy (nJ) of one
// 32-bit access — the per-word cost of overlay reload copies.
func MainMemoryWordEnergy() float64 { return energy.MainMemoryWord() }

// ---- Layout ----------------------------------------------------------------

// Layout assigns addresses to a trace set under copy or move semantics.
type Layout = layout.Layout

// LayoutOptions configures layout construction.
type LayoutOptions = layout.Options

// Placement semantics.
const (
	// CopyPlacement copies selected traces to the scratchpad (CASA).
	CopyPlacement = layout.Copy
	// MovePlacement removes them from the main image (Steinke).
	MovePlacement = layout.Move
)

// NewLayout builds an address map for a selection.
func NewLayout(set *TraceSet, inSPM []bool, opt LayoutOptions) (*Layout, error) {
	return layout.New(set, inSPM, opt)
}

// ---- Experiments (the paper's evaluation) -----------------------------------

// CacheSpec selects an I-cache configuration.
type CacheSpec = experiments.CacheSpec

// DM returns a direct-mapped cache spec with the paper's 16-byte lines.
func DM(size int) CacheSpec { return experiments.DM(size) }

// Pipeline bundles everything shared by the allocators for one
// configuration.
type Pipeline = experiments.Pipeline

// Outcome is one allocator's measured result.
type Outcome = experiments.Outcome

// Prepare builds the evaluation pipeline for one (workload, cache,
// scratchpad size) configuration.
func Prepare(ctx context.Context, name string, cacheSpec CacheSpec, spmSize int) (*Pipeline, error) {
	return experiments.Prepare(ctx, name, cacheSpec, spmSize)
}

// PrepareProgram is Prepare for custom programs.
func PrepareProgram(ctx context.Context, p *Program, cacheSpec CacheSpec, spmSize int) (*Pipeline, error) {
	return experiments.PrepareProgram(ctx, p, cacheSpec, spmSize)
}

// Suite memoizes pipelines across figures.
type Suite = experiments.Suite

// NewSuite returns an empty suite.
func NewSuite() *Suite { return experiments.NewSuite() }

// Figure and table generators with the paper's default configurations.
type (
	// Fig4Config / Fig4Row reproduce Figure 4 (CASA vs. Steinke).
	Fig4Config = experiments.Fig4Config
	Fig4Row    = experiments.Fig4Row
	// Fig5Config / Fig5Row reproduce Figure 5 (scratchpad vs. loop cache).
	Fig5Config = experiments.Fig5Config
	Fig5Row    = experiments.Fig5Row
	// Table1Config / Table1Row / Table1Average reproduce Table 1.
	Table1Config    = experiments.Table1Config
	Table1Row       = experiments.Table1Row
	Table1Average   = experiments.Table1Average
	Table1Benchmark = experiments.Table1Benchmark
)

// Paper-default experiment configurations.
func DefaultFig4() Fig4Config     { return experiments.DefaultFig4() }
func DefaultFig5() Fig5Config     { return experiments.DefaultFig5() }
func DefaultTable1() Table1Config { return experiments.DefaultTable1() }

// Fig4 regenerates Figure 4.
func Fig4(ctx context.Context, s *Suite, cfg Fig4Config) ([]Fig4Row, error) {
	return experiments.Fig4(ctx, s, cfg)
}

// Fig5 regenerates Figure 5.
func Fig5(ctx context.Context, s *Suite, cfg Fig5Config) ([]Fig5Row, error) {
	return experiments.Fig5(ctx, s, cfg)
}

// Table1 regenerates Table 1 with per-benchmark averages.
func Table1(ctx context.Context, s *Suite, cfg Table1Config) ([]Table1Row, []Table1Average, error) {
	return experiments.Table1(ctx, s, cfg)
}

// ---- Textual program format -----------------------------------------------

// ParseASM reads a program in the library's assembly-like text format
// (see internal/asm for the grammar).
func ParseASM(r io.Reader, name string) (*Program, error) { return asm.Parse(r, name) }

// WriteASM renders a program in the text format; the output parses back
// into a structurally identical program.
func WriteASM(w io.Writer, p *Program) error { return asm.Write(w, p) }

// ---- WCET analysis ----------------------------------------------------------

// WCETCosts carries the per-fetch worst-case costs for AnalyzeWCET.
type WCETCosts = wcet.Costs

// WCETResult is a whole-program worst-case bound.
type WCETResult = wcet.Result

// AnalyzeWCET computes a sound static bound on instruction-fetch cycles
// and energy for a program under a layout. Scratchpad fetches are
// deterministic; cacheable fetches are charged a miss per line touched.
func AnalyzeWCET(p *Program, lay *Layout, c WCETCosts) (*WCETResult, error) {
	return wcet.Analyze(p, lay, c)
}

// ---- Energy model -------------------------------------------------------------

// SPMAccessEnergy returns the modelled per-access energy (nJ) of a
// scratchpad of the given size (power of two).
func SPMAccessEnergy(sizeBytes int) float64 { return energy.SPMAccess(sizeBytes) }

// CacheEnergies returns the modelled per-hit and per-miss energies (nJ)
// of an I-cache.
func CacheEnergies(sizeBytes, lineBytes, assoc int) (hit, miss float64, err error) {
	cm, err := energy.NewCostModel(energy.Config{Cache: energy.CacheGeometry{
		SizeBytes: sizeBytes, LineBytes: lineBytes, Assoc: assoc,
	}})
	if err != nil {
		return 0, 0, err
	}
	return cm.CacheHit, cm.CacheMiss, nil
}

// ---- ILP solver ---------------------------------------------------------------

// ILPModel is a mixed 0/1-integer linear program.
type ILPModel = ilp.Model

// ILPOptions tunes the solver.
type ILPOptions = ilp.Options

// ILPSolution is a solver result.
type ILPSolution = ilp.Solution

// NewILPModel returns an empty model.
func NewILPModel() *ILPModel { return ilp.NewModel() }

// SolveILP optimizes a model exactly with branch & bound. It is the
// context-free facade; pass opt.Budget for an anytime solve.
func SolveILP(m *ILPModel, opt ILPOptions) (*ILPSolution, error) {
	return ilp.Solve(context.Background(), m, opt)
}

// ILPVar identifies a variable within its model.
type ILPVar = ilp.Var

// ILPExpr builds a linear expression from coefficient/variable pairs:
// ILPExpr(2, x, -1, y) is 2x − y.
func ILPExpr(pairs ...any) ilp.LinExpr { return ilp.Expr(pairs...) }

// Constraint relations and objective senses, re-exported for model
// construction through the facade.
const (
	// LE, GE and EQ are the constraint relations ≤, ≥ and =.
	LE = ilp.LE
	GE = ilp.GE
	EQ = ilp.EQ
	// Minimize and Maximize are the objective senses.
	Minimize = ilp.Minimize
	Maximize = ilp.Maximize
)
