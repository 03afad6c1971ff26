// Package core implements the paper's contribution: the Cache-Aware
// Scratchpad Allocation (CASA) algorithm (§4).
//
// Given the trace partition of a program, its conflict graph and the
// per-access energies of the hierarchy, CASA selects the subset of traces
// to copy into the scratchpad that minimizes total instruction-memory
// energy, accounting for the conflict misses that disappear when either
// endpoint of a conflict edge leaves the cache. The selection problem is a
// variant of Maximum Independent Set and is solved exactly as a 0/1 ILP
// (equations (7)–(17) of the paper) with the bundled solver.
//
// The quadratic miss term l(x_i)·l(x_j) is linearized through variables
// L(x_i,x_j). Two linearizations are provided:
//
//   - Faithful: the paper's constraints (13)–(15) with L binary. Note that
//     (15), l_i + l_j − 2L ≤ 1, only forces L = 1 for l_i = l_j = 1
//     because L is integral (the LP relaxation admits L = ½).
//   - Tight: L ≥ l_i + l_j − 1 with L continuous in [0,1]. Equivalent
//     optimum, stronger relaxation, fewer integer variables — the default.
//
// The package also provides a greedy allocator over the same fine-grained
// energy model (for the ablation benches) and the paper's §4 extension to
// multiple scratchpads at the same hierarchy level.
package core

import (
	"context"
	"fmt"

	"repro/internal/conflict"
	"repro/internal/ilp"
	"repro/internal/obs"
	"repro/internal/trace"
)

// mFallbackGreedy counts allocations that fell back to GreedyAllocate
// because the anytime solver stopped with no incumbent.
var mFallbackGreedy = obs.GetCounter("casa_fallback_greedy_total")

// Linearization selects how the quadratic term is linearized.
type Linearization int

const (
	// Tight uses L ≥ l_i + l_j − 1 with continuous L (default).
	Tight Linearization = iota
	// Faithful uses the paper's constraints (13)–(15) with binary L.
	Faithful
)

// String returns the linearization name.
func (l Linearization) String() string {
	if l == Faithful {
		return "faithful"
	}
	return "tight"
}

// Params configures an allocation.
type Params struct {
	// SPMSize is the scratchpad capacity in bytes.
	SPMSize int
	// ESPHit is the scratchpad energy per access (nJ) — E_SP_hit.
	ESPHit float64
	// ECacheHit is the I-cache energy per hit (nJ) — E_Cache_hit.
	ECacheHit float64
	// ECacheMiss is the I-cache energy per miss (nJ) — E_Cache_miss.
	ECacheMiss float64
	// Linearization selects the ILP linearization.
	Linearization Linearization
	// Solver tunes the bundled ILP solver.
	Solver ilp.Options
}

func (p Params) validate() error {
	if p.SPMSize < 0 {
		return fmt.Errorf("core: negative scratchpad size %d", p.SPMSize)
	}
	if p.ESPHit <= 0 || p.ECacheHit <= 0 || p.ECacheMiss <= 0 {
		return fmt.Errorf("core: energies must be positive (spm=%g hit=%g miss=%g)",
			p.ESPHit, p.ECacheHit, p.ECacheMiss)
	}
	if p.ECacheMiss <= p.ECacheHit {
		return fmt.Errorf("core: miss energy %g must exceed hit energy %g",
			p.ECacheMiss, p.ECacheHit)
	}
	return nil
}

// Allocation is the result of a CASA run.
type Allocation struct {
	// InSPM[i] reports whether trace i is copied to the scratchpad.
	InSPM []bool
	// UsedBytes is the scratchpad space consumed (raw trace sizes).
	UsedBytes int
	// PredictedEnergy is the model's total energy E_Total (nJ, eq. 16) for
	// the chosen selection, under the profiling run's conflict counts.
	PredictedEnergy float64
	// Status is the solver status (Optimal for every bundled workload).
	Status ilp.Status
	// Nodes and SimplexIters report solver effort.
	Nodes        int
	SimplexIters int
	// Degraded marks an anytime result: the solve budget or context cut
	// the search short, so the selection is the best incumbent (or the
	// greedy fallback) rather than a proven optimum.
	Degraded bool
	// DegradedReason says why ("deadline", "canceled", "node-limit",
	// "fault:solver-deadline"); empty when Degraded is false.
	DegradedReason string
	// Gap is the relative optimality gap of a degraded incumbent
	// (zero for proven-optimal results and greedy fallbacks).
	Gap float64
	// Fallback reports that the solver produced no incumbent at all and
	// the selection came from GreedyAllocate.
	Fallback bool
}

// NumInSPM returns the number of selected traces.
func (a *Allocation) NumInSPM() int {
	n := 0
	for _, in := range a.InSPM {
		if in {
			n++
		}
	}
	return n
}

// BuildModel constructs the CASA ILP for the given inputs and returns the
// model plus the location variables l(x_i), indexed by trace ID. It is
// exported separately from Allocate so tools can dump the formulation in
// LP format.
func BuildModel(set *trace.Set, g *conflict.Graph, p Params) (*ilp.Model, []ilp.Var, error) {
	if err := p.validate(); err != nil {
		return nil, nil, err
	}
	if g.N() != len(set.Traces) {
		return nil, nil, fmt.Errorf("core: graph has %d vertices, trace set has %d",
			g.N(), len(set.Traces))
	}

	m := ilp.NewModel()
	n := len(set.Traces)

	// Location variables l(x_i): 0 = scratchpad, 1 = cached main memory
	// (eq. 7). Oversized traces are pinned to 1.
	l := make([]ilp.Var, n)
	for i, t := range set.Traces {
		v := m.AddBinary(fmt.Sprintf("l_%d", i))
		if t.RawBytes > p.SPMSize {
			m.SetBounds(v, 1, 1)
		}
		// The l's are the real decisions; linearization variables are
		// implied once they are fixed, so branch on l's first.
		m.SetBranchPriority(v, 1)
		l[i] = v
	}

	// Objective (eq. 12):
	//   E(x_i) = f_i·E_SP
	//          + f_i·(E_hit − E_SP)·l_i
	//          + (E_miss − E_hit)·Σ_j m_ij·L_ij
	// Self-edges use L_ii = l_i·l_i = l_i and fold into the linear term.
	obj := ilp.LinExpr{}
	missDelta := p.ECacheMiss - p.ECacheHit
	for i, t := range set.Traces {
		obj = obj.AddConst(float64(t.Fetches) * p.ESPHit)
		obj = obj.Add(float64(t.Fetches)*(p.ECacheHit-p.ESPHit), l[i])
	}
	for _, e := range g.Edges() {
		w := missDelta * float64(e.Misses)
		if e.From == e.To {
			obj = obj.Add(w, l[e.From])
			continue
		}
		kind := ilp.Continuous
		if p.Linearization == Faithful {
			kind = ilp.Binary
		}
		L := m.AddVar(fmt.Sprintf("L_%d_%d", e.From, e.To), kind, 0, 1)
		obj = obj.Add(w, L)
		// Linearization rows are named by edge (not the positional c%d
		// default) so an LP dump reads back to the edge each row
		// linearizes; names play no role in solving.
		switch p.Linearization {
		case Faithful:
			// (13) l_i − L ≥ 0, (14) l_j − L ≥ 0, (15) l_i + l_j − 2L ≤ 1.
			m.AddConstraint(fmt.Sprintf("lin_from_%d_%d", e.From, e.To), ilp.Expr(1, l[e.From], -1, L), ilp.GE, 0)
			m.AddConstraint(fmt.Sprintf("lin_to_%d_%d", e.From, e.To), ilp.Expr(1, l[e.To], -1, L), ilp.GE, 0)
			m.AddConstraint(fmt.Sprintf("lin_and_%d_%d", e.From, e.To), ilp.Expr(1, l[e.From], 1, l[e.To], -2, L), ilp.LE, 1)
		case Tight:
			// L ≥ l_i + l_j − 1; minimization pushes L down to the bound.
			m.AddConstraint(fmt.Sprintf("lin_%d_%d", e.From, e.To), ilp.Expr(1, l[e.From], 1, l[e.To], -1, L), ilp.LE, 1)
		}
	}
	m.SetObjective(obj, ilp.Minimize)

	// Scratchpad capacity (eq. 17): Σ (1 − l_i)·S(x_i) ≤ SPMSize, with
	// S(x_i) the raw (NOP-stripped) size.
	sizeExpr := ilp.LinExpr{}
	totalSize := 0
	for i, t := range set.Traces {
		sizeExpr = sizeExpr.Add(-float64(t.RawBytes), l[i])
		totalSize += t.RawBytes
	}
	sizeExpr = sizeExpr.AddConst(float64(totalSize))
	m.AddConstraint("spm_capacity", sizeExpr, ilp.LE, float64(p.SPMSize))

	return m, l, nil
}

// Allocate runs CASA: it formulates and solves the ILP and returns the
// optimal trace selection. The context carries the optional tracing span
// tree (obs.WithTracer); ilp-build and ilp-solve are recorded separately
// because their costs scale differently with the conflict graph.
func Allocate(ctx context.Context, set *trace.Set, g *conflict.Graph, p Params) (*Allocation, error) {
	ctx, bs := obs.StartSpan(ctx, "ilp-build")
	m, l, err := BuildModel(set, g, p)
	bs.SetAttr("vars", 0)
	if m != nil {
		bs.SetAttr("vars", m.NumVars())
	}
	bs.End()
	if err != nil {
		return nil, err
	}
	if p.Solver.Trace == nil && obs.TraceEnabled() {
		p.Solver.Trace = obs.TraceWriter()
	}
	_, ss := obs.StartSpan(ctx, "ilp-solve")
	sol, err := ilp.Solve(ctx, m, p.Solver)
	if sol != nil {
		ss.SetAttr("nodes", sol.Nodes)
		ss.SetAttr("iters", sol.SimplexIters)
		if sol.Degraded {
			ss.SetAttr("degraded", sol.DegradedReason)
			ss.SetAttr("gap", sol.Gap)
			if sol.Status == ilp.Aborted {
				ss.SetAttr("fallback", "greedy")
			}
		}
	}
	ss.End()
	if err != nil {
		return nil, err
	}
	if sol.Status == ilp.Aborted {
		// Anytime contract: the budget (or an injected fault) expired
		// before the tree produced a single incumbent. Fall back to the
		// greedy allocator so the request still terminates with a feasible
		// selection, and label the result.
		mFallbackGreedy.Inc()
		a, gerr := GreedyAllocate(ctx, set, g, p)
		if gerr != nil {
			return nil, gerr
		}
		a.Degraded = true
		a.DegradedReason = sol.DegradedReason
		a.Fallback = true
		a.Nodes = sol.Nodes
		a.SimplexIters = sol.SimplexIters
		return a, nil
	}
	if sol.Status != ilp.Optimal && sol.Status != ilp.Feasible {
		return nil, fmt.Errorf("core: solver returned %v", sol.Status)
	}
	a := &Allocation{
		InSPM:          make([]bool, len(set.Traces)),
		Status:         sol.Status,
		Nodes:          sol.Nodes,
		SimplexIters:   sol.SimplexIters,
		Degraded:       sol.Degraded,
		DegradedReason: sol.DegradedReason,
		Gap:            sol.Gap,
	}
	for i := range set.Traces {
		if sol.Value(l[i]) < 0.5 {
			a.InSPM[i] = true
			a.UsedBytes += set.Traces[i].RawBytes
		}
	}
	a.PredictedEnergy = sol.Objective
	if a.UsedBytes > p.SPMSize {
		return nil, fmt.Errorf("core: internal error: allocation uses %d of %d bytes",
			a.UsedBytes, p.SPMSize)
	}
	return a, nil
}

// PredictEnergy evaluates the paper's energy model (eq. 16) for an
// arbitrary selection, using the profiling run's conflict counts. It is
// the objective CASA optimizes, restated for any allocator.
func PredictEnergy(set *trace.Set, g *conflict.Graph, p Params, inSPM []bool) float64 {
	total := 0.0
	missDelta := p.ECacheMiss - p.ECacheHit
	for i, t := range set.Traces {
		if inSPM[i] {
			total += float64(t.Fetches) * p.ESPHit
			continue
		}
		total += float64(t.Fetches) * p.ECacheHit
		for _, e := range g.OutEdges(i) {
			if !inSPM[e.To] {
				total += missDelta * float64(e.Misses)
			}
		}
	}
	return total
}

// GreedyAllocate is the ablation baseline: the same fine-grained energy
// model optimized greedily instead of exactly. Each step moves the trace
// with the best marginal energy saving per byte into the scratchpad,
// re-evaluating marginals as conflicts disappear, until nothing fits or no
// move saves energy.
func GreedyAllocate(ctx context.Context, set *trace.Set, g *conflict.Graph, p Params) (*Allocation, error) {
	_, sp := obs.StartSpan(ctx, "greedy-allocate")
	defer sp.End()
	if err := p.validate(); err != nil {
		return nil, err
	}
	n := len(set.Traces)
	inSPM := make([]bool, n)
	free := p.SPMSize
	missDelta := p.ECacheMiss - p.ECacheHit

	marginal := func(i int) float64 {
		// Energy saved by moving trace i into the scratchpad now.
		t := set.Traces[i]
		save := float64(t.Fetches) * (p.ECacheHit - p.ESPHit)
		for _, e := range g.OutEdges(i) {
			if !inSPM[e.To] {
				save += missDelta * float64(e.Misses) // i stops missing
			}
		}
		for j := 0; j < n; j++ {
			if inSPM[j] || j == i {
				continue
			}
			if m := g.Misses(j, i); m > 0 {
				save += missDelta * float64(m) // i stops evicting j
			}
		}
		return save
	}

	for {
		best, bestScore := -1, 0.0
		for i, t := range set.Traces {
			if inSPM[i] || t.RawBytes > free || t.RawBytes == 0 {
				continue
			}
			save := marginal(i)
			if save <= 0 {
				continue
			}
			score := save / float64(set.Traces[i].RawBytes)
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		if best < 0 {
			break
		}
		inSPM[best] = true
		free -= set.Traces[best].RawBytes
	}

	a := &Allocation{InSPM: inSPM, UsedBytes: p.SPMSize - free, Status: ilp.Feasible}
	a.PredictedEnergy = PredictEnergy(set, g, p, inSPM)
	return a, nil
}
