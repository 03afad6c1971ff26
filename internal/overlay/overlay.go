// Package overlay implements the paper's stated future work: "dynamic
// copying (overlay) of memory objects on the scratchpad" (§7).
//
// Static allocation dedicates the scratchpad to one trace selection for
// the whole run. Overlay allocation splits execution into *phases* —
// temporally disjoint regions of the entry function — and reloads the
// scratchpad at each phase entry, so two hot phases can each enjoy the
// full capacity instead of sharing it. The price is the copy energy and
// latency of the reloads, which the allocator weighs explicitly.
//
// Phase discovery is structural: the entry function's top-level loops and
// the straight-line stretches between them form the phases; every other
// function belongs to the phases that (transitively) call it. Functions
// reachable from more than one phase are *shared* and, when selected,
// stay resident across all phases (they are loaded once and occupy
// capacity in every phase's budget).
//
// The selection problem extends the CASA ILP: one binary per trace as
// before, a capacity constraint per phase instead of one global one, and
// a per-trace copy cost added to the scratchpad side of the objective.
package overlay

import (
	"context"
	"fmt"

	"repro/internal/conflict"
	"repro/internal/ilp"
	"repro/internal/ir"
	"repro/internal/trace"
)

// SharedPhase marks traces not exclusive to any phase (resident across
// the whole run when selected).
const SharedPhase = -1

// Phase is one temporally contiguous region of execution.
type Phase struct {
	// ID is the phase index.
	ID int
	// Name describes the phase for reports (dominant callee or block
	// range).
	Name string
	// EntryBlocks are the entry-function blocks forming the phase.
	EntryBlocks []ir.BlockID
	// Funcs are the functions exclusively reachable from this phase.
	Funcs []ir.FuncID
}

// Phases is a whole-program phase partition.
type Phases struct {
	// List holds the phases in execution order.
	List []Phase
	// FuncPhase maps each function to its exclusive phase, or SharedPhase.
	// The entry function itself is always shared.
	FuncPhase []int
	// TracePhase maps each trace to its function's phase.
	TracePhase []int
}

// NumPhases returns the number of phases.
func (p *Phases) NumPhases() int { return len(p.List) }

// Discover partitions the program into phases based on the entry
// function's top-level structure and assigns every trace of set to a
// phase (or SharedPhase).
func Discover(prog *ir.Program, set *trace.Set) (*Phases, error) {
	entry := prog.Func(prog.Entry)
	nest := ir.AnalyzeLoops(entry)

	// Outermost loop per block of the entry function (or -1).
	outer := make([]int, len(entry.Blocks))
	for i := range outer {
		outer[i] = -1
	}
	for li, l := range nest.Loops {
		// A loop is top-level if no other loop strictly contains it.
		top := true
		for lj, other := range nest.Loops {
			if li == lj {
				continue
			}
			if contains(other, l) {
				top = false
				break
			}
		}
		if !top {
			continue
		}
		for _, b := range l.Blocks {
			outer[b] = li
		}
	}

	// Segment the entry function's blocks in textual order: consecutive
	// blocks sharing the same outermost loop form one segment; runs of
	// loop-free blocks form their own segments.
	var phases []Phase
	cur := -2 // sentinel distinct from every loop id and from -1
	for _, b := range entry.Blocks {
		if outer[b.ID] != cur {
			cur = outer[b.ID]
			phases = append(phases, Phase{ID: len(phases)})
		}
		ph := &phases[len(phases)-1]
		ph.EntryBlocks = append(ph.EntryBlocks, b.ID)
	}

	// Call reachability per phase.
	reach := make([]map[ir.FuncID]bool, len(phases))
	for i := range phases {
		reach[i] = make(map[ir.FuncID]bool)
		for _, bid := range phases[i].EntryBlocks {
			b := entry.Block(bid)
			if b.Term() == ir.TermCall {
				expandCalls(prog, b.CallTarget, reach[i])
			}
		}
	}

	// Function → exclusive phase or shared.
	fp := make([]int, len(prog.Funcs))
	for fid := range prog.Funcs {
		fp[fid] = SharedPhase
		if ir.FuncID(fid) == prog.Entry {
			continue
		}
		owner := -2
		for pi := range phases {
			if reach[pi][ir.FuncID(fid)] {
				if owner == -2 {
					owner = pi
				} else {
					owner = SharedPhase
					break
				}
			}
		}
		if owner >= 0 {
			fp[fid] = owner
		}
	}

	// Name phases after their hottest exclusive callee (or block range).
	for pi := range phases {
		name := fmt.Sprintf("%s[%d..%d]", entry.Name,
			phases[pi].EntryBlocks[0], phases[pi].EntryBlocks[len(phases[pi].EntryBlocks)-1])
		var funcs []ir.FuncID
		for fid := range prog.Funcs {
			if fp[fid] == pi {
				funcs = append(funcs, ir.FuncID(fid))
			}
		}
		if len(funcs) > 0 {
			name = prog.Func(funcs[0]).Name
			if len(funcs) > 1 {
				name += fmt.Sprintf("+%d", len(funcs)-1)
			}
		}
		phases[pi].Funcs = funcs
		phases[pi].Name = name
	}

	// Traces inherit their function's phase (a trace never crosses
	// functions).
	tp := make([]int, len(set.Traces))
	for _, t := range set.Traces {
		tp[t.ID] = fp[t.Blocks[0].Func]
	}
	return &Phases{List: phases, FuncPhase: fp, TracePhase: tp}, nil
}

// contains reports whether loop a strictly contains loop b.
func contains(a, b *ir.NaturalLoop) bool {
	if a.Header == b.Header && a.Latch == b.Latch {
		return false
	}
	if !a.Contains(b.Header) {
		return false
	}
	for _, blk := range b.Blocks {
		if !a.Contains(blk) {
			return false
		}
	}
	return true
}

// expandCalls adds fid and everything it can call into out.
func expandCalls(prog *ir.Program, fid ir.FuncID, out map[ir.FuncID]bool) {
	if out[fid] {
		return
	}
	out[fid] = true
	for _, b := range prog.Func(fid).Blocks {
		if b.Term() == ir.TermCall {
			expandCalls(prog, b.CallTarget, out)
		}
	}
}

// Params configures the overlay allocator.
type Params struct {
	// SPMSize is the scratchpad capacity in bytes.
	SPMSize int
	// ESPHit, ECacheHit and ECacheMiss are the per-access energies (nJ),
	// exactly as in the static allocator.
	ESPHit     float64
	ECacheHit  float64
	ECacheMiss float64
	// CopySetupNJ is the fixed energy of starting one trace copy (DMA
	// programming), and CopyPerWordNJ the energy per copied 32-bit word
	// (one main-memory read plus one scratchpad write).
	CopySetupNJ   float64
	CopyPerWordNJ float64
	// Solver tunes the ILP solver.
	Solver ilp.Options
}

func (p Params) validate() error {
	if p.SPMSize < 0 {
		return fmt.Errorf("overlay: negative scratchpad size")
	}
	if p.ESPHit <= 0 || p.ECacheHit <= 0 || p.ECacheMiss <= p.ECacheHit {
		return fmt.Errorf("overlay: implausible energies")
	}
	if p.CopySetupNJ < 0 || p.CopyPerWordNJ < 0 {
		return fmt.Errorf("overlay: negative copy costs")
	}
	return nil
}

// CopyCost returns the modelled energy (nJ) of loading one trace of
// rawBytes into the scratchpad.
func (p Params) CopyCost(rawBytes int) float64 {
	words := float64((rawBytes + 3) / 4)
	return p.CopySetupNJ + p.CopyPerWordNJ*words
}

// Allocation is the overlay allocator's result.
type Allocation struct {
	// PhaseOf[i] is the phase whose image holds trace i (SharedPhase means
	// resident across all phases), or -2 when the trace stays cacheable.
	PhaseOf []int
	// UsedBytes[p] is the occupancy of phase p's image, including shared
	// residents.
	UsedBytes []int
	// SharedBytes is the capacity consumed by shared residents.
	SharedBytes int
	// CopyEnergyNJ is the total modelled reload energy.
	CopyEnergyNJ float64
	// PredictedEnergy is the model objective (fetch energy + copies, nJ).
	PredictedEnergy float64
	// Status and Nodes report solver outcome and effort.
	Status ilp.Status
	Nodes  int
}

// NotPlaced marks traces that stay in cacheable main memory.
const NotPlaced = -2

// InSPM returns the selection as a boolean vector.
func (a *Allocation) InSPM() []bool {
	out := make([]bool, len(a.PhaseOf))
	for i, p := range a.PhaseOf {
		out[i] = p != NotPlaced
	}
	return out
}

// Allocate solves the phased allocation problem.
func Allocate(set *trace.Set, g *conflict.Graph, ph *Phases, prm Params) (*Allocation, error) {
	if err := prm.validate(); err != nil {
		return nil, err
	}
	if g.N() != len(set.Traces) {
		return nil, fmt.Errorf("overlay: graph/trace mismatch")
	}
	if len(ph.TracePhase) != len(set.Traces) {
		return nil, fmt.Errorf("overlay: phase vector length mismatch")
	}

	m := ilp.NewModel()
	n := len(set.Traces)
	// l_i = 1 when trace i stays cacheable (matches the static CASA
	// convention, so the conflict terms carry over unchanged).
	l := make([]ilp.Var, n)
	for i, t := range set.Traces {
		v := m.AddBinary(fmt.Sprintf("l_%d", i))
		if t.RawBytes > prm.SPMSize {
			m.SetBounds(v, 1, 1)
		}
		m.SetBranchPriority(v, 1)
		l[i] = v
	}

	obj := ilp.LinExpr{}
	missDelta := prm.ECacheMiss - prm.ECacheHit
	for i, t := range set.Traces {
		f := float64(t.Fetches)
		// In SPM (l=0): f*E_SP + copy cost. Cached (l=1): f*E_hit + misses.
		spmSide := f*prm.ESPHit + prm.CopyCost(t.RawBytes)
		obj = obj.AddConst(spmSide)
		obj = obj.Add(f*prm.ECacheHit-spmSide, l[i])
	}
	for _, e := range g.Edges() {
		w := missDelta * float64(e.Misses)
		if e.From == e.To {
			obj = obj.Add(w, l[e.From])
			continue
		}
		L := m.AddContinuous(fmt.Sprintf("L_%d_%d", e.From, e.To), 0, 1)
		obj = obj.Add(w, L)
		m.AddConstraint("", ilp.Expr(1, l[e.From], 1, l[e.To], -1, L), ilp.LE, 1)
	}
	m.SetObjective(obj, ilp.Minimize)

	// Capacity per phase: phase-local selections plus shared residents.
	for p := range ph.List {
		capExpr := ilp.LinExpr{}
		total := 0
		for i, t := range set.Traces {
			tp := ph.TracePhase[i]
			if tp != p && tp != SharedPhase {
				continue
			}
			capExpr = capExpr.Add(-float64(t.RawBytes), l[i])
			total += t.RawBytes
		}
		capExpr = capExpr.AddConst(float64(total))
		m.AddConstraint(fmt.Sprintf("phase%d_capacity", p), capExpr, ilp.LE, float64(prm.SPMSize))
	}

	sol, err := ilp.Solve(context.Background(), m, prm.Solver)
	if err != nil {
		return nil, err
	}
	if sol.Status != ilp.Optimal && sol.Status != ilp.Feasible {
		return nil, fmt.Errorf("overlay: solver returned %v", sol.Status)
	}

	a := &Allocation{
		PhaseOf:   make([]int, n),
		UsedBytes: make([]int, ph.NumPhases()),
		Status:    sol.Status,
		Nodes:     sol.Nodes,
	}
	a.PredictedEnergy = sol.Objective
	for i, t := range set.Traces {
		if sol.Value(l[i]) > 0.5 {
			a.PhaseOf[i] = NotPlaced
			continue
		}
		tp := ph.TracePhase[i]
		a.PhaseOf[i] = tp
		a.CopyEnergyNJ += prm.CopyCost(t.RawBytes)
		if tp == SharedPhase {
			a.SharedBytes += t.RawBytes
		} else {
			a.UsedBytes[tp] += t.RawBytes
		}
	}
	for p := range a.UsedBytes {
		a.UsedBytes[p] += a.SharedBytes
		if a.UsedBytes[p] > prm.SPMSize {
			return nil, fmt.Errorf("overlay: internal error: phase %d over capacity", p)
		}
	}
	return a, nil
}

// LayoutPhases converts an Allocation into the per-trace phase vector
// layout.NewOverlay expects: shared residents become a synthetic image 0
// and phase k's locals become image k+1.
//
// Shared residents are co-live with every phase's locals, so their
// addresses may overlap a local trace's — which is harmless here: the
// simulated scratchpad is uniform-cost and content-insensitive (fetches
// are attributed by memory object, and scratchpad fetches never touch the
// address-sensitive I-cache), and the joint capacity constraint was
// already enforced exactly by the ILP. A real linker would reserve the
// shared region at the bottom of the scratchpad and relocate each phase's
// locals above it.
func LayoutPhases(set *trace.Set, a *Allocation, ph *Phases) (phase []int, numPhases int) {
	phase = make([]int, len(a.PhaseOf))
	for i, p := range a.PhaseOf {
		switch p {
		case NotPlaced:
			phase[i] = -1
		case SharedPhase:
			phase[i] = 0
		default:
			phase[i] = p + 1
		}
	}
	return phase, ph.NumPhases() + 1
}
