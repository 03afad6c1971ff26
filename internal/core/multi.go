package core

import (
	"context"
	"fmt"

	"repro/internal/conflict"
	"repro/internal/ilp"
	"repro/internal/trace"
)

// SPMSpec describes one scratchpad in a multi-scratchpad hierarchy: its
// capacity and per-access energy.
type SPMSpec struct {
	// Size is the capacity in bytes.
	Size int
	// ESPHit is the energy per access (nJ).
	ESPHit float64
}

// MultiParams configures the paper's §4 extension: several scratchpads at
// the same horizontal level of the hierarchy. The capacity inequality
// (17) is repeated per scratchpad and a new constraint ensures a memory
// object is assigned to at most one of them.
type MultiParams struct {
	// SPMs lists the scratchpads.
	SPMs []SPMSpec
	// ECacheHit and ECacheMiss are the I-cache energies (nJ).
	ECacheHit  float64
	ECacheMiss float64
	// Solver tunes the ILP solver.
	Solver ilp.Options
}

func (p MultiParams) validate() error {
	if len(p.SPMs) == 0 {
		return fmt.Errorf("core: no scratchpads specified")
	}
	for i, s := range p.SPMs {
		if s.Size < 0 || s.ESPHit <= 0 {
			return fmt.Errorf("core: scratchpad %d invalid (%d bytes, %g nJ)", i, s.Size, s.ESPHit)
		}
	}
	if p.ECacheHit <= 0 || p.ECacheMiss <= p.ECacheHit {
		return fmt.Errorf("core: cache energies invalid (hit=%g miss=%g)",
			p.ECacheHit, p.ECacheMiss)
	}
	return nil
}

// MultiAllocation assigns each trace to a scratchpad or leaves it cached.
type MultiAllocation struct {
	// Assign[i] is the scratchpad index of trace i, or -1 for main memory.
	Assign []int
	// UsedBytes[k] is the space consumed in scratchpad k.
	UsedBytes []int
	// PredictedEnergy is E_Total (nJ) under the model.
	PredictedEnergy float64
	// Status is the solver status.
	Status ilp.Status
	// Nodes reports solver effort.
	Nodes int
}

// AllocateMulti solves the multi-scratchpad variant: binary assignment
// variables a_ik select scratchpad k for trace i; l_i = 1 − Σ_k a_ik is
// the cached-location indicator; the conflict term is linearized as in the
// single-scratchpad tight formulation.
func AllocateMulti(set *trace.Set, g *conflict.Graph, p MultiParams) (*MultiAllocation, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if g.N() != len(set.Traces) {
		return nil, fmt.Errorf("core: graph has %d vertices, trace set has %d",
			g.N(), len(set.Traces))
	}

	m := ilp.NewModel()
	n := len(set.Traces)
	k := len(p.SPMs)

	// a[i][s]: trace i lives in scratchpad s.
	a := make([][]ilp.Var, n)
	// l[i]: trace i executes from cached main memory. Continuous; its
	// integrality follows from the equality with the binary a's.
	l := make([]ilp.Var, n)
	for i, t := range set.Traces {
		a[i] = make([]ilp.Var, k)
		assignExpr := ilp.LinExpr{}
		for s := range p.SPMs {
			v := m.AddBinary(fmt.Sprintf("a_%d_%d", i, s))
			if t.RawBytes > p.SPMs[s].Size {
				m.SetBounds(v, 0, 0)
			}
			a[i][s] = v
			assignExpr = assignExpr.Add(1, v)
		}
		l[i] = m.AddContinuous(fmt.Sprintf("l_%d", i), 0, 1)
		// l_i + Σ_s a_is = 1 (also enforces "at most one scratchpad").
		m.AddConstraint(fmt.Sprintf("loc_%d", i), assignExpr.Add(1, l[i]), ilp.EQ, 1)
	}

	obj := ilp.LinExpr{}
	missDelta := p.ECacheMiss - p.ECacheHit
	for i, t := range set.Traces {
		f := float64(t.Fetches)
		obj = obj.Add(f*p.ECacheHit, l[i])
		for s := range p.SPMs {
			obj = obj.Add(f*p.SPMs[s].ESPHit, a[i][s])
		}
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

	// Capacity per scratchpad: Σ_i a_is·S(x_i) ≤ Size_s.
	for s := range p.SPMs {
		cap := ilp.LinExpr{}
		for i, t := range set.Traces {
			cap = cap.Add(float64(t.RawBytes), a[i][s])
		}
		m.AddConstraint(fmt.Sprintf("spm%d_capacity", s), cap, ilp.LE, float64(p.SPMs[s].Size))
	}

	sol, err := ilp.Solve(context.Background(), m, p.Solver)
	if err != nil {
		return nil, err
	}
	if sol.Status != ilp.Optimal && sol.Status != ilp.Feasible {
		return nil, fmt.Errorf("core: multi-SPM solver returned %v", sol.Status)
	}
	out := &MultiAllocation{
		Assign:          make([]int, n),
		UsedBytes:       make([]int, k),
		PredictedEnergy: sol.Objective,
		Status:          sol.Status,
		Nodes:           sol.Nodes,
	}
	for i := range set.Traces {
		out.Assign[i] = -1
		for s := range p.SPMs {
			if sol.Value(a[i][s]) > 0.5 {
				out.Assign[i] = s
				out.UsedBytes[s] += set.Traces[i].RawBytes
				break
			}
		}
	}
	for s, used := range out.UsedBytes {
		if used > p.SPMs[s].Size {
			return nil, fmt.Errorf("core: internal error: scratchpad %d over capacity (%d/%d)",
				s, used, p.SPMs[s].Size)
		}
	}
	return out, nil
}
