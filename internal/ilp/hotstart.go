package ilp

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
)

// Cross-cell hot starts. Beyond its incumbent value (the cutoff of
// Options.Cutoff), a solved cell leaves behind its final simplex basis.
// For a neighboring model that shares variable and row structure, the
// donor basis is a far better starting point than the all-slack crash
// basis: reduced costs are independent of the right-hand side, so an
// optimal basis of the donor is exactly dual feasible for a sibling
// that differs only in RHS, and near-feasible for one that differs in a
// few rows.
//
// The basis travels in a HotStart, keyed by variable and constraint
// NAMES in the original model space (presolve preserves variable names
// and records row origins, so reduced-space state maps back out). Name
// keying is what makes transfer robust across neighboring cells whose
// models overlap without being identical: shared columns map, missing
// ones fall back to slacks, extra ones are ignored.
//
// Exactness: a transferred basis only changes the simplex's starting
// point, never its termination conditions — installBasis (factor.go)
// either establishes a fully dual-feasible basis or resets to the cold
// crash basis, and the dual simplex then converges to an optimum of the
// same LP either way. Reduced-cost fixing (solve.go) only fixes
// variables that provably cannot move in ANY optimal solution given a
// known-feasible cutoff.
//
// Counters: casa_ilp_basis_reuse_total fires when a donor basis is
// successfully installed; casa_ilp_basis_repair_pivots_total accumulates
// the dual-repair pivots those installs needed.

var (
	mBasisReuse  = obs.GetCounter("casa_ilp_basis_reuse_total")
	mBasisRepair = obs.GetCounter("casa_ilp_basis_repair_pivots_total")
	mRCFixed     = obs.GetCounter("casa_ilp_reduced_cost_fixed_total")
)

// pcStat is one side of a variable's pseudocost: the summed per-unit
// objective gain over n branching observations.
type pcStat struct {
	sum float64
	n   int
}

// HotStart is a completed solve's final simplex basis in name space:
// which structural columns are basic, which rows have their slack
// basic, and which nonbasic structural columns rest at their upper
// bound. Nonbasic slack placement is not recorded — a slack's finite
// bound is forced by its row relation. Solve returns one on
// proven-optimal results solved by the factored engine
// (Solution.HotStart) and accepts one in Options.HotStart.
type HotStart struct {
	BasicVars []string
	BasicRows []string
	AtUpper   map[string]bool
}

// rowNameOf returns the original-space name of reduced row i, or ""
// for rows synthesized by presolve substitution (those cannot map
// across models).
func rowNameOf(i int, pr *presolveResult, orig *Model) string {
	if pr == nil {
		return orig.cons[i].Name
	}
	oi := pr.rowOrig[i]
	if oi < 0 {
		return ""
	}
	return orig.cons[oi].Name
}

// buildHotStart snapshots the engine's final basis into original name
// space. w is the (possibly reduced) model the engine ran on; pr maps
// its rows back to orig.
func buildHotStart(f *fsx, w *Model, pr *presolveResult, orig *Model) *HotStart {
	hs := &HotStart{AtUpper: make(map[string]bool)}
	for _, bj := range f.basis {
		if bj < f.n {
			hs.BasicVars = append(hs.BasicVars, w.names[bj])
		} else if name := rowNameOf(bj-f.n, pr, orig); name != "" {
			hs.BasicRows = append(hs.BasicRows, name)
		}
	}
	for j := 0; j < f.n; j++ {
		if f.status[j] == nbUpper {
			hs.AtUpper[w.names[j]] = true
		}
	}
	return hs
}

// mapHotBasis translates a donor basis into engine index space
// for w: basic[i] is the column occupying basis position i (structural
// index, or n+row for a slack), atUpper the nonbasic structural
// placements. Donor entries that name no column or row of w are
// dropped; rows of w the donor does not cover get their own slack, the
// always-valid filler. Reports ok=false only when the donor claims more
// basic columns than w has rows — a structural mismatch no repair pass
// fixes cheaply.
func mapHotBasis(hs *HotStart, w *Model, pr *presolveResult, orig *Model) (basic []int, atUpper []bool, ok bool) {
	n, m := w.NumVars(), len(w.cons)
	colOf := make(map[string]int, n)
	for j, name := range w.names {
		colOf[name] = j
	}
	rowOf := make(map[string]int, m)
	for i := range w.cons {
		if name := rowNameOf(i, pr, orig); name != "" {
			rowOf[name] = i
		}
	}
	inBasis := make([]bool, n+m)
	count := 0
	for _, name := range hs.BasicVars {
		if j, found := colOf[name]; found && !inBasis[j] {
			inBasis[j] = true
			count++
		}
	}
	for _, name := range hs.BasicRows {
		if i, found := rowOf[name]; found && !inBasis[n+i] {
			inBasis[n+i] = true
			count++
		}
	}
	if count > m {
		return nil, nil, false
	}
	// Fill uncovered positions with slacks of rows whose slack is not yet
	// basic, in row order (deterministic).
	for i := 0; i < m && count < m; i++ {
		if !inBasis[n+i] {
			inBasis[n+i] = true
			count++
		}
	}
	if count != m {
		return nil, nil, false
	}
	basic = make([]int, 0, m)
	for j := 0; j < n+m; j++ {
		if inBasis[j] {
			basic = append(basic, j)
		}
	}
	atUpper = make([]bool, n)
	for j := 0; j < n; j++ {
		if inBasis[j] {
			continue
		}
		name := w.names[j]
		if hs.AtUpper[name] && !math.IsInf(w.hi[j], 1) {
			atUpper[j] = true
		}
	}
	return basic, atUpper, true
}

// BasisInfo describes the factored dual simplex's final basis for one
// model's LP relaxation: the basic-column partition (structural vs
// slack) and the factorization shape (peeled triangle, dense bump,
// eta-file depth). cmd/dump renders it for offline debugging of basis
// transfer mismatches.
type BasisInfo struct {
	// Status is the LP relaxation's outcome.
	Status Status
	// Vars and Rows are the model dimensions.
	Vars, Rows int
	// BasicStructural and BasicSlacks partition the basis.
	BasicStructural, BasicSlacks int
	// Peeled is the number of singleton columns the block-triangular
	// factorization peeled; BumpK the dense bump dimension; EtaDepth the
	// product-form eta count accumulated since the last refactorization.
	Peeled, BumpK, EtaDepth int
	// Iters is the simplex pivot count of the analysis solve.
	Iters int
	// BasicVars lists the basic structural columns by name, sorted.
	BasicVars []string
}

// AnalyzeBasis solves m's LP relaxation on the factored dual simplex
// engine and reports the final basis partition and factorization shape.
// The model is solved cold (no presolve, no hot start) so the report
// describes the formulation itself, not a particular transfer.
func AnalyzeBasis(m *Model, opt Options) (*BasisInfo, error) {
	opt = opt.withDefaults()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	f := newFSX(m, opt.Tol)
	if f == nil {
		return nil, fmt.Errorf("ilp: model admits no dual-feasible crash basis")
	}
	st := f.solve(2000 + 50*(f.n+f.m))
	info := &BasisInfo{Status: st, Vars: f.n, Rows: f.m, Iters: f.iters}
	info.Peeled, info.BumpK, info.EtaDepth = len(f.peelPos), f.k, len(f.etas)
	for _, bj := range f.basis {
		if bj < f.n {
			info.BasicStructural++
			info.BasicVars = append(info.BasicVars, m.names[bj])
		} else {
			info.BasicSlacks++
		}
	}
	sort.Strings(info.BasicVars)
	return info, nil
}

// pcTable is the run-local pseudocost store over w's variables.
type pcTable struct {
	up, down []pcStat
}

func newPCTable(n int) *pcTable {
	return &pcTable{up: make([]pcStat, n), down: make([]pcStat, n)}
}

// observe records one branching outcome: branching variable j with
// fractional part frac gained gain objective units in the up (ceil) or
// down (floor) child.
func (t *pcTable) observe(j int, frac float64, up bool, gain float64) {
	if gain < 0 {
		gain = 0
	}
	if up {
		t.up[j].sum += gain / (1 - frac)
		t.up[j].n++
	} else {
		t.down[j].sum += gain / frac
		t.down[j].n++
	}
}

// score rates branching on variable j at fractional part frac with the
// standard pseudocost product rule. Variables without observations use
// the table-wide average; with an empty table both sides average to 1
// and the score degenerates to frac·(1−frac) — exactly the
// most-fractional order (both are monotone in the distance to the
// nearest integer, with identical ties).
func (t *pcTable) score(j int, frac float64) float64 {
	avg := func(stats []pcStat, st pcStat) float64 {
		if st.n > 0 {
			return st.sum / float64(st.n)
		}
		sum, n := 0.0, 0
		for _, s := range stats {
			if s.n > 0 {
				sum += s.sum / float64(s.n)
				n++
			}
		}
		if n > 0 {
			return sum / float64(n)
		}
		return 1
	}
	down := avg(t.down, t.down[j]) * frac
	up := avg(t.up, t.up[j]) * (1 - frac)
	return math.Max(down, 1e-12) * math.Max(up, 1e-12)
}
