package ilp

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
)

// Cross-cell hot starts. A solved cell leaves behind two kinds of
// reusable solver state beyond its incumbent value (the cutoff of
// incremental.go):
//
//   - its final simplex basis: for a neighboring model that shares
//     variable and row structure, the donor basis is a far better
//     starting point than the all-slack crash basis — reduced costs are
//     independent of the right-hand side, so an optimal basis of the
//     donor is exactly dual feasible for a sibling that differs only in
//     RHS, and near-feasible for one that differs in a few rows;
//   - its branching statistics: per-variable pseudocosts (average
//     objective gain per unit of fractionality, up and down) observed in
//     the donor's branch & bound tree, which seed the recipient's
//     variable selection so the first branchings are informed instead of
//     blind.
//
// Both travel in a HotStart, keyed by variable and constraint NAMES in
// the original model space (presolve preserves variable names and
// records row origins, so reduced-space state maps back out). Name
// keying is what makes transfer robust across neighboring cells whose
// models overlap without being identical: shared columns map, missing
// ones fall back to slacks, extra ones are ignored.
//
// Exactness: a transferred basis only changes the simplex's starting
// point, never its termination conditions — installBasis (factor.go)
// either establishes a fully dual-feasible basis or resets to the cold
// crash basis, and the dual simplex then converges to an optimum of the
// same LP either way. Pseudocost seeding only reorders branching;
// reduced-cost fixing (solve.go) only fixes variables that provably
// cannot move in ANY optimal solution given a known-feasible cutoff.
//
// Counters: casa_ilp_basis_reuse_total fires when a donor basis is
// successfully installed; casa_ilp_basis_repair_pivots_total accumulates
// the dual-repair pivots those installs needed;
// casa_ilp_pseudocost_transfers_total fires when donor pseudocosts seed
// a solve; casa_ilp_rhs_grown_rejects_total counts session RHS patches
// rejected because the capacity grew (incremental.go).

var (
	mBasisReuse     = obs.GetCounter("casa_ilp_basis_reuse_total")
	mBasisRepair    = obs.GetCounter("casa_ilp_basis_repair_pivots_total")
	mPseudoTransfer = obs.GetCounter("casa_ilp_pseudocost_transfers_total")
	mRCFixed        = obs.GetCounter("casa_ilp_reduced_cost_fixed_total")
)

// PCStat is one side of a variable's pseudocost: the summed per-unit
// objective gain over N branching observations.
type PCStat struct {
	Sum float64
	N   int
}

// Pseudocosts holds per-variable branching statistics by variable name:
// the average objective degradation per unit of fractionality when
// branching the variable up (toward its ceiling) or down.
type Pseudocosts struct {
	Up   map[string]PCStat
	Down map[string]PCStat
}

// BasisSnapshot is a simplex basis in name space: which structural
// columns are basic, which rows have their slack basic, and which
// nonbasic structural columns rest at their upper bound. Nonbasic slack
// placement is not recorded — a slack's finite bound is forced by its
// row relation.
type BasisSnapshot struct {
	BasicVars []string
	BasicRows []string
	AtUpper   map[string]bool
}

// HotStart is the transferable solver state of a completed solve.
// Solve returns one on proven-optimal results solved by the factored
// engine (Solution.HotStart) and accepts one in Options.HotStart.
type HotStart struct {
	Basis  *BasisSnapshot
	Pseudo *Pseudocosts
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

// buildHotStart snapshots the engine's final basis plus the run's
// pseudocost arrays into original name space. w is the (possibly
// reduced) model the engine ran on; pr maps its rows back to orig.
func buildHotStart(f *fsx, w *Model, pr *presolveResult, orig *Model, pc *pcTable) *HotStart {
	snap := &BasisSnapshot{AtUpper: make(map[string]bool)}
	for _, bj := range f.basis {
		if bj < f.n {
			snap.BasicVars = append(snap.BasicVars, w.names[bj])
		} else if name := rowNameOf(bj-f.n, pr, orig); name != "" {
			snap.BasicRows = append(snap.BasicRows, name)
		}
	}
	for j := 0; j < f.n; j++ {
		if f.status[j] == nbUpper {
			snap.AtUpper[w.names[j]] = true
		}
	}
	hs := &HotStart{Basis: snap}
	if pc != nil && pc.observed {
		ps := &Pseudocosts{Up: make(map[string]PCStat), Down: make(map[string]PCStat)}
		for j := range pc.up {
			if pc.up[j].N > 0 {
				ps.Up[w.names[j]] = pc.up[j]
			}
			if pc.down[j].N > 0 {
				ps.Down[w.names[j]] = pc.down[j]
			}
		}
		hs.Pseudo = ps
	}
	return hs
}

// mapHotBasis translates a donor basis snapshot into engine index space
// for w: basic[i] is the column occupying basis position i (structural
// index, or n+row for a slack), atUpper the nonbasic structural
// placements. Donor entries that name no column or row of w are
// dropped; rows of w the donor does not cover get their own slack, the
// always-valid filler. Reports ok=false only when the donor claims more
// basic columns than w has rows — a structural mismatch no repair pass
// fixes cheaply.
func mapHotBasis(snap *BasisSnapshot, w *Model, pr *presolveResult, orig *Model) (basic []int, atUpper []bool, ok bool) {
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
	for _, name := range snap.BasicVars {
		if j, found := colOf[name]; found && !inBasis[j] {
			inBasis[j] = true
			count++
		}
	}
	for _, name := range snap.BasicRows {
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
		if snap.AtUpper[name] && !math.IsInf(w.hi[j], 1) {
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
	up, down []PCStat
	observed bool // at least one local observation or transferred stat
}

func newPCTable(n int) *pcTable {
	return &pcTable{up: make([]PCStat, n), down: make([]PCStat, n)}
}

// seed installs transferred donor statistics by variable name.
// Reports whether anything was seeded.
func (t *pcTable) seed(ps *Pseudocosts, w *Model) bool {
	if ps == nil {
		return false
	}
	seeded := false
	for j, name := range w.names {
		if st, found := ps.Up[name]; found && st.N > 0 {
			t.up[j] = st
			seeded = true
		}
		if st, found := ps.Down[name]; found && st.N > 0 {
			t.down[j] = st
			seeded = true
		}
	}
	if seeded {
		t.observed = true
	}
	return seeded
}

// observe records one branching outcome: branching variable j with
// fractional part frac gained gain objective units in the up (ceil) or
// down (floor) child.
func (t *pcTable) observe(j int, frac float64, up bool, gain float64) {
	if gain < 0 {
		gain = 0
	}
	if up {
		t.up[j].Sum += gain / (1 - frac)
		t.up[j].N++
	} else {
		t.down[j].Sum += gain / frac
		t.down[j].N++
	}
	t.observed = true
}

// score rates branching on variable j at fractional part frac with the
// standard pseudocost product rule. Variables without observations use
// the table-wide average; with an empty table both sides average to 1
// and the score degenerates to frac·(1−frac) — exactly the
// most-fractional order (both are monotone in the distance to the
// nearest integer, with identical ties).
func (t *pcTable) score(j int, frac float64) float64 {
	avg := func(stats []PCStat, st PCStat) float64 {
		if st.N > 0 {
			return st.Sum / float64(st.N)
		}
		sum, n := 0.0, 0
		for _, s := range stats {
			if s.N > 0 {
				sum += s.Sum / float64(s.N)
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
