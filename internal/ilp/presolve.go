package ilp

import (
	"math"
	"slices"
)

// Root presolve. Before any simplex runs, Solve shrinks the model with a
// fixpoint of safe reductions:
//
//   - fixed-variable substitution: variables with lo == hi are folded
//     into row RHS and the objective constant;
//   - redundant-row elimination: a row whose activity bounds (computed
//     from the variable bounds) already imply the relation is dropped; a
//     row whose activity bounds contradict it proves infeasibility;
//   - bound tightening: each row implies bounds on each of its variables
//     given the others' activity range; integer bounds are rounded
//     inward, and crossing bounds prove infeasibility;
//   - dual fixing: a variable whose objective coefficient and row
//     coefficients all pull in the same direction is fixed at the bound
//     the objective prefers (this is what fixes linearization variables
//     L(x_i,x_j) once the fixed l's make their rows redundant);
//   - column-singleton substitution: a continuous variable appearing in
//     exactly one equality row is eliminated; its bounds become a range
//     on the remaining terms and its objective contribution is
//     redistributed.
//
// Reductions are recorded on a postsolve stack so the solution of the
// reduced model can be mapped back to the original variable space.

// presolveResult is the outcome of presolving one model.
type presolveResult struct {
	// reduced is the shrunk model, nil when presolve solved or refuted
	// the instance outright.
	reduced *Model
	// varOf maps a reduced column to its original variable index.
	varOf []int
	// status is Optimal when every variable was eliminated (the instance
	// is solved by postsolve alone), Infeasible when a contradiction was
	// found, and needsSolve otherwise.
	status Status
	// actions replays eliminated variables in reverse order.
	actions []postAction
	// rowsDropped / colsFixed / colsSubst count reductions for metrics.
	rowsDropped, colsFixed, colsSubst int
}

// needsSolve is a sentinel presolve status: the reduced model still has
// variables to optimize.
const needsSolve Status = -1

// postAction reconstructs one eliminated variable in the original space.
type postAction interface{ apply(x []float64) }

// fixPost sets an eliminated variable to its fixed value.
type fixPost struct {
	v   int
	val float64
}

func (a fixPost) apply(x []float64) { x[a.v] = a.val }

// substPost reconstructs a column singleton eliminated from an equality
// row: x[v] = (rhs - Σ terms)/coef.
type substPost struct {
	v     int
	coef  float64
	rhs   float64
	terms []Term // original variable indices
}

func (a substPost) apply(x []float64) {
	s := a.rhs
	for _, t := range a.terms {
		s -= t.Coef * x[t.Var]
	}
	x[a.v] = s / a.coef
}

// postsolve expands a reduced-space solution to the original variable
// space.
func (pr *presolveResult) postsolve(xRed []float64, n int) []float64 {
	x := make([]float64, n)
	for j, v := range pr.varOf {
		x[v] = xRed[j]
	}
	// Reverse order: earlier actions may reference variables eliminated
	// later.
	for i := len(pr.actions) - 1; i >= 0; i-- {
		pr.actions[i].apply(x)
	}
	return x
}

// psRow is a mutable working row during presolve.
type psRow struct {
	terms []Term
	rel   Rel
	rhs   float64
	alive bool
}

// presolver carries the working state of one presolve run.
type presolver struct {
	m      *Model
	lo, hi []float64
	cost   []float64 // minimization-space objective coefficients
	kinds  []VarKind
	alive  []bool
	rows   []psRow
	// refs[j] lists the rows that have referenced column j, with j's
	// coefficient there, in row order. It is built once and extended
	// with every row singleton substitution appends; terms only ever
	// leave rows, so the alive rows in refs[j] are exactly the alive
	// rows holding j while j is alive.
	refs [][]colRef
	res  presolveResult
}

// presolve runs the reduction fixpoint on m and returns the reduced
// model plus the postsolve recipe. The input model is not modified.
func presolve(m *Model) *presolveResult {
	n := m.NumVars()
	ps := &presolver{
		m:     m,
		lo:    append([]float64(nil), m.lo...),
		hi:    append([]float64(nil), m.hi...),
		cost:  make([]float64, n),
		kinds: append([]VarKind(nil), m.kinds...),
		alive: make([]bool, n),
	}
	sign := 1.0
	if m.sense == Maximize {
		sign = -1
	}
	for _, t := range m.obj.Terms {
		ps.cost[t.Var] += sign * t.Coef
	}
	for i := range ps.alive {
		ps.alive[i] = true
	}
	ps.rows = make([]psRow, len(m.cons))
	for i, c := range m.cons {
		// Merge duplicate variable references so coefficient tests see
		// one net coefficient per column.
		merged := make(map[Var]float64, len(c.Expr.Terms))
		order := make([]Var, 0, len(c.Expr.Terms))
		for _, t := range c.Expr.Terms {
			if _, ok := merged[t.Var]; !ok {
				order = append(order, t.Var)
			}
			merged[t.Var] += t.Coef
		}
		terms := make([]Term, 0, len(order))
		for _, v := range order {
			if merged[v] != 0 {
				terms = append(terms, Term{Var: v, Coef: merged[v]})
			}
		}
		ps.rows[i] = psRow{terms: terms, rel: c.Rel, rhs: c.RHS - c.Expr.Const, alive: true}
	}
	ps.refs = make([][]colRef, n)
	for i := range ps.rows {
		ps.addRefs(i)
	}

	ps.run()
	return &ps.res
}

func (ps *presolver) infeasible() { ps.res.status = Infeasible }

// fixVar eliminates column v at value val, folding it into the RHS of
// the alive rows that hold it.
func (ps *presolver) fixVar(v int, val float64) {
	ps.alive[v] = false
	ps.res.actions = append(ps.res.actions, fixPost{v: v, val: val})
	ps.res.colsFixed++
	for _, ref := range ps.refs[v] {
		r := &ps.rows[ref.row]
		if !r.alive {
			continue
		}
		for k, t := range r.terms {
			if int(t.Var) == v {
				if val != 0 {
					r.rhs -= t.Coef * val
				}
				r.terms = append(r.terms[:k], r.terms[k+1:]...)
				break
			}
		}
	}
}

// activity returns the min/max of Σ terms over the current bounds,
// excluding column skip (pass -1 to include everything).
func (ps *presolver) activity(terms []Term, skip int) (lo, hi float64) {
	for _, t := range terms {
		j := int(t.Var)
		if j == skip {
			continue
		}
		if t.Coef > 0 {
			lo += t.Coef * ps.lo[j]
			hi += t.Coef * ps.hi[j]
		} else {
			lo += t.Coef * ps.hi[j]
			hi += t.Coef * ps.lo[j]
		}
	}
	return lo, hi
}

// tightenBound applies a derived bound to column j, rounding integer
// bounds inward. Reports whether anything changed; flags infeasibility.
func (ps *presolver) tightenBound(j int, newLo, newHi float64, haveLo, haveHi bool) bool {
	changed := false
	if haveLo && newLo > ps.lo[j]+defaultTol {
		if ps.kinds[j] != Continuous {
			newLo = math.Ceil(newLo - 1e-7)
		}
		if newLo > ps.lo[j]+defaultTol {
			ps.lo[j] = newLo
			changed = true
		}
	}
	if haveHi && newHi < ps.hi[j]-defaultTol {
		if ps.kinds[j] != Continuous {
			newHi = math.Floor(newHi + 1e-7)
		}
		if newHi < ps.hi[j]-defaultTol {
			ps.hi[j] = newHi
			changed = true
		}
	}
	if ps.lo[j] > ps.hi[j]+feasTol {
		ps.infeasible()
	}
	return changed
}

// pass runs one sweep of all reductions; reports whether anything
// changed.
func (ps *presolver) pass() bool {
	changed := false

	// Fixed variables: lo == hi (within tolerance).
	for j := range ps.alive {
		if !ps.alive[j] {
			continue
		}
		if ps.hi[j]-ps.lo[j] < defaultTol {
			val := ps.lo[j]
			if ps.kinds[j] != Continuous {
				val = math.Round(val)
			}
			ps.fixVar(j, val)
			changed = true
		}
	}
	if ps.res.status == Infeasible {
		return false
	}

	// Row reductions: redundancy, infeasibility, bound tightening.
	for i := range ps.rows {
		r := &ps.rows[i]
		if !r.alive {
			continue
		}
		actLo, actHi := ps.activity(r.terms, -1)
		switch r.rel {
		case LE:
			if actLo > r.rhs+feasTol {
				ps.infeasible()
				return false
			}
			if actHi <= r.rhs+defaultTol {
				r.alive = false
				ps.res.rowsDropped++
				changed = true
				continue
			}
		case GE:
			if actHi < r.rhs-feasTol {
				ps.infeasible()
				return false
			}
			if actLo >= r.rhs-defaultTol {
				r.alive = false
				ps.res.rowsDropped++
				changed = true
				continue
			}
		case EQ:
			if actLo > r.rhs+feasTol || actHi < r.rhs-feasTol {
				ps.infeasible()
				return false
			}
			if actHi-actLo < defaultTol && math.Abs(actLo-r.rhs) <= feasTol {
				r.alive = false
				ps.res.rowsDropped++
				changed = true
				continue
			}
		}
		if len(r.terms) == 0 {
			// Empty but not yet classified redundant/infeasible above:
			// activity is exactly 0-0, so the switch handled it.
			r.alive = false
			ps.res.rowsDropped++
			changed = true
			continue
		}
		// Bound tightening: row implies a bound on each variable given
		// the others' activity range.
		for _, t := range r.terms {
			j := int(t.Var)
			restLo, restHi := ps.activity(r.terms, j)
			// a*x + rest REL rhs.
			if r.rel == LE || r.rel == EQ {
				// a*x <= rhs - restLo
				if !math.IsInf(restLo, -1) {
					lim := (r.rhs - restLo) / t.Coef
					if t.Coef > 0 {
						changed = ps.tightenBound(j, 0, lim, false, true) || changed
					} else {
						changed = ps.tightenBound(j, lim, 0, true, false) || changed
					}
				}
			}
			if r.rel == GE || r.rel == EQ {
				// a*x >= rhs - restHi
				if !math.IsInf(restHi, 1) {
					lim := (r.rhs - restHi) / t.Coef
					if t.Coef > 0 {
						changed = ps.tightenBound(j, lim, 0, true, false) || changed
					} else {
						changed = ps.tightenBound(j, 0, lim, false, true) || changed
					}
				}
			}
			if ps.res.status == Infeasible {
				return false
			}
		}
	}

	// Drop the dead rows from the column lists, so each column reads
	// only its own alive rows. The counts nrefs are taken now, when
	// refs[j][0] is j's first row; rows that singleton substitution
	// appends below join the lists but not the counts.
	refs := ps.refs
	nrefs := make([]int, len(refs))
	for j := range refs {
		refs[j] = slices.DeleteFunc(refs[j], func(c colRef) bool { return !ps.rows[c.row].alive })
		nrefs[j] = len(refs[j])
	}

	for j := range ps.alive {
		if !ps.alive[j] {
			continue
		}
		// Dual fixing: if decreasing x_j can never hurt feasibility and
		// never hurts the (minimization) objective, pin it to its lower
		// bound; symmetrically for increasing.
		downSafe, upSafe := true, true
		for _, ref := range refs[j] {
			r := &ps.rows[ref.row]
			if !r.alive {
				continue
			}
			if r.rel == EQ {
				downSafe, upSafe = false, false
				break
			}
			// LE row: decreasing a*x is safe; GE row: increasing is.
			if (r.rel == LE) == (ref.coef > 0) {
				upSafe = false
			} else {
				downSafe = false
			}
		}
		switch {
		case ps.cost[j] >= 0 && downSafe && !math.IsInf(ps.lo[j], -1):
			ps.fixVar(j, ps.lo[j])
			changed = true
			continue
		case ps.cost[j] <= 0 && upSafe && !math.IsInf(ps.hi[j], 1):
			ps.fixVar(j, ps.hi[j])
			changed = true
			continue
		case nrefs[j] == 0:
			// Unconstrained column the objective pulls toward an
			// infinite bound: the reduced LP would be unbounded; leave
			// the column for the solver to diagnose.
			continue
		}

		// Column-singleton substitution: a continuous variable whose only
		// appearance is one equality row. The row must still be alive: a
		// substitution earlier in this sweep may have consumed it (two
		// singletons of one row), and the rows it left hold j instead.
		if nrefs[j] == 1 && ps.kinds[j] == Continuous {
			r := &ps.rows[refs[j][0].row]
			if r.rel != EQ || !r.alive {
				continue
			}
			var coef float64
			rest := make([]Term, 0, len(r.terms)-1)
			for _, t := range r.terms {
				if int(t.Var) == j {
					coef = t.Coef
				} else {
					rest = append(rest, t)
				}
			}
			if math.Abs(coef) < 1e-7 {
				continue
			}
			if len(rest) == 0 {
				// The row pins x_j = rhs/coef outright.
				val := r.rhs / coef
				if val < ps.lo[j]-feasTol || val > ps.hi[j]+feasTol {
					ps.infeasible()
					return false
				}
				ps.lo[j], ps.hi[j] = val, val
				r.alive = false
				ps.res.rowsDropped++
				changed = true
				continue
			}
			// x_j = (rhs - rest)/coef; x_j ∈ [lo, hi] becomes a range on
			// rest: rest ∈ [rhs - coef*hi, rhs - coef*lo] for coef > 0.
			ps.res.actions = append(ps.res.actions,
				substPost{v: j, coef: coef, rhs: r.rhs, terms: append([]Term(nil), rest...)})
			ps.res.colsSubst++
			lim1, lim2 := r.rhs-coef*ps.hi[j], r.rhs-coef*ps.lo[j]
			if coef < 0 {
				lim1, lim2 = lim2, lim1
			}
			r.alive = false
			if !math.IsInf(lim1, -1) {
				ps.rows = append(ps.rows, psRow{terms: append([]Term(nil), rest...), rel: GE, rhs: lim1, alive: true})
				ps.addRefs(len(ps.rows) - 1)
			}
			if !math.IsInf(lim2, 1) {
				ps.rows = append(ps.rows, psRow{terms: append([]Term(nil), rest...), rel: LE, rhs: lim2, alive: true})
				ps.addRefs(len(ps.rows) - 1)
			}
			// Objective: cost_j*x_j = cost_j*(rhs - rest)/coef.
			if c := ps.cost[j]; c != 0 {
				for _, t := range rest {
					ps.cost[t.Var] -= c * t.Coef / coef
				}
			}
			ps.alive[j] = false
			changed = true
		}
	}
	return changed
}

// colRef is one entry of a column's row list: the row and the column's
// coefficient in it.
type colRef struct {
	row  int
	coef float64
}

// addRefs appends row i to the row list of each column it references.
func (ps *presolver) addRefs(i int) {
	for _, t := range ps.rows[i].terms {
		ps.refs[t.Var] = append(ps.refs[t.Var], colRef{row: i, coef: t.Coef})
	}
}

func (ps *presolver) run() {
	ps.res.status = needsSolve
	const maxPasses = 16
	for p := 0; p < maxPasses; p++ {
		if !ps.pass() || ps.res.status == Infeasible {
			break
		}
	}
	if ps.res.status == Infeasible {
		return
	}

	// Assemble the reduced model.
	n := len(ps.alive)
	colOf := make([]int, n)
	red := NewModel()
	for j := 0; j < n; j++ {
		colOf[j] = -1
		if !ps.alive[j] {
			continue
		}
		v := red.AddVar(ps.m.names[j], ps.kinds[j], ps.lo[j], ps.hi[j])
		red.SetBranchPriority(v, ps.m.prio[j])
		colOf[j] = int(v)
		ps.res.varOf = append(ps.res.varOf, j)
	}
	if red.NumVars() == 0 {
		// Every variable was eliminated; any alive row is now empty and
		// must hold at zero activity (a pass-cap safety net — the sweeps
		// normally classify these).
		for i := range ps.rows {
			r := &ps.rows[i]
			if !r.alive {
				continue
			}
			bad := (r.rel == LE && 0 > r.rhs+feasTol) ||
				(r.rel == GE && 0 < r.rhs-feasTol) ||
				(r.rel == EQ && math.Abs(r.rhs) > feasTol)
			if bad {
				ps.res.status = Infeasible
				return
			}
		}
		ps.res.status = Optimal
		return
	}
	for i := range ps.rows {
		r := &ps.rows[i]
		if !r.alive {
			continue
		}
		e := LinExpr{}
		for _, t := range r.terms {
			e = e.Add(t.Coef, Var(colOf[t.Var]))
		}
		red.AddConstraint("", e, r.rel, r.rhs)
	}
	// Objective in minimization space; Solve evaluates the original
	// objective on the postsolved point, so the constant term is
	// irrelevant here.
	obj := LinExpr{}
	for j := 0; j < n; j++ {
		if ps.alive[j] && ps.cost[j] != 0 {
			obj = obj.Add(ps.cost[j], Var(colOf[j]))
		}
	}
	red.SetObjective(obj, Minimize)
	ps.res.reduced = red
}
