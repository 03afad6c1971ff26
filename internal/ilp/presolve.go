package ilp

import "math"

// Root presolve. Before any simplex runs, Solve shrinks the model with a
// fixpoint of safe reductions, none of which rewrites a row or the
// objective in terms of other columns:
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
//     L(x_i,x_j) once the fixed l's make their rows redundant).
//
// Every eliminated column is fixed at a value, so postsolve only writes
// those values back beside the reduced model's solution.

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
	// fixed holds every eliminated variable with its value.
	fixed []fixPost
	// rowsDropped / colsFixed count reductions for metrics.
	rowsDropped, colsFixed int
}

// needsSolve is a sentinel presolve status: the reduced model still has
// variables to optimize.
const needsSolve Status = -1

// fixPost is one eliminated variable and the value it was fixed at.
type fixPost struct {
	v   int
	val float64
}

// postsolve expands a reduced-space solution to the original variable
// space.
func (pr *presolveResult) postsolve(xRed []float64, n int) []float64 {
	x := make([]float64, n)
	for j, v := range pr.varOf {
		x[v] = xRed[j]
	}
	for _, f := range pr.fixed {
		x[f.v] = f.val
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
	// refs[j] lists the rows that referenced column j, with j's
	// coefficient there, in row order. Terms only ever leave rows, so
	// the alive rows in refs[j] are exactly the alive rows holding j
	// while j is alive.
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
	for i, r := range ps.rows {
		for _, t := range r.terms {
			ps.refs[t.Var] = append(ps.refs[t.Var], colRef{row: i, coef: t.Coef})
		}
	}

	ps.run()
	return &ps.res
}

func (ps *presolver) infeasible() { ps.res.status = Infeasible }

// fixVar eliminates column v at value val, folding it into the RHS of
// the alive rows that hold it.
func (ps *presolver) fixVar(v int, val float64) {
	ps.alive[v] = false
	ps.res.fixed = append(ps.res.fixed, fixPost{v: v, val: val})
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

	for j := range ps.alive {
		if !ps.alive[j] {
			continue
		}
		// Dual fixing: if decreasing x_j can never hurt feasibility and
		// never hurts the (minimization) objective, pin it to its lower
		// bound; symmetrically for increasing.
		downSafe, upSafe := true, true
		for _, ref := range ps.refs[j] {
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
		case ps.cost[j] <= 0 && upSafe && !math.IsInf(ps.hi[j], 1):
			ps.fixVar(j, ps.hi[j])
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
