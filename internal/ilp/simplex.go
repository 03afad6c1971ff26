package ilp

import (
	"math"
)

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means a provably optimal solution was found.
	Optimal Status = iota
	// Infeasible means no assignment satisfies the constraints.
	Infeasible
	// Unbounded means the objective can improve without limit.
	Unbounded
	// Feasible means a feasible (integer) solution was found but the node
	// or iteration limit stopped the proof of optimality.
	Feasible
	// Aborted means a limit was hit before any feasible solution was
	// found.
	Aborted

	// stObjLimit (unexported) means the engine proved the relaxation
	// objective exceeds the caller-installed limit and stopped early; the
	// node is pruned without finishing the LP. Only the incremental
	// engine (factor.go) returns it.
	stObjLimit
)

var statusNames = [...]string{
	Optimal:    "optimal",
	Infeasible: "infeasible",
	Unbounded:  "unbounded",
	Feasible:   "feasible",
	Aborted:    "aborted",
	stObjLimit: "obj-limit",
}

// String returns the status name.
func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return "status?"
}

// lpOutcome is the result of one LP relaxation solve.
type lpOutcome struct {
	status Status
	x      []float64 // values in the original variable space
	obj    float64   // objective in the original (signed) sense
	iters  int
}

const (
	// defaultTol is the numerical tolerance of presolve and both simplex
	// engines. It also scales the incumbent-pruning tolerance, which is
	// relative to the incumbent objective's magnitude.
	defaultTol = 1e-9
	feasTol    = 1e-7
	// intTol is the integrality tolerance of branch & bound.
	intTol = 1e-6
)

// varMap describes how an original variable maps into simplex columns.
type varMap struct {
	posCol int     // column of the (shifted) positive part
	negCol int     // column of the negative part for free variables, or -1
	shift  float64 // x = y_pos - y_neg + shift
}

// solveLP solves the continuous relaxation of m with the bounds lo/hi
// (overriding the model's) using a dense two-phase primal simplex with
// implicit (bounded-variable) upper-bound handling: upper bounds never
// become tableau rows; nonbasic variables may sit at either bound and
// "bound flips" move them without pivoting. The returned objective
// respects the model's sense.
func solveLP(m *Model, lo, hi []float64) lpOutcome {
	n := m.NumVars()

	// Column layout: structural columns first. Lower bounds shift to 0;
	// free variables split into positive and negative parts.
	maps := make([]varMap, n)
	structCols := 0
	for j := 0; j < n; j++ {
		if math.IsInf(lo[j], -1) {
			maps[j] = varMap{posCol: structCols, negCol: structCols + 1}
			structCols += 2
		} else {
			maps[j] = varMap{posCol: structCols, negCol: -1, shift: lo[j]}
			structCols++
		}
	}

	type rowForm struct {
		coef []float64
		rel  Rel
		rhs  float64
	}
	rows := make([]rowForm, 0, len(m.cons))
	addRow := func(expr LinExpr, rel Rel, rhs float64) {
		coef := make([]float64, structCols)
		r := rhs - expr.Const
		for _, t := range expr.Terms {
			vm := maps[t.Var]
			coef[vm.posCol] += t.Coef
			if vm.negCol >= 0 {
				coef[vm.negCol] -= t.Coef
			}
			r -= t.Coef * vm.shift
		}
		rows = append(rows, rowForm{coef: coef, rel: rel, rhs: r})
	}
	for _, c := range m.cons {
		addRow(c.Expr, c.Rel, c.RHS)
	}

	// Normalize RHS ≥ 0 and count auxiliary columns.
	nSlack, nArt := 0, 0
	for i := range rows {
		if rows[i].rhs < 0 {
			for k := range rows[i].coef {
				rows[i].coef[k] = -rows[i].coef[k]
			}
			rows[i].rhs = -rows[i].rhs
			switch rows[i].rel {
			case LE:
				rows[i].rel = GE
			case GE:
				rows[i].rel = LE
			}
		}
		switch rows[i].rel {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}

	mRows := len(rows)
	totalCols := structCols + nSlack + nArt
	tab := make([][]float64, mRows)
	basis := make([]int, mRows)
	upper := make([]float64, totalCols)
	for j := 0; j < structCols; j++ {
		upper[j] = math.Inf(1)
	}
	for j := 0; j < n; j++ {
		vm := maps[j]
		if vm.negCol >= 0 {
			continue // free split: both parts unbounded above
		}
		upper[vm.posCol] = hi[j] - lo[j]
	}
	for j := structCols; j < totalCols; j++ {
		upper[j] = math.Inf(1)
	}

	slackAt := structCols
	artAt := structCols + nSlack
	artStart := artAt
	for i, rf := range rows {
		row := make([]float64, totalCols+1)
		copy(row, rf.coef)
		row[totalCols] = rf.rhs
		switch rf.rel {
		case LE:
			row[slackAt] = 1
			basis[i] = slackAt
			slackAt++
		case GE:
			row[slackAt] = -1
			slackAt++
			row[artAt] = 1
			basis[i] = artAt
			artAt++
		case EQ:
			row[artAt] = 1
			basis[i] = artAt
			artAt++
		}
		tab[i] = row
	}

	sx := &simplex{
		tab:      tab,
		basis:    basis,
		cols:     totalCols,
		artStart: artStart,
		upper:    upper,
		flipped:  make([]bool, totalCols),
	}

	// Phase 1: minimize the sum of artificials.
	if nArt > 0 {
		c1 := make([]float64, totalCols)
		for j := artStart; j < totalCols; j++ {
			c1[j] = 1
		}
		sx.installObjective(c1)
		if st := sx.iterate(); st == Unbounded {
			// Phase 1 is bounded below by 0; unbounded signals numerical
			// trouble — report infeasible.
			return lpOutcome{status: Infeasible, iters: sx.iters}
		}
		if sx.artificialInfeasibility() > feasTol {
			return lpOutcome{status: Infeasible, iters: sx.iters}
		}
		sx.evictArtificials()
	}

	// Phase 2: minimize the (possibly negated) objective.
	c2 := make([]float64, totalCols)
	sign := 1.0
	if m.sense == Maximize {
		sign = -1
	}
	for _, t := range m.obj.Terms {
		vm := maps[t.Var]
		c2[vm.posCol] += sign * t.Coef
		if vm.negCol >= 0 {
			c2[vm.negCol] -= sign * t.Coef
		}
	}
	sx.forbidArtificials()
	sx.installObjective(c2)
	if st := sx.iterate(); st == Unbounded {
		return lpOutcome{status: Unbounded, iters: sx.iters}
	}

	// Extract the solution: basic columns take their row value, nonbasic
	// columns sit at 0 or (flipped) at their upper bound.
	y := make([]float64, totalCols)
	for j := 0; j < totalCols; j++ {
		if sx.flipped[j] {
			y[j] = sx.upper[j]
		}
	}
	for i, b := range sx.basis {
		v := sx.tab[i][sx.cols]
		if sx.flipped[b] {
			y[b] = sx.upper[b] - v
		} else {
			y[b] = v
		}
	}
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		vm := maps[j]
		x[j] = y[vm.posCol] + vm.shift
		if vm.negCol >= 0 {
			x[j] -= y[vm.negCol]
		}
	}
	return lpOutcome{status: Optimal, x: x, obj: Eval(m.obj, x), iters: sx.iters}
}

// simplex is a dense tableau in "all nonbasic at zero" transformed space:
// a column whose variable currently rests at its upper bound is stored
// negated (flipped), so reduced-cost tests and ratio tests take the
// textbook form. The objective row holds reduced costs for minimization;
// its value cell is maintained for consistency but outcomes are computed
// from the extracted solution.
type simplex struct {
	tab      [][]float64 // mRows x (cols+1)
	objRow   []float64
	basis    []int
	cols     int
	artStart int
	banned   []bool
	upper    []float64
	flipped  []bool
	iters    int
}

// installObjective sets the cost vector (given in untransformed column
// space) and recomputes reduced costs for the current basis and flips.
func (s *simplex) installObjective(c []float64) {
	s.objRow = make([]float64, s.cols+1)
	for j := 0; j < s.cols; j++ {
		if s.flipped[j] {
			s.objRow[j] = -c[j]
		} else {
			s.objRow[j] = c[j]
		}
	}
	for i, b := range s.basis {
		cb := s.objRow[b]
		if cb == 0 {
			continue
		}
		row := s.tab[i]
		for j := 0; j <= s.cols; j++ {
			s.objRow[j] -= cb * row[j]
		}
	}
}

// artificialInfeasibility sums the values of artificial variables still
// basic after phase 1.
func (s *simplex) artificialInfeasibility() float64 {
	sum := 0.0
	for i, b := range s.basis {
		if b >= s.artStart {
			sum += s.tab[i][s.cols]
		}
	}
	return sum
}

// forbidArtificials prevents artificial columns from re-entering.
func (s *simplex) forbidArtificials() {
	s.banned = make([]bool, s.cols)
	for j := s.artStart; j < s.cols; j++ {
		s.banned[j] = true
	}
}

// iterate runs pivots and bound flips until optimality or unboundedness.
// Dantzig pricing switches to Bland's rule after a burn-in; bound flips
// strictly improve the objective and cannot cycle.
func (s *simplex) iterate() Status {
	maxIters := 400 * (len(s.tab) + s.cols + 10)
	blandAfter := 20 * (len(s.tab) + s.cols + 10)
	for local := 0; ; local++ {
		if local > maxIters {
			// Defensive: Bland's rule precludes cycling, so this would
			// indicate a numerical pathology.
			return Aborted
		}
		e := s.chooseEntering(local > blandAfter)
		if e < 0 {
			return Optimal
		}
		kind, r, _ := s.chooseLeaving(e)
		switch kind {
		case leaveUnbounded:
			return Unbounded
		case leaveFlip:
			s.flipColumn(e)
		case leaveAtZero:
			s.pivot(r, e)
		case leaveAtUpper:
			s.flipBasic(r)
			s.pivot(r, e)
		}
		s.iters++
	}
}

func (s *simplex) chooseEntering(bland bool) int {
	if bland {
		for j := 0; j < s.cols; j++ {
			if s.enterable(j) && s.objRow[j] < -defaultTol {
				return j
			}
		}
		return -1
	}
	best, bestVal := -1, -defaultTol
	for j := 0; j < s.cols; j++ {
		if s.enterable(j) && s.objRow[j] < bestVal {
			best, bestVal = j, s.objRow[j]
		}
	}
	return best
}

func (s *simplex) enterable(j int) bool {
	if s.banned != nil && s.banned[j] {
		return false
	}
	// Fixed variables (zero range) can never move off their bound.
	return s.upper[j] > defaultTol
}

type leaveKind int

const (
	leaveUnbounded leaveKind = iota
	leaveFlip                // entering variable reaches its other bound
	leaveAtZero              // basic variable in row r reaches zero
	leaveAtUpper             // basic variable in row r reaches its upper bound
)

// chooseLeaving runs the bounded-variable ratio test for entering column
// e (increasing from zero in transformed space).
func (s *simplex) chooseLeaving(e int) (leaveKind, int, float64) {
	kind := leaveFlip
	row := -1
	t := s.upper[e] // bound-flip step; may be +inf
	// better reports whether a row candidate with step ti on basic bi
	// should replace the current choice: smaller steps win; on ties, row
	// pivots beat bound flips and Bland's rule (smallest basic index)
	// orders rows.
	better := func(ti float64, bi int) bool {
		if ti < t-defaultTol {
			return true
		}
		if ti > t+defaultTol {
			return false
		}
		if row < 0 {
			return true
		}
		return bi < s.basis[row]
	}
	for i := range s.tab {
		a := s.tab[i][e]
		bi := s.basis[i]
		switch {
		case a > defaultTol:
			// Basic variable decreases toward zero.
			if ti := s.tab[i][s.cols] / a; better(ti, bi) {
				kind, row, t = leaveAtZero, i, ti
			}
		case a < -defaultTol && !math.IsInf(s.upper[bi], 1):
			// Basic variable increases toward its upper bound.
			if ti := (s.upper[bi] - s.tab[i][s.cols]) / -a; better(ti, bi) {
				kind, row, t = leaveAtUpper, i, ti
			}
		}
	}
	if row < 0 && math.IsInf(t, 1) {
		return leaveUnbounded, -1, t
	}
	return kind, row, t
}

// flipColumn moves nonbasic column e to its other bound without a pivot:
// substitute y = u - y', negating the column and adjusting every RHS.
func (s *simplex) flipColumn(e int) {
	u := s.upper[e]
	for i := range s.tab {
		row := s.tab[i]
		if row[e] != 0 {
			row[s.cols] -= row[e] * u
			row[e] = -row[e]
		}
	}
	if s.objRow[e] != 0 {
		s.objRow[s.cols] -= s.objRow[e] * u
		s.objRow[e] = -s.objRow[e]
	}
	s.flipped[e] = !s.flipped[e]
}

// flipBasic rewrites row r so its basic variable is measured from its
// upper bound (which it is about to reach), enabling a standard pivot.
func (s *simplex) flipBasic(r int) {
	b := s.basis[r]
	u := s.upper[b]
	row := s.tab[r]
	for j := 0; j <= s.cols; j++ {
		if j == b {
			continue
		}
		row[j] = -row[j]
	}
	row[s.cols] += u // loop negated the RHS; the new value is u - old
	s.flipped[b] = !s.flipped[b]
}

func (s *simplex) pivot(r, e int) {
	pr := s.tab[r]
	pv := pr[e]
	inv := 1 / pv
	for j := 0; j <= s.cols; j++ {
		pr[j] *= inv
	}
	pr[e] = 1 // exactness
	for i := range s.tab {
		if i == r {
			continue
		}
		f := s.tab[i][e]
		if f == 0 {
			continue
		}
		row := s.tab[i]
		for j := 0; j <= s.cols; j++ {
			row[j] -= f * pr[j]
		}
		row[e] = 0
	}
	if f := s.objRow[e]; f != 0 {
		for j := 0; j <= s.cols; j++ {
			s.objRow[j] -= f * pr[j]
		}
		s.objRow[e] = 0
	}
	s.basis[r] = e
}

// evictArtificials pivots zero-level artificial variables out of the basis
// after phase 1 so phase 2 can ignore their columns entirely.
func (s *simplex) evictArtificials() {
	for i := 0; i < len(s.basis); i++ {
		if s.basis[i] < s.artStart {
			continue
		}
		for j := 0; j < s.artStart; j++ {
			if math.Abs(s.tab[i][j]) > defaultTol {
				s.pivot(i, j)
				break
			}
		}
		// If no structural column has a nonzero entry the row is
		// redundant; the artificial stays basic at zero, harmless because
		// phase 2 bans it from entering.
	}
}
