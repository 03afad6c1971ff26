package ilp

import "math"

// Factored-basis revised simplex — the branch & bound node engine.
//
// The branch & bound loop changes nothing but variable bounds between
// node LPs. Dual feasibility of a basis does not depend on bounds at
// all, so one engine instance — basis, factorization and reduced costs —
// persists across the whole tree: after a bound change the previous
// optimal basis is still dual feasible and typically a handful of dual
// pivots (bound-flip dual repair, bounded dual ratio test) away from the
// new optimum, even when best-bound search jumps to a distant part of
// the tree. The dense from-scratch two-phase tableau (simplex.go)
// remains as SolveLP's engine and as the per-node fallback.
//
// The root LP has no previous basis to start from. reset's all-slack
// basis places every column at the bound its cost pulls it to: for CASA
// every trace on the scratchpad and every conflict pair free, so the
// capacity row is violated by the whole program and the dual simplex
// pivots nearly every column back out (554 pivots on fig4's 128 B
// cell). The root therefore starts from the opposite corner (crash):
// every column at the bound opposite its cost pull — for CASA the
// cache-only allocation, always feasible and only a few traces away from
// the LP optimum — with each row's structural column singleton (CASA's
// L's) basic in place of the row's slack where its implied value is in
// bounds. From there a bounded primal simplex solves the root (9 steps
// on the same cell). When that start is not primal feasible, or the
// primal hits its iteration cap, the engine resets and the dual solves
// the root from the all-slack basis instead (solveRoot).
//
// Standard form: min cᵀx s.t. Ax + s = b, with one slack per row
// (LE: s ∈ [0,∞), GE: s ∈ (−∞,0], EQ: s ∈ [0,0]) and every structural
// column boxed on the side its reduced cost demands. Columns are stored
// sparse.
//
// A dense m×m basis inverse would cost O(m²) per pivot to update. In
// the CASA formulation almost all basic columns are singletons — slacks
// and linearization L's touch one row each — so the basis is, up to
// permutation, block upper triangular
//
//	P·B·Q = [ U  F ]   U: triangular, from peeled singleton columns
//	        [ 0  G ]   G: dense k×k "bump" of the rest (k ≪ m)
//
// (measured on cold solves of the fig4 cells, averaged over pivots:
// k ≈ 0.4 of m = 422 rows at SPM 128 and k ≈ 0.5 of 244 at SPM 512, at
// most 7 on any cell). fsx keeps that factorization of a basis snapshot
// B0 plus a product-form eta file for the pivots since:
//
//	B⁻¹ = E_t ··· E_1 · B0⁻¹
//
// FTRAN/BTRAN cost O(t·m + k² + nnz); a pivot appends one eta in O(m)
// instead of updating a dense inverse in O(m²); refactorization peels
// the triangle in O(nnz) and inverts only the bump in O(k³) instead of
// O(m³).
//
// Pricing is dual steepest edge (Forrest & Goldfarb 1992): the leaving
// row maximizes v_i²/β_i, its squared bound violation over the weight
// β_i = ‖e_iᵀB⁻¹‖², the squared norm of the row of B⁻¹ the pivot would
// use. The weights cost one extra FTRAN per pivot to update
// (updateWeights). They start exact: 1 on the all-slack basis, and 1/a²
// on the crash basis, which is diagonal with a column of coefficient a
// at each position. The primal root updates them at every pivot too, so
// the dual nodes after it inherit exact weights. They are kept by basis
// position, which neither a bound change nor a refactorization moves,
// so one set serves the whole tree. After 200 + 2m iterations of one
// LP, Bland's rule takes over against cycling.
//
// fsx also honors an objective limit: at every dual-feasible iterate
// the working point minimizes cᵀx over the relaxation that drops the
// basic variables' bounds, so cᵀx is a valid lower bound on the LP
// optimum (weak duality). When a caller-installed limit is exceeded the
// node cannot beat the known cutoff and solve returns stObjLimit
// immediately, mid-LP.

// Nonbasic/basic column states.
const (
	nbLower int8 = iota // nonbasic at lower bound
	nbUpper             // nonbasic at upper bound
	inBasis
)

// spCol is a sparse constraint-matrix column.
type spCol struct {
	rows []int32
	vals []float64
}

const (
	// fsxRefactorEvery bounds the eta file: beyond this, the O(t·m)
	// transform cost outgrows the O(k³) refactorization it avoids.
	fsxRefactorEvery = 64
	// pivTol is the minimum |alpha| for a column to be an entering
	// candidate; smaller pivots are numerically meaningless.
	pivTol = 1e-7
	// dualTol is the reduced-cost feasibility tolerance.
	dualTol = 1e-7
)

// etaRec is one product-form update: the FTRAN'd entering column (held
// sparse, ascending positions) and the pivot row r at the time of the
// pivot (piv equals the column's entry at r). Storing only nonzeros
// changes nothing numerically — the dense form skips zeros too — but
// the eta file is applied twice per pivot over its whole length, so its
// density is the engine's dominant cost.
type etaRec struct {
	r   int32
	piv float64
	idx []int32
	val []float64
}

type fsx struct {
	n, m int // structural columns, rows

	cols   []spCol   // n structural + m slack columns
	c      []float64 // minimization-space costs, len n+m
	b      []float64 // row right-hand sides
	lo, hi []float64 // len n+m; structural part overwritten per node

	basis  []int     // basic column per position (position i ↔ row slot i)
	status []int8    // per column
	xB     []float64 // basic variable values, by position
	d      []float64 // reduced costs (0 for basic columns)
	dse    []float64 // dual steepest-edge weights ‖e_iᵀB⁻¹‖², by position

	// B0 factorization (basis snapshot at the last refactorization).
	factCol     []int32   // basic model column per position at snapshot
	peelPos     []int32   // peeled positions, in peel order
	peelRow     []int32   // row assigned to each peeled position
	peelDiag    []float64 // that column's coefficient in its row
	bumpPos     []int32   // unpeeled positions (bump columns), position order
	bumpRow     []int32   // uncovered rows (bump rows), row order
	rowAssigned []int32   // row → peel index, -1 for bump rows
	rowBump     []int32   // row → bump row index, -1 for assigned rows
	ginv        []float64 // dense k×k inverse of the bump block
	k           int

	etas []etaRec // truncated, not freed, on refactor; idx/val reuse capacity

	// scratch
	alpha []float64 // pivot row in nonbasic columns, len n+m
	rho   []float64 // BTRAN'd unit row, row space, len m
	w     []float64 // FTRAN'd entering column, position space, len m
	pv    []float64 // position-space scratch, len m
	rv    []float64 // row-space scratch, len m
	bs    []float64 // bump scratch, len m
	x     []float64 // values' result, len n

	costed []int32 // columns with c != 0, for objective evaluation

	objLimit     float64
	iters        int // lifetime iterations: pivots plus primal bound flips
	sinceRefresh int
}

// newFSX builds the factored engine for md, or returns nil when some
// column cannot be placed dual-feasibly at a finite bound (free
// variables, or an infinite bound on the side the objective pulls
// toward); such models take the dense path instead.
func newFSX(md *Model) *fsx {
	n, m := md.NumVars(), len(md.cons)
	tot := n + m
	e := &fsx{
		n: n, m: m,
		cols: make([]spCol, tot),
		c:    make([]float64, tot),
		b:    make([]float64, m),
		lo:   make([]float64, tot),
		hi:   make([]float64, tot),

		basis:  make([]int, m),
		status: make([]int8, tot),
		xB:     make([]float64, m),
		d:      make([]float64, tot),
		dse:    make([]float64, m),

		factCol:     make([]int32, m),
		rowAssigned: make([]int32, m),
		rowBump:     make([]int32, m),

		alpha: make([]float64, tot),
		rho:   make([]float64, m),
		w:     make([]float64, m),
		pv:    make([]float64, m),
		rv:    make([]float64, m),
		bs:    make([]float64, m),
		x:     make([]float64, n),

		objLimit: math.Inf(1),
	}
	sign := 1.0
	if md.sense == Maximize {
		sign = -1
	}
	for _, t := range md.obj.Terms {
		e.c[t.Var] += sign * t.Coef
	}
	copy(e.lo, md.lo)
	copy(e.hi, md.hi)

	tmp := make([]float64, n)
	var touched []int
	for i, con := range md.cons {
		e.b[i] = con.RHS - con.Expr.Const
		touched = touched[:0]
		for _, t := range con.Expr.Terms {
			if tmp[t.Var] == 0 {
				touched = append(touched, int(t.Var))
			}
			tmp[t.Var] += t.Coef
		}
		for _, j := range touched {
			if v := tmp[j]; v != 0 {
				e.cols[j].rows = append(e.cols[j].rows, int32(i))
				e.cols[j].vals = append(e.cols[j].vals, v)
			}
			tmp[j] = 0
		}
		s := n + i
		e.cols[s] = spCol{rows: []int32{int32(i)}, vals: []float64{1}}
		switch con.Rel {
		case LE:
			e.lo[s], e.hi[s] = 0, math.Inf(1)
		case GE:
			e.lo[s], e.hi[s] = math.Inf(-1), 0
		case EQ:
			e.lo[s], e.hi[s] = 0, 0
		}
	}
	for j := 0; j < tot; j++ {
		if e.c[j] != 0 {
			e.costed = append(e.costed, int32(j))
		}
	}
	if !e.reset() {
		return nil
	}
	return e
}

// reset installs the all-slack basis, placing each structural column
// dual-feasibly (at its lower bound when the cost pulls down, upper when
// it pulls up), and the trivial factorization. Reports false when a
// required bound is infinite.
func (e *fsx) reset() bool {
	for j := 0; j < e.n; j++ {
		switch {
		case e.c[j] > defaultTol:
			if math.IsInf(e.lo[j], -1) {
				return false
			}
			e.status[j] = nbLower
		case e.c[j] < -defaultTol:
			if math.IsInf(e.hi[j], 1) {
				return false
			}
			e.status[j] = nbUpper
		default:
			if !math.IsInf(e.lo[j], -1) {
				e.status[j] = nbLower
			} else if !math.IsInf(e.hi[j], 1) {
				e.status[j] = nbUpper
			} else {
				return false
			}
		}
	}
	for i := 0; i < e.m; i++ {
		e.basis[i] = e.n + i
		e.status[e.n+i] = inBasis
	}
	copy(e.d, e.c) // slack basis: y = 0
	for i := 0; i < e.m; i++ {
		e.d[e.n+i] = 0
	}
	e.resetWeights() // exact: B = I
	// An all-slack basis peels completely: k = 0, no etas.
	if !e.refactor() {
		return false // cannot happen: slack columns are unit singletons
	}
	return true
}

// resetWeights sets every dual steepest-edge weight to 1. It runs from
// reset and crash, on bases where B = I makes unit weights exact (crash
// then rescales its singleton positions); every other basis inherits its
// weights by update.
func (e *fsx) resetWeights() {
	for i := range e.dse {
		e.dse[i] = 1
	}
}

// crash installs the primal root's start: each structural column at the
// bound opposite its cost pull (upper when c > 0, lower otherwise, the
// finite one when that bound is infinite), and in each row the first
// structural column singleton whose implied value — the one that makes
// the row tight — lies within its bounds, in place of the row's slack.
// B is then diagonal, so the weights 1/a² of those positions are exact.
// For CASA this is the cache-only allocation, with every linearization
// column L basic in its own row. Reports false when the start is not
// primal feasible, or some column has no finite bound.
func (e *fsx) crash() bool {
	r := e.rv
	copy(r, e.b)
	for j := 0; j < e.n; j++ {
		up := (e.c[j] > 0 && !math.IsInf(e.hi[j], 1)) || math.IsInf(e.lo[j], -1)
		if up && math.IsInf(e.hi[j], 1) {
			return false
		}
		e.status[j] = nbLower
		if up {
			e.status[j] = nbUpper
		}
		col := &e.cols[j]
		for u, ri := range col.rows {
			r[ri] -= col.vals[u] * e.nbValue(j)
		}
	}
	e.resetWeights()
	for i := 0; i < e.m; i++ {
		e.basis[i] = e.n + i
		e.status[e.n+i] = inBasis
	}
	for j := 0; j < e.n; j++ {
		col := &e.cols[j]
		if len(col.rows) != 1 || e.hi[j]-e.lo[j] < 1e-9 {
			continue
		}
		i, a := col.rows[0], col.vals[0]
		if e.basis[i] != e.n+int(i) {
			continue // the row already holds a singleton
		}
		// r[i] is the slack's value; the row turns tight when x_j absorbs it.
		if x := e.nbValue(j) + r[i]/a; x < e.lo[j]-feasTol || x > e.hi[j]+feasTol {
			continue
		}
		s := e.n + int(i)
		e.basis[i] = j
		e.status[j] = inBasis
		e.status[s] = nbLower
		if math.IsInf(e.lo[s], -1) {
			e.status[s] = nbUpper // GE slack: its finite bound is 0 above
		}
		e.dse[i] = 1 / (a * a)
	}
	if !e.refactor() {
		return false // cannot happen: every basic column is a singleton
	}
	e.computeXB()
	for i, bj := range e.basis {
		if e.xB[i] < e.lo[bj]-feasTol || e.xB[i] > e.hi[bj]+feasTol {
			return false
		}
	}
	e.computeDuals()
	return true
}

// setBounds installs a node's structural bounds.
func (e *fsx) setBounds(lo, hi []float64) {
	copy(e.lo[:e.n], lo)
	copy(e.hi[:e.n], hi)
}

// nbValue returns the resting value of a nonbasic column.
func (e *fsx) nbValue(j int) float64 {
	if e.status[j] == nbUpper {
		return e.hi[j]
	}
	return e.lo[j]
}

// releaseEtas empties the eta file. The records (and their idx/val
// backing arrays) stay in the slice's capacity for reuse by pushEta.
func (e *fsx) releaseEtas() {
	e.etas = e.etas[:0]
}

// pushEta appends the current FTRAN'd column e.w as a product-form
// update, compressing it to its nonzeros.
func (e *fsx) pushEta(r int, piv float64) {
	var et *etaRec
	if len(e.etas) < cap(e.etas) {
		e.etas = e.etas[:len(e.etas)+1]
		et = &e.etas[len(e.etas)-1]
		et.idx, et.val = et.idx[:0], et.val[:0]
	} else {
		e.etas = append(e.etas, etaRec{})
		et = &e.etas[len(e.etas)-1]
	}
	et.r, et.piv = int32(r), piv
	for j, wj := range e.w {
		if wj != 0 {
			et.idx = append(et.idx, int32(j))
			et.val = append(et.val, wj)
		}
	}
}

// refactor snapshots the current basis and rebuilds the block-triangular
// factorization: repeatedly peel basic columns with exactly one nonzero
// in a still-uncovered row (slacks and L's peel immediately; peeling
// their rows exposes further singletons), then invert the remaining
// bump densely. Reports false on a (numerically) singular bump.
func (e *fsx) refactor() bool {
	m := e.m
	for i := 0; i < m; i++ {
		e.factCol[i] = int32(e.basis[i])
		e.rowAssigned[i] = -1
		e.rowBump[i] = -1
	}
	e.peelPos = e.peelPos[:0]
	e.peelRow = e.peelRow[:0]
	e.peelDiag = e.peelDiag[:0]
	e.bumpPos = e.bumpPos[:0]
	e.bumpRow = e.bumpRow[:0]

	// Per-position count of entries in uncovered rows, and row → positions
	// adjacency over the basic columns.
	cnt := make([]int32, m)
	deg := make([]int32, m)
	for p := 0; p < m; p++ {
		col := &e.cols[e.basis[p]]
		if len(col.rows) == 0 {
			return false // structurally singular
		}
		cnt[p] = int32(len(col.rows))
		for _, r := range col.rows {
			deg[r]++
		}
	}
	rowStart := make([]int32, m+1)
	for r := 0; r < m; r++ {
		rowStart[r+1] = rowStart[r] + deg[r]
	}
	rowPosts := make([]int32, rowStart[m])
	fill := append([]int32(nil), rowStart[:m]...)
	for p := 0; p < m; p++ {
		col := &e.cols[e.basis[p]]
		for _, r := range col.rows {
			rowPosts[fill[r]] = int32(p)
			fill[r]++
		}
	}

	assigned := make([]bool, m)
	covered := make([]bool, m)
	queue := make([]int32, 0, m)
	for p := 0; p < m; p++ {
		if cnt[p] == 1 {
			queue = append(queue, int32(p))
		}
	}
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if assigned[p] || cnt[p] != 1 {
			continue
		}
		col := &e.cols[e.basis[p]]
		pr, pv := int32(-1), 0.0
		for u, r := range col.rows {
			if !covered[r] {
				pr, pv = r, col.vals[u]
			}
		}
		if pr < 0 || pv == 0 {
			return false
		}
		assigned[p] = true
		covered[pr] = true
		e.rowAssigned[pr] = int32(len(e.peelPos))
		e.peelPos = append(e.peelPos, p)
		e.peelRow = append(e.peelRow, pr)
		e.peelDiag = append(e.peelDiag, pv)
		for u := rowStart[pr]; u < rowStart[pr+1]; u++ {
			p2 := rowPosts[u]
			if !assigned[p2] {
				cnt[p2]--
				if cnt[p2] == 1 {
					queue = append(queue, p2)
				}
			}
		}
	}

	for p := 0; p < m; p++ {
		if !assigned[p] {
			e.bumpPos = append(e.bumpPos, int32(p))
		}
	}
	for r := 0; r < m; r++ {
		if !covered[r] {
			e.rowBump[r] = int32(len(e.bumpRow))
			e.bumpRow = append(e.bumpRow, int32(r))
		}
	}
	k := len(e.bumpPos)
	e.k = k
	if k != len(e.bumpRow) {
		return false // cannot happen: peeling assigns rows 1:1
	}
	if k > 0 {
		// Bump block G[a][b] = coefficient of bump column b in bump row a;
		// invert by Gauss–Jordan with partial pivoting.
		g := make([]float64, k*k)
		for bi, p := range e.bumpPos {
			col := &e.cols[e.basis[p]]
			for u, r := range col.rows {
				if a := e.rowBump[r]; a >= 0 {
					g[int(a)*k+bi] = col.vals[u]
				}
			}
		}
		if cap(e.ginv) < k*k {
			e.ginv = make([]float64, k*k)
		}
		inv := e.ginv[:k*k]
		e.ginv = inv
		for i := range inv {
			inv[i] = 0
		}
		for i := 0; i < k; i++ {
			inv[i*k+i] = 1
		}
		for col := 0; col < k; col++ {
			p, best := -1, 1e-10
			for r := col; r < k; r++ {
				if v := math.Abs(g[r*k+col]); v > best {
					p, best = r, v
				}
			}
			if p < 0 {
				return false
			}
			if p != col {
				gr, gc := g[p*k:(p+1)*k], g[col*k:(col+1)*k]
				for t := 0; t < k; t++ {
					gr[t], gc[t] = gc[t], gr[t]
				}
				ir, ic := inv[p*k:(p+1)*k], inv[col*k:(col+1)*k]
				for t := 0; t < k; t++ {
					ir[t], ic[t] = ic[t], ir[t]
				}
			}
			piv := 1 / g[col*k+col]
			gc, ic := g[col*k:(col+1)*k], inv[col*k:(col+1)*k]
			for t := col; t < k; t++ {
				gc[t] *= piv
			}
			for t := 0; t < k; t++ {
				ic[t] *= piv
			}
			for r := 0; r < k; r++ {
				if r == col {
					continue
				}
				f := g[r*k+col]
				if f == 0 {
					continue
				}
				gr, ir := g[r*k:(r+1)*k], inv[r*k:(r+1)*k]
				for t := col; t < k; t++ {
					gr[t] -= f * gc[t]
				}
				for t := 0; t < k; t++ {
					ir[t] -= f * ic[t]
				}
			}
		}
	}
	e.releaseEtas()
	e.sinceRefresh = 0
	return true
}

// ftranB0 solves B0·out = a. a is a row-space vector (len m, destroyed);
// out is position-space.
func (e *fsx) ftranB0(a, out []float64) {
	k := e.k
	// Bump block first: out_bump = G⁻¹ · a_bump.
	for bi := 0; bi < k; bi++ {
		row := e.ginv[bi*k:]
		s := 0.0
		for ai := 0; ai < k; ai++ {
			s += row[ai] * a[e.bumpRow[ai]]
		}
		e.bs[bi] = s
	}
	for bi := 0; bi < k; bi++ {
		p := e.bumpPos[bi]
		v := e.bs[bi]
		out[p] = v
		if v == 0 {
			continue
		}
		// Subtract the bump column's contribution from assigned rows.
		col := &e.cols[e.factCol[p]]
		for u, r := range col.rows {
			if e.rowAssigned[r] >= 0 {
				a[r] -= col.vals[u] * v
			}
		}
	}
	// Back-substitute the triangle in reverse peel order: a peeled
	// column's off-diagonal entries lie only in rows peeled earlier.
	for t := len(e.peelPos) - 1; t >= 0; t-- {
		p, r := e.peelPos[t], e.peelRow[t]
		x := a[r] / e.peelDiag[t]
		out[p] = x
		if x == 0 {
			continue
		}
		col := &e.cols[e.factCol[p]]
		for u, rr := range col.rows {
			if rr != r {
				a[rr] -= col.vals[u] * x
			}
		}
	}
}

// btranB0 solves zᵀ·B0 = rhoᵀ: rho is position-space, z row-space.
func (e *fsx) btranB0(rho, z []float64) {
	// Triangle forward in peel order.
	for t := 0; t < len(e.peelPos); t++ {
		p, r := e.peelPos[t], e.peelRow[t]
		s := rho[p]
		col := &e.cols[e.factCol[p]]
		for u, rr := range col.rows {
			if rr != r {
				s -= col.vals[u] * z[rr]
			}
		}
		z[r] = s / e.peelDiag[t]
	}
	k := e.k
	for bi := 0; bi < k; bi++ {
		p := e.bumpPos[bi]
		s := rho[p]
		col := &e.cols[e.factCol[p]]
		for u, rr := range col.rows {
			if e.rowAssigned[rr] >= 0 {
				s -= col.vals[u] * z[rr]
			}
		}
		e.bs[bi] = s
	}
	for ai := 0; ai < k; ai++ {
		s := 0.0
		for bi := 0; bi < k; bi++ {
			s += e.bs[bi] * e.ginv[bi*k+ai]
		}
		z[e.bumpRow[ai]] = s
	}
}

// applyEtasFwd maps a position-space column vector through the eta file:
// v ← E_t···E_1·v.
func (e *fsx) applyEtasFwd(v []float64) {
	for i := range e.etas {
		et := &e.etas[i]
		vr := v[et.r] / et.piv
		if vr != 0 {
			for u, j := range et.idx {
				v[j] -= et.val[u] * vr
			}
		}
		v[et.r] = vr
	}
}

// applyEtasRev maps a position-space row vector through the eta file in
// reverse: yᵀ ← yᵀ·E_t···E_1 applied as (((yᵀE_t)E_{t-1})···).
func (e *fsx) applyEtasRev(y []float64) {
	for i := len(e.etas) - 1; i >= 0; i-- {
		et := &e.etas[i]
		dot := 0.0
		for u, j := range et.idx {
			dot += y[j] * et.val[u]
		}
		yr := y[et.r]
		y[et.r] = yr - (dot-yr)/et.piv
	}
}

// btranUnit computes row r of B⁻¹ into e.rho (row space).
func (e *fsx) btranUnit(r int) {
	y := e.pv
	for i := range y {
		y[i] = 0
	}
	y[r] = 1
	e.applyEtasRev(y)
	e.btranB0(y, e.rho)
}

// ftranCol computes B⁻¹·A_q into e.w (position space).
func (e *fsx) ftranCol(q int) {
	a := e.rv
	for i := range a {
		a[i] = 0
	}
	col := &e.cols[q]
	for u, r := range col.rows {
		a[r] = col.vals[u]
	}
	e.ftranB0(a, e.w)
	e.applyEtasFwd(e.w)
}

// computeXB recomputes basic values from the current bounds and
// nonbasic placements: xB = B⁻¹(b − N·x_N).
func (e *fsx) computeXB() {
	r := e.rv
	copy(r, e.b)
	for j := 0; j < e.n+e.m; j++ {
		if e.status[j] == inBasis {
			continue
		}
		v := e.nbValue(j)
		if v == 0 {
			continue
		}
		col := &e.cols[j]
		for u, ri := range col.rows {
			r[ri] -= col.vals[u] * v
		}
	}
	e.ftranB0(r, e.xB)
	e.applyEtasFwd(e.xB)
}

// computeDuals recomputes y = c_B·B⁻¹ and all reduced costs from
// scratch (used after refactorization; pivots maintain d incrementally).
func (e *fsx) computeDuals() {
	y := e.pv
	for i := 0; i < e.m; i++ {
		y[i] = e.c[e.basis[i]]
	}
	e.applyEtasRev(y)
	z := e.rv
	e.btranB0(y, z)
	for j := 0; j < e.n+e.m; j++ {
		if e.status[j] == inBasis {
			e.d[j] = 0
			continue
		}
		col := &e.cols[j]
		s := e.c[j]
		for u, ri := range col.rows {
			s -= z[ri] * col.vals[u]
		}
		e.d[j] = s
	}
}

// refresh refactorizes and recomputes duals and basic values; on a
// singular bump it falls back to a full reset (which installs exact
// slack-basis duals itself). Reports false only when even the reset
// fails.
func (e *fsx) refresh() bool {
	if !e.refactor() {
		if !e.reset() {
			return false
		}
	} else {
		e.computeDuals()
	}
	e.computeXB()
	return true
}

// objValue returns cᵀx of the current working point: basic values plus
// costed nonbasics at their bounds.
func (e *fsx) objValue() float64 {
	z := 0.0
	for i := 0; i < e.m; i++ {
		if cb := e.c[e.basis[i]]; cb != 0 {
			z += cb * e.xB[i]
		}
	}
	for _, j := range e.costed {
		if e.status[j] != inBasis {
			z += e.c[j] * e.nbValue(int(j))
		}
	}
	return z
}

// solve re-optimizes after a bound change: nonbasic columns whose
// reduced cost turned dual infeasible flip to their other bound (a crash
// reset when that bound is infinite), then the dual simplex runs until
// optimal, infeasible, the iteration cap (Aborted) or the objective
// limit (stObjLimit).
func (e *fsx) solve(maxIter int) Status {
	for j := 0; j < e.n; j++ {
		if e.status[j] == inBasis || e.hi[j]-e.lo[j] < 1e-9 {
			continue
		}
		if e.status[j] == nbLower && e.d[j] < -dualTol {
			if math.IsInf(e.hi[j], 1) {
				if !e.reset() {
					return Aborted
				}
				break
			}
			e.status[j] = nbUpper
		} else if e.status[j] == nbUpper && e.d[j] > dualTol {
			if math.IsInf(e.lo[j], -1) {
				if !e.reset() {
					return Aborted
				}
				break
			}
			e.status[j] = nbLower
		}
	}
	e.computeXB()
	return e.reoptimize(maxIter)
}

// reoptimize runs the dual simplex loop; the linear algebra goes through
// the factored basis.
func (e *fsx) reoptimize(maxIter int) Status {
	m, tot := e.m, e.n+e.m
	blandAfter := 200 + 2*m
	limited := !math.IsInf(e.objLimit, 1)
	for it := 0; ; it++ {
		if it > maxIter {
			return Aborted
		}
		if limited && e.objValue() > e.objLimit {
			// Weak duality: the working point's objective is a lower
			// bound on this relaxation's optimum, which already exceeds
			// the caller's limit — no point finishing the LP.
			return stObjLimit
		}
		bland := it > blandAfter

		// Leaving row by dual steepest edge: the largest squared bound
		// violation per unit weight (Bland: the first violated row).
		r, sgn, best := -1, 1.0, 0.0
		for i := 0; i < m; i++ {
			bj := e.basis[i]
			v, s := e.lo[bj]-e.xB[i], -1.0
			if u := e.xB[i] - e.hi[bj]; u > v {
				v, s = u, 1
			}
			if v <= feasTol {
				continue
			}
			if bland {
				r, sgn = i, s
				break
			}
			if sc := v * v / e.dse[i]; sc > best {
				r, sgn, best = i, s, sc
			}
		}
		if r < 0 {
			return Optimal
		}

		e.pivotRow(r)

		// Bounded dual ratio test.
		q, bestRatio, bestAbs := -1, math.Inf(1), 0.0
		for j := 0; j < tot; j++ {
			if e.status[j] == inBasis || e.hi[j]-e.lo[j] < 1e-9 {
				continue
			}
			at := sgn * e.alpha[j]
			if e.status[j] == nbLower {
				if at <= pivTol {
					continue
				}
			} else if at >= -pivTol {
				continue
			}
			ratio := e.d[j] / at
			if ratio < 0 {
				ratio = 0 // reduced-cost drift within tolerance
			}
			if bland {
				if ratio < bestRatio-1e-12 || (ratio <= bestRatio+1e-12 && (q < 0 || j < q)) {
					bestRatio, q = ratio, j
				}
				continue
			}
			if ratio < bestRatio-1e-9 {
				bestRatio, bestAbs, q = ratio, math.Abs(at), j
			} else if ratio <= bestRatio+1e-9 && math.Abs(at) > bestAbs {
				bestRatio, bestAbs, q = math.Min(bestRatio, ratio), math.Abs(at), j
			}
		}
		if q < 0 {
			// No column can repair the violated row: primal infeasible.
			return Infeasible
		}

		// w = B⁻¹·A_q; w[r] equals alpha_q by construction.
		e.ftranCol(q)
		piv := e.w[r]
		if math.Abs(piv) < 1e-10 {
			// Numerically degenerate pivot: refresh and retry.
			if !e.refresh() {
				return Aborted
			}
			continue
		}

		e.updateWeights(r, piv)

		lb := e.basis[r]
		bnd := e.lo[lb]
		if sgn > 0 {
			bnd = e.hi[lb]
		}
		step := (e.xB[r] - bnd) / piv
		for i := 0; i < m; i++ {
			if i != r {
				e.xB[i] -= step * e.w[i]
			}
		}
		e.xB[r] = e.nbValue(q) + step

		theta := e.d[q] / (sgn * piv)
		if theta < 0 {
			theta = 0
		}
		e.pivotDuals(q, lb, theta*sgn)

		e.status[q] = inBasis
		if sgn < 0 {
			e.status[lb] = nbLower
		} else {
			e.status[lb] = nbUpper
		}
		e.basis[r] = q

		// Product-form update: append one eta instead of touching a
		// dense inverse.
		e.pushEta(r, piv)

		e.iters++
		e.sinceRefresh++
		if e.sinceRefresh >= fsxRefactorEvery {
			if !e.refresh() {
				return Aborted
			}
		}
	}
}

// solveRoot solves the root LP. When the crash start is primal feasible
// the bounded primal simplex runs from it; otherwise, or when the primal
// does not reach an optimum, the engine resets to the all-slack basis
// and the dual simplex runs as at every other node, on what the primal
// left of the maxIter budget. path names the simplex that produced the
// status, "primal" or "dual".
func (e *fsx) solveRoot(maxIter int) (st Status, path string) {
	start := e.iters
	if e.crash() && e.primal(maxIter) == Optimal {
		return Optimal, "primal"
	}
	if !e.reset() {
		return Aborted, "dual"
	}
	return e.solve(maxIter - (e.iters - start)), "dual"
}

// primal runs the bounded primal simplex from a primal feasible basis:
// Dantzig pricing over the maintained reduced costs picks the entering
// column, and the ratio test lets it either flip to its other bound
// (no basis change) or push a basic column out at the bound it hits.
// Both count as iterations: a flip costs the FTRAN and ratio test of a
// pivot. The weights are updated at every pivot, so the dual nodes that
// follow inherit exact ones. Bland's rule (first improving column, and
// the lowest-index column among tied rows) takes over after 200 + 2m
// iterations. Returns Optimal, or Aborted at the iteration cap or on a
// numerical failure; the caller then falls back to the dual.
func (e *fsx) primal(maxIter int) Status {
	m, tot := e.m, e.n+e.m
	blandAfter := 200 + 2*m
	for it := 0; ; it++ {
		if it > maxIter {
			return Aborted
		}
		bland := it > blandAfter

		// Entering column: x_q moves by dir·t, t ≥ 0.
		q, dir, best := -1, 0.0, 0.0
		for j := 0; j < tot; j++ {
			if e.status[j] == inBasis || e.hi[j]-e.lo[j] < 1e-9 {
				continue
			}
			dj, s := e.d[j], 1.0
			if e.status[j] == nbUpper {
				dj, s = -dj, -1
			}
			if dj >= -dualTol {
				continue
			}
			if bland {
				q, dir = j, s
				break
			}
			if -dj > best {
				q, dir, best = j, s, -dj
			}
		}
		if q < 0 {
			return Optimal
		}

		// Bounded ratio test: xB moves by −dir·t·w.
		e.ftranCol(q)
		r, step, bestAbs := -1, math.Inf(1), 0.0
		for i := 0; i < m; i++ {
			wi := dir * e.w[i]
			if math.Abs(wi) <= pivTol {
				continue
			}
			bj := e.basis[i]
			room := e.hi[bj] - e.xB[i]
			if wi > 0 {
				room = e.xB[i] - e.lo[bj]
			}
			if math.IsInf(room, 1) {
				continue
			}
			ratio := math.Max(room/math.Abs(wi), 0) // drift within tolerance
			if bland {
				if ratio < step-1e-12 || (ratio <= step+1e-12 && bj < e.basis[r]) {
					r, step = i, ratio
				}
				continue
			}
			if ratio < step-1e-9 {
				r, step, bestAbs = i, ratio, math.Abs(wi)
			} else if ratio <= step+1e-9 && math.Abs(wi) > bestAbs {
				r, step, bestAbs = i, math.Min(step, ratio), math.Abs(wi)
			}
		}
		if flip := e.hi[q] - e.lo[q]; flip <= step {
			if math.IsInf(flip, 1) {
				return Aborted // unbounded ray: cannot happen when a dual feasible start exists
			}
			for i, wi := range e.w {
				e.xB[i] -= dir * flip * wi
			}
			if dir > 0 {
				e.status[q] = nbUpper
			} else {
				e.status[q] = nbLower
			}
			e.iters++
			continue
		}

		piv := e.w[r] // |piv| > pivTol: the ratio test skips smaller entries
		e.pivotRow(r)
		e.updateWeights(r, piv)

		lb := e.basis[r]
		for i, wi := range e.w {
			e.xB[i] -= dir * step * wi
		}
		e.xB[r] = e.nbValue(q) + dir*step
		e.pivotDuals(q, lb, e.d[q]/piv)
		e.status[lb] = nbUpper
		if dir*piv > 0 {
			e.status[lb] = nbLower // it fell to its lower bound
		}
		e.status[q] = inBasis
		e.basis[r] = q
		e.pushEta(r, piv)

		e.iters++
		e.sinceRefresh++
		if e.sinceRefresh >= fsxRefactorEvery {
			if !e.refactor() {
				return Aborted
			}
			e.computeDuals()
			e.computeXB()
		}
	}
}

// pivotRow computes row r of B⁻¹ into e.rho and the pivot row
// alpha_j = ρ_r·A_j in every nonbasic column.
func (e *fsx) pivotRow(r int) {
	e.btranUnit(r)
	for j := 0; j < e.n+e.m; j++ {
		if e.status[j] == inBasis {
			continue
		}
		col := &e.cols[j]
		s := 0.0
		for u, ri := range col.rows {
			s += e.rho[ri] * col.vals[u]
		}
		e.alpha[j] = s
	}
}

// pivotDuals updates the reduced costs across a pivot that brings q
// into the basis in place of lb, by the dual step t = d_q/alpha_q:
// d_j −= t·alpha_j for every other nonbasic column, d_q = 0, d_lb = −t.
// It runs before the basis and statuses change.
func (e *fsx) pivotDuals(q, lb int, t float64) {
	if t != 0 {
		for j := 0; j < e.n+e.m; j++ {
			if e.status[j] == inBasis || j == q {
				continue
			}
			if a := e.alpha[j]; a != 0 {
				e.d[j] -= t * a
			}
		}
	}
	e.d[q] = 0
	e.d[lb] = -t
}

// updateWeights applies the Forrest–Goldfarb dual steepest-edge update
// for a pivot in row r with pivot element piv, before the basis changes:
// e.rho holds ρ_r = e_rᵀB⁻¹ and e.w the entering column B⁻¹A_q. The new
// row i ≠ r is ρ_i − (w_i/w_r)·ρ_r, so
//
//	β_i ← β_i − 2(w_i/w_r)·τ_i + (w_i/w_r)²·β_r,  τ = B⁻¹ρ_r
//
// floored at (w_i/w_r)² against cancellation, and β_r ← ‖ρ_r‖²/w_r²
// exactly, so a weight's rounding error never spreads to other rows.
func (e *fsx) updateWeights(r int, piv float64) {
	tau := e.pv
	copy(e.rv, e.rho)
	e.ftranB0(e.rv, tau)
	e.applyEtasFwd(tau)
	br := 0.0
	for _, v := range e.rho {
		br += v * v
	}
	for i, wi := range e.w {
		if i == r || wi == 0 {
			continue
		}
		k := wi / piv
		b := e.dse[i] + k*(k*br-2*tau[i])
		if lb := k * k; b < lb {
			b = lb
		}
		e.dse[i] = b
	}
	e.dse[r] = br / (piv * piv)
}

// values returns the structural solution vector, in a buffer the next
// call overwrites.
func (e *fsx) values() []float64 {
	x := e.x
	for j := 0; j < e.n; j++ {
		if e.status[j] != inBasis {
			x[j] = e.nbValue(j)
		}
	}
	for i, bj := range e.basis {
		if bj < e.n {
			x[bj] = e.xB[i]
		}
	}
	return x
}
