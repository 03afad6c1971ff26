package ilp

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Solver effort metrics, resolved once. Every Solve records into the
// default registry so run reports can attribute ILP work per study.
var (
	mSolves   = obs.GetCounter("casa_ilp_solves_total")
	mNodes    = obs.GetCounter("casa_ilp_nodes_total")
	mIters    = obs.GetCounter("casa_ilp_simplex_iters_total")
	mBranches = obs.GetCounter("casa_ilp_branches_total")
	mPruned   = obs.GetCounter("casa_ilp_nodes_pruned_total")
	mWarm     = obs.GetCounter("casa_ilp_warm_starts_total")
	mFallback = obs.GetCounter("casa_ilp_dense_fallbacks_total")
	mPreRows  = obs.GetCounter("casa_ilp_presolve_rows_dropped_total")
	mPreCols  = obs.GetCounter("casa_ilp_presolve_cols_removed_total")
	mDegraded = obs.GetCounter("casa_solve_degraded_total")
	// mWarmCellHits fires when a solve runs with a transferred cutoff
	// (the misses twin is counted by the planner in internal/experiments,
	// which knows when no donor was available).
	mWarmCellHits = obs.GetCounter("casa_ilp_warm_cell_hits_total")
	mRCFixed      = obs.GetCounter("casa_ilp_reduced_cost_fixed_total")
)

// Options tunes the solver.
type Options struct {
	// MaxNodes caps the number of branch & bound nodes explored
	// (default 200000). When the cap is hit with an incumbent in hand the
	// solution is returned with Status == Feasible.
	MaxNodes int
	// Trace, when non-nil, receives solver progress lines: one for the
	// root LP (which simplex solved it, in how many iterations), one per
	// new incumbent and one every TraceEvery nodes. The per-node cost
	// when nil is a single pointer test.
	Trace io.Writer
	// TraceEvery is the node interval of periodic progress lines
	// (default 1000).
	TraceEvery int
	// Budget caps the wall-clock time of the branch & bound search
	// (0 = unlimited). When it expires the best incumbent found so far is
	// returned with Status == Feasible, Degraded set, and the optimality
	// Gap reported; with no incumbent in hand the result is Aborted (still
	// not an error) so callers can fall back to a heuristic. The context
	// passed to Solve composes with the budget: whichever ends first stops
	// the search the same way.
	Budget time.Duration

	// DisablePresolve skips the root presolve (fixed-variable
	// substitution, redundant-row elimination, bound tightening, dual
	// fixing). Intended for testing and diagnosis.
	DisablePresolve bool
	// DisableWarmStart solves every node LP with the dense from-scratch
	// two-phase simplex instead of the warm-started revised dual simplex.
	// Intended for testing and diagnosis.
	DisableWarmStart bool

	// Cutoff, when non-nil, is the objective value (in the model's own
	// sense and space) of a solution known to be feasible, transferred
	// from a neighboring solve. Subtrees whose relaxation bound cannot
	// strictly beat it are pruned, node LPs stop mid-solve once their
	// objective passes it, and the root LP's reduced costs fix variables
	// that provably cannot move in any optimal solution. The cutoff
	// never changes the returned solution: only strictly-worse subtrees
	// are pruned (with a tolerance margin), so an optimal point always
	// survives, and a cutoff that proves infeasible (a bad transfer)
	// triggers a cold re-solve without it.
	Cutoff *float64
}

func (o Options) withDefaults() Options {
	if o.MaxNodes <= 0 {
		o.MaxNodes = 200000
	}
	if o.TraceEvery <= 0 {
		o.TraceEvery = 1000
	}
	return o
}

// Solution is the result of Solve or SolveLP.
type Solution struct {
	// Status classifies the outcome.
	Status Status
	// Objective is the objective value of X (valid for Optimal/Feasible).
	Objective float64
	// X holds the variable values indexed by Var.
	X []float64
	// Nodes is the number of branch & bound nodes processed (nodes whose
	// LP relaxation was solved; nodes pruned by bound before any LP work
	// are not counted).
	Nodes int
	// Branches is the number of branchings performed (nodes split into
	// floor/ceil children).
	Branches int
	// SimplexIters is the total simplex iteration count across all LP
	// solves: pivots, plus the bound flips of the primal root.
	SimplexIters int
	// Degraded marks an anytime result: the search stopped early (wall-
	// clock budget, context cancellation, node limit, or an injected
	// fault) before proving optimality. A degraded Feasible solution is
	// the best incumbent with Gap bounding how far from optimal it can
	// be; a degraded Aborted result carries no solution at all.
	Degraded bool
	// DegradedReason says why the search stopped early: "deadline",
	// "canceled", "node-limit" or "fault:solver-deadline". Empty when
	// Degraded is false.
	DegradedReason string
	// Gap is the relative optimality gap of a degraded Feasible solution:
	// (incumbent - best open bound) / max(1, |incumbent|), clamped to be
	// non-negative. Zero for proven-optimal results and for degraded
	// results with no incumbent.
	Gap float64
}

// Value returns the solution value of v.
func (s *Solution) Value(v Var) float64 { return s.X[v] }

// ctxErr reports the context's error, tolerating a nil context (treated
// as context.Background()).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// SolveLP solves the continuous relaxation of the model (integrality
// dropped). A context that is already done stops the solve with its
// error before any simplex work starts.
func SolveLP(ctx context.Context, m *Model, opt Options) (*Solution, error) {
	opt = opt.withDefaults()
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	out := solveLP(m, m.lo, m.hi)
	sol := &Solution{Status: out.status, Objective: out.obj, X: out.x, SimplexIters: out.iters}
	mSolves.Inc()
	mIters.Add(int64(out.iters))
	return sol, nil
}

// Solve optimizes the model exactly with branch & bound over its integer
// and binary variables, using LP-relaxation bounds. For a model without
// integer variables it is equivalent to SolveLP.
//
// The solve pipeline: a root presolve shrinks the model (presolve.go);
// the root relaxation runs on a factored-basis primal simplex from the
// cache-only corner when that corner is feasible, and every node
// relaxation after it on the same engine's revised dual simplex, which
// warm-starts from the basis left by the previous node and picks its
// leaving rows by dual steepest edge, with weights kept across the
// whole tree (factor.go); the dense two-phase simplex (simplex.go) is
// the fallback. The tree is explored best-bound-first with depth-first
// plunging, branching on the most fractional variable of the highest
// branch-priority class; the first incumbent comes from plunging
// itself. Options.Cutoff lets a solve reuse a neighboring one's
// incumbent value in an experiment grid without changing its answer; a
// solve without it is the cold reference.
//
// Solve is anytime: when ctx is canceled, its deadline passes, or
// opt.Budget expires, the search stops and returns the best incumbent
// (Status == Feasible, Degraded set, Gap reported) or, with no incumbent,
// Status == Aborted — never an error. Errors are reserved for invalid
// models.
func Solve(ctx context.Context, m *Model, opt Options) (*Solution, error) {
	opt = opt.withDefaults()
	if err := m.Validate(); err != nil {
		return nil, err
	}

	done := func(sol *Solution) (*Solution, error) {
		if opt.Trace != nil {
			deg := ""
			if sol.Degraded {
				deg = fmt.Sprintf(" degraded=%s gap=%.4g", sol.DegradedReason, sol.Gap)
			}
			fmt.Fprintf(opt.Trace, "ilp: done status=%v nodes=%d branches=%d iters=%d obj=%.6g%s\n",
				sol.Status, sol.Nodes, sol.Branches, sol.SimplexIters, sol.Objective, deg)
		}
		mSolves.Inc()
		mNodes.Add(int64(sol.Nodes))
		mIters.Add(int64(sol.SimplexIters))
		mBranches.Add(int64(sol.Branches))
		if sol.Degraded {
			mDegraded.Inc()
		}
		return sol, nil
	}

	if fault.Hit(fault.SolverDeadline) {
		// Injected fault: the budget "expired" before the first node, the
		// worst case of the anytime contract — no incumbent, caller must
		// fall back.
		return done(&Solution{Status: Aborted, Degraded: true, DegradedReason: "fault:solver-deadline"})
	}

	var pr *presolveResult
	work := m
	if !opt.DisablePresolve {
		pr = presolve(m)
		mPreRows.Add(int64(pr.rowsDropped))
		mPreCols.Add(int64(pr.colsFixed))
		switch pr.status {
		case Infeasible:
			return done(&Solution{Status: Infeasible})
		case Optimal:
			// Presolve eliminated every variable: the instance is solved
			// by replaying the reduction stack.
			x := pr.postsolve(nil, m.NumVars())
			return done(&Solution{Status: Optimal, X: x, Objective: Eval(m.obj, x)})
		}
		work = pr.reduced
	}

	s := &bbState{orig: m, w: work, pr: pr, opt: opt, ctx: ctx}
	if opt.Cutoff != nil {
		// Map the cutoff from the original objective space into w's
		// minimization space. Postsolve is affine, so the two spaces
		// differ by a constant offset; probe it at two points and keep
		// the cutoff only if they agree (they always should — the check
		// guards exactness against future presolve changes).
		signO, signW := 1.0, 1.0
		if m.sense == Maximize {
			signO = -1
		}
		if work.sense == Maximize {
			signW = -1
		}
		offsetAt := func(v float64) float64 {
			x := make([]float64, work.NumVars())
			for i := range x {
				x[i] = v
			}
			full := x
			if pr != nil {
				full = pr.postsolve(x, m.NumVars())
			}
			return signO*Eval(m.obj, full) - signW*Eval(work.obj, x)
		}
		off0 := offsetAt(0)
		if math.Abs(off0-offsetAt(1)) <= 1e-6*math.Max(1, math.Abs(off0)) {
			s.hasCutoff = true
			s.cutoffW = signO*(*opt.Cutoff) - off0
			s.cutMargin = 1e-6 * math.Max(1, math.Abs(s.cutoffW))
			mWarmCellHits.Inc()
		}
	}
	s.run()
	mPruned.Add(int64(s.pruned))
	mWarm.Add(int64(s.warm))
	mFallback.Add(int64(s.fallbacks))
	mRCFixed.Add(int64(s.rcFixed))

	stopped := s.hitLimit || s.stopReason != ""
	reason := s.stopReason
	if reason == "" && s.hitLimit {
		reason = "node-limit"
	}

	sol := &Solution{Nodes: s.nodes, Branches: s.branches, SimplexIters: s.iters}
	switch {
	case s.unbounded:
		// The relaxation is unbounded. With integer variables this still
		// certifies an unbounded or pathological model; report it rather
		// than guessing.
		sol.Status = Unbounded
		return done(sol)
	case s.incumbent != nil && !stopped:
		sol.Status = Optimal
	case s.incumbent != nil:
		sol.Status = Feasible
		sol.Degraded = true
		sol.DegradedReason = reason
		if lb := s.openBound; !math.IsInf(lb, 0) {
			gap := (s.incumbentVal - lb) / math.Max(1, math.Abs(s.incumbentVal))
			sol.Gap = math.Max(0, gap)
		}
	case stopped:
		sol.Status = Aborted
		sol.Degraded = true
		sol.DegradedReason = reason
	default:
		if s.hasCutoff {
			// A transferred cutoff asserts that a feasible point exists;
			// an "infeasible" outcome can only mean the transfer was bad
			// (donor mismatch). Drop it and solve cold — correctness never
			// depends on the cutoff being right.
			opt.Cutoff = nil
			return Solve(ctx, m, opt)
		}
		// Either no node was LP-feasible, or LP-feasible nodes existed but
		// none produced an integral point and the tree is exhausted:
		// infeasible either way.
		sol.Status = Infeasible
	}
	if s.incumbent != nil {
		x := s.incumbent
		if pr != nil {
			x = pr.postsolve(x, m.NumVars())
		}
		sol.X = x
		sol.Objective = Eval(m.obj, x)
	}
	return done(sol)
}

// bbNode is one open branch & bound node: the branchings that carve its
// box out of the root box, plus the parent relaxation bound used for
// best-bound ordering.
type bbNode struct {
	path  []boundChange // root box → this node's box, in branching order
	bound float64       // parent LP objective, minimization space
	seq   int           // FIFO tie-break
}

// bbState is the working state of one branch & bound run over the
// (possibly presolve-reduced) model w.
type bbState struct {
	orig *Model
	w    *Model
	pr   *presolveResult
	opt  Options

	sign    float64 // w's minimization-space sign
	eng     *fsx    // warm-started engine, nil => dense per-node solves
	intVars []int

	hasCutoff bool    // a transferred cutoff is installed
	cutoffW   float64 // cutoff in w's minimization space
	cutMargin float64 // tolerance margin: prune only strictly beyond it

	rcFixed int // root reduced-cost fixings against the cutoff

	incumbent    []float64 // in w's variable space
	incumbentVal float64   // minimization space

	heap []bbNode // open nodes, min (bound, seq) at the top

	// lo and hi are the box of the node being processed; rootLo and
	// rootHi the root box, after reduced-cost fixing, that a popped
	// node's box is rebuilt from.
	lo, hi         []float64
	rootLo, rootHi []float64

	nodes, branches, iters           int
	pruned, warm, fallbacks          int
	engSolves, seq                   int
	sawFeasible, hitLimit, unbounded bool

	ctx        context.Context
	deadline   time.Time // wall-clock stop from opt.Budget (zero = none)
	stopReason string    // "deadline" or "canceled" when the search was cut short
	openBound  float64   // best minimization-space bound still open at the stop
}

// stopCheck reports why the search must stop now ("deadline",
// "canceled"), or "" to keep going. It is called once per node, so its
// cost — a context poll and a clock read — is amortized over a full LP
// solve.
func (s *bbState) stopCheck() string {
	if err := ctxErr(s.ctx); err != nil {
		if err == context.DeadlineExceeded {
			return "deadline"
		}
		return "canceled"
	}
	if !s.deadline.IsZero() && !time.Now().Before(s.deadline) {
		return "deadline"
	}
	return ""
}

// recordOpenBound captures the tightest still-open relaxation bound at
// the moment the search stops; the optimality gap of the incumbent is
// measured against it.
func (s *bbState) recordOpenBound(cur *bbNode) {
	lb := math.Inf(1)
	if cur != nil && s.nodes > 0 {
		// cur's bound is its parent's LP objective — valid except for the
		// root node, whose bound field was never set.
		lb = cur.bound
	}
	if len(s.heap) > 0 && s.heap[0].bound < lb {
		lb = s.heap[0].bound
	}
	s.openBound = lb
}

func (s *bbState) run() {
	s.sign = 1
	if s.w.sense == Maximize {
		s.sign = -1
	}
	s.intVars = s.w.integerVars()
	s.incumbentVal = math.Inf(1)
	s.openBound = math.Inf(1)
	if s.opt.Budget > 0 {
		s.deadline = time.Now().Add(s.opt.Budget)
	}
	if !s.opt.DisableWarmStart {
		s.eng = newFSX(s.w)
	}

	s.lo = append([]float64(nil), s.w.lo...)
	s.hi = append([]float64(nil), s.w.hi...)
	s.rootLo = append([]float64(nil), s.w.lo...)
	s.rootHi = append([]float64(nil), s.w.hi...)
	cur := &bbNode{}
	for {
		if cur == nil {
			cur = s.nextNode()
			if cur == nil {
				return
			}
		}
		if reason := s.stopCheck(); reason != "" {
			s.stopReason = reason
			s.recordOpenBound(cur)
			return
		}
		if s.nodes >= s.opt.MaxNodes {
			s.hitLimit = true
			s.recordOpenBound(cur)
			return
		}
		cur = s.processNode(cur)
		if s.unbounded {
			return
		}
	}
}

// pruneable reports whether a minimization-space bound cannot improve on
// the incumbent, within a tolerance relative to the incumbent magnitude.
func (s *bbState) pruneable(bound float64) bool {
	if s.hasCutoff && bound > s.cutoffW+s.cutMargin {
		// The cutoff is a known-feasible value: a subtree strictly worse
		// than it cannot hold the optimum. Equal-or-better subtrees are
		// kept, so an optimal point always survives.
		return true
	}
	if s.incumbent == nil {
		return false
	}
	return bound >= s.incumbentVal-defaultTol*math.Max(1, math.Abs(s.incumbentVal))
}

// solveNodeLP solves one node relaxation: warm-started dual simplex when
// the engine is available, dense two-phase simplex otherwise or when the
// engine aborts.
func (s *bbState) solveNodeLP(lo, hi []float64) (Status, []float64) {
	if s.eng != nil {
		s.eng.setBounds(lo, hi)
		// Early-stop limit: the tighter of the transferred cutoff and the
		// incumbent-pruning threshold. An LP whose objective passes it can
		// only end in a pruned node.
		lim := math.Inf(1)
		if s.hasCutoff {
			lim = s.cutoffW + s.cutMargin
		}
		if s.incumbent != nil {
			if t := s.incumbentVal - defaultTol*math.Max(1, math.Abs(s.incumbentVal)); t < lim {
				lim = t
			}
		}
		s.eng.objLimit = lim
		before, maxIter := s.eng.iters, 2000+50*(s.eng.m+s.eng.n)
		var st Status
		if s.engSolves == 0 {
			// Only the root has no previous basis to warm-start from.
			var path string
			st, path = s.eng.solveRoot(maxIter)
			if s.opt.Trace != nil {
				fmt.Fprintf(s.opt.Trace, "ilp: root lp=%s status=%v iters=%d\n", path, st, s.eng.iters-before)
			}
		} else {
			st = s.eng.solve(maxIter)
		}
		s.iters += s.eng.iters - before
		if s.engSolves > 0 {
			s.warm++
		}
		s.engSolves++
		if st != Aborted {
			if st == Optimal {
				return Optimal, s.eng.values()
			}
			return st, nil
		}
		s.fallbacks++
	}
	out := solveLP(s.w, lo, hi)
	s.iters += out.iters
	return out.status, out.x
}

// feasibleIn verifies x against w's constraints and bounds with a
// tolerance scaled to each row's magnitude; used to screen incumbent
// candidates against numerical drift in the warm-started basis.
func feasibleIn(w *Model, x []float64) bool {
	for j := range x {
		if x[j] < w.lo[j]-1e-6 || x[j] > w.hi[j]+1e-6 {
			return false
		}
	}
	for _, c := range w.cons {
		v := Eval(c.Expr, x)
		tol := 1e-6 * math.Max(1, math.Abs(c.RHS))
		switch c.Rel {
		case LE:
			if v > c.RHS+tol {
				return false
			}
		case GE:
			if v < c.RHS-tol {
				return false
			}
		case EQ:
			if math.Abs(v-c.RHS) > tol {
				return false
			}
		}
	}
	return true
}

// userObjective maps a w-space point to the original model's objective
// value (trace display only).
func (s *bbState) userObjective(x []float64) float64 {
	if s.pr != nil {
		return Eval(s.orig.obj, s.pr.postsolve(x, s.orig.NumVars()))
	}
	return Eval(s.orig.obj, x)
}

// tryIncumbent snaps x's integer values, verifies feasibility, and
// installs it as the incumbent when it improves. Reports whether x was
// accepted as feasible (improving or not).
func (s *bbState) tryIncumbent(x []float64) bool {
	cand := append([]float64(nil), x...)
	for _, j := range s.intVars {
		cand[j] = math.Round(cand[j])
	}
	if !feasibleIn(s.w, cand) {
		return false
	}
	val := s.sign * Eval(s.w.obj, cand)
	if val < s.incumbentVal {
		s.incumbentVal = val
		s.incumbent = cand
		if s.opt.Trace != nil {
			fmt.Fprintf(s.opt.Trace, "ilp: incumbent %.6g at node %d (iters=%d)\n",
				s.userObjective(cand), s.nodes, s.iters)
		}
	}
	return true
}

// processNode solves one node and returns the child to plunge into, or
// nil when the node closed (pruned, infeasible, or integral).
func (s *bbState) processNode(nd *bbNode) *bbNode {
	s.nodes++
	if s.opt.Trace != nil && s.nodes%s.opt.TraceEvery == 0 {
		inc := "-"
		if s.incumbent != nil {
			inc = fmt.Sprintf("%.6g", s.userObjective(s.incumbent))
		}
		fmt.Fprintf(s.opt.Trace, "ilp: node=%d stack=%d branches=%d iters=%d incumbent=%s\n",
			s.nodes, len(s.heap), s.branches, s.iters, inc)
	}

	st, x := s.solveNodeLP(s.lo, s.hi)
	fromEngine := s.eng != nil
	for {
		switch st {
		case Infeasible, Aborted:
			return nil
		case stObjLimit:
			// The node LP's objective already passed the cutoff/incumbent
			// limit mid-solve; the finished bound could only be worse.
			s.pruned++
			return nil
		case Unbounded:
			s.unbounded = true
			return nil
		}
		bound := s.sign * Eval(s.w.obj, x)
		s.sawFeasible = true
		if s.pruneable(bound) {
			s.pruned++
			return nil
		}
		if s.nodes == 1 && s.hasCutoff && fromEngine && st == Optimal {
			// Root reduced-cost fixing against the transferred cutoff,
			// while the engine still holds the root LP's reduced costs.
			s.fixByReducedCost(bound)
		}

		branchVar := s.branchVar(x)
		if branchVar < 0 {
			if s.tryIncumbent(x) {
				return nil
			}
			if !fromEngine {
				// The dense simplex produced an infeasible "integral"
				// point; numerically hopeless, close the node.
				return nil
			}
			// Warm-basis drift produced an integral point that fails the
			// feasibility screen: re-solve this node from scratch.
			s.fallbacks++
			out := solveLP(s.w, s.lo, s.hi)
			s.iters += out.iters
			st, x, fromEngine = out.status, out.x, false
			continue
		}

		s.branches++
		v := x[branchVar]
		frac := v - math.Floor(v)
		// Plunge into the side nearer the fractional value, which takes
		// over the finished parent's box and path; the other child joins
		// the best-bound heap with its own copy of the path.
		up := frac >= 0.5
		ceil := boundChange{j: int32(branchVar), up: true, val: math.Ceil(v)}
		floor := boundChange{j: int32(branchVar), val: math.Floor(v)}
		nearC, farC := floor, ceil
		if up {
			nearC, farC = ceil, floor
		}
		farPath := append(append(make([]boundChange, 0, len(nd.path)+1), nd.path...), farC)
		s.pushNode(&bbNode{path: farPath, bound: bound})
		s.apply(nearC)
		return &bbNode{path: append(nd.path, nearC), bound: bound}
	}
}

// branchVar picks the variable to branch on at the node LP point x: the
// fractional integer variable of the highest branch-priority class whose
// fractional part f lies nearest ½ (the largest f·(1−f)), the lowest
// index winning ties; -1 when x is integral. Priorities let formulations
// steer branching toward genuine decision variables (CASA: the l's)
// instead of derived ones (the linearization L's, which the l's imply).
func (s *bbState) branchVar(x []float64) int {
	best, bestPrio, bestScore := -1, math.MinInt, 0.0
	for _, j := range s.intVars {
		if math.Abs(x[j]-math.Round(x[j])) <= intTol {
			continue
		}
		f := x[j] - math.Floor(x[j])
		p, sc := s.w.prio[j], f*(1-f)
		if p > bestPrio || (p == bestPrio && sc > bestScore) {
			best, bestPrio, bestScore = j, p, sc
		}
	}
	return best
}

// boundChange is one branching: variable j's lower bound (up) or upper
// bound set to val.
type boundChange struct {
	j   int32
	up  bool
	val float64
}

// apply narrows the working box by one branching.
func (s *bbState) apply(c boundChange) {
	if c.up {
		s.lo[c.j] = c.val
	} else {
		s.hi[c.j] = c.val
	}
}

// fixByReducedCost tightens the root box against a transferred cutoff:
// a nonbasic integer variable whose reduced cost says moving one unit
// off its bound already pushes the LP bound strictly past the
// known-feasible cutoff cannot move in ANY optimal solution (the
// bound+|d| value lower-bounds every feasible point with the variable
// shifted), so it is fixed at its resting bound. Children inherit the
// tightened box. Runs only while the engine still holds the root LP's
// basis.
func (s *bbState) fixByReducedCost(bound float64) {
	f := s.eng
	lim := s.cutoffW + s.cutMargin
	for _, j := range s.intVars {
		if s.hi[j]-s.lo[j] < 0.5 {
			continue // already fixed
		}
		d := f.d[j] // root LP reduced cost; 0 for basic columns
		switch f.status[j] {
		case nbLower:
			if d > 0 && bound+d > lim {
				s.hi[j] = s.lo[j]
				s.rcFixed++
			}
		case nbUpper:
			if d < 0 && bound-d > lim {
				s.lo[j] = s.hi[j]
				s.rcFixed++
			}
		}
	}
	copy(s.rootLo, s.lo)
	copy(s.rootHi, s.hi)
}

// pushNode adds an open node to the best-bound heap.
func (s *bbState) pushNode(nd *bbNode) {
	nd.seq = s.seq
	s.seq++
	s.heap = append(s.heap, *nd)
	i := len(s.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.heapLess(i, p) {
			break
		}
		s.heap[i], s.heap[p] = s.heap[p], s.heap[i]
		i = p
	}
}

func (s *bbState) heapLess(a, b int) bool {
	if s.heap[a].bound != s.heap[b].bound {
		return s.heap[a].bound < s.heap[b].bound
	}
	return s.heap[a].seq < s.heap[b].seq
}

// nextNode pops the best-bound open node, discarding the whole frontier
// when even the best bound cannot beat the incumbent.
func (s *bbState) nextNode() *bbNode {
	if len(s.heap) == 0 {
		return nil
	}
	if s.pruneable(s.heap[0].bound) {
		// The heap minimum is already dominated; so is everything else.
		s.pruned += len(s.heap)
		s.heap = s.heap[:0]
		return nil
	}
	top := s.heap[0]
	copy(s.lo, s.rootLo)
	copy(s.hi, s.rootHi)
	for _, c := range top.path {
		s.apply(c)
	}
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(s.heap) && s.heapLess(l, best) {
			best = l
		}
		if r < len(s.heap) && s.heapLess(r, best) {
			best = r
		}
		if best == i {
			break
		}
		s.heap[i], s.heap[best] = s.heap[best], s.heap[i]
		i = best
	}
	return &top
}

// SolveBruteForce exhaustively enumerates all assignments of the model's
// binary variables (continuous variables are not supported) and returns
// the best feasible assignment. It exists to validate the branch & bound
// solver in tests and refuses models beyond 24 binaries. Cancellation of
// ctx aborts the enumeration with the context's error.
func SolveBruteForce(ctx context.Context, m *Model) (*Solution, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	var bins []int
	for i, k := range m.kinds {
		switch k {
		case Binary:
			if m.lo[i] == m.hi[i] {
				continue // pinned; the init loop sets x[i] = lo
			}
			bins = append(bins, i)
		case Integer, Continuous:
			if m.lo[i] == m.hi[i] {
				continue // fixed is fine
			}
			if k == Integer && m.lo[i] >= 0 && m.hi[i] <= 1 {
				bins = append(bins, i)
				continue
			}
			return nil, fmt.Errorf("ilp: brute force supports binary variables only; %s is %s",
				m.names[i], k)
		}
	}
	if len(bins) > 24 {
		return nil, fmt.Errorf("ilp: brute force supports at most 24 binaries, model has %d", len(bins))
	}
	sign := 1.0
	if m.sense == Maximize {
		sign = -1
	}
	x := make([]float64, m.NumVars())
	for i := range x {
		x[i] = m.lo[i]
	}
	best := math.Inf(1)
	var bestX []float64
	for mask := 0; mask < 1<<len(bins); mask++ {
		if mask&0xfff == 0 {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
		}
		for bi, j := range bins {
			if mask&(1<<bi) != 0 {
				x[j] = 1
			} else {
				x[j] = 0
			}
		}
		ok := true
		for _, c := range m.cons {
			v := Eval(c.Expr, x)
			switch c.Rel {
			case LE:
				ok = v <= c.RHS+feasTol
			case GE:
				ok = v >= c.RHS-feasTol
			case EQ:
				ok = math.Abs(v-c.RHS) <= feasTol
			}
			if !ok {
				break
			}
		}
		if !ok {
			continue
		}
		val := sign * Eval(m.obj, x)
		if val < best {
			best = val
			bestX = append([]float64(nil), x...)
		}
	}
	if bestX == nil {
		return &Solution{Status: Infeasible}, nil
	}
	return &Solution{Status: Optimal, Objective: Eval(m.obj, bestX), X: bestX}, nil
}
