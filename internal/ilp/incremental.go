package ilp

import (
	"math"
	"sync"

	"repro/internal/obs"
)

// Cross-cell incremental solving. Experiment grids solve many CASA
// models that differ in a single parameter; this file holds the pieces
// that let one solve reuse work from a neighbor (hotstart.go holds the
// third, basis and pseudocost transfer). Each is opt-in per call and
// none changes the returned solution; a solve with none of them set is
// the cold reference:
//
//   - Session caches presolve results keyed on a structure hash of the
//     model, so a structurally identical model (a warm re-solve, a
//     repeated daemon request) skips the reduction fixpoint entirely,
//     and a model that differs only in the capacity row's RHS patches
//     the cached reduction in place;
//   - Options.Cutoff carries a known-feasible objective value
//     transferred from a neighboring cell; solve.go uses it to prune
//     and to stop node LPs early (see the exactness argument there).
//
// Counters: casa_presolve_reuse_total fires on every cache hit;
// casa_ilp_warm_cell_hits_total fires when a solve runs with a
// transferred cutoff (the misses twin is counted by the planner in
// internal/experiments, which knows when no donor was available).

var (
	mWarmCellHits  = obs.GetCounter("casa_ilp_warm_cell_hits_total")
	mPresolveReuse = obs.GetCounter("casa_presolve_reuse_total")
	// mRHSGrownReject counts cached reductions rejected because the new
	// model's capacity RHS GREW past the cached one. Shrinking is sound
	// to patch (the feasible region only shrinks, so every recorded
	// reduction still holds); growing is not — a row proven redundant
	// under capacity C may bind under C' > C — so such transfers solve
	// cold, explicitly and counted, instead of leaning on the solver's
	// safety-net re-solve to catch an unsound patch.
	mRHSGrownReject = obs.GetCounter("casa_ilp_rhs_grown_rejects_total")
)

// capacityRowName is the constraint the Session treats as the patchable
// right-hand side: core.BuildModel names the scratchpad-capacity row
// this, and two cells that differ only in SPM capacity differ only in
// its RHS. Models without such a row are still cached, but reuse then
// requires an exact hash match.
const capacityRowName = "spm_capacity"

// Session caches presolve results across Solve calls. One Session is
// shared per experiment suite (and per server); it is safe for
// concurrent use. Cached reductions are immutable and may be shared by
// concurrent solves.
type Session struct {
	mu  sync.Mutex
	pre map[uint64]*sessionEntry
}

// NewSession returns an empty presolve-reuse cache.
func NewSession() *Session {
	return &Session{pre: make(map[uint64]*sessionEntry)}
}

type sessionEntry struct {
	// capRHS is the effective capacity-row RHS (RHS − Expr.Const) the
	// cached reduction was computed under.
	capRHS float64
	pr     *presolveResult
	// nVars/nCons guard against (astronomically unlikely) hash
	// collisions with a cheap structural cross-check.
	nVars, nCons int
	// redCapRow is the capacity row's index in the reduced model, or -1
	// when presolve dropped it (then RHS patching is unsound: a row
	// proven redundant under capacity C need not be redundant under a
	// smaller C').
	redCapRow int
	// patchOK marks the reduction replayable under a smaller capacity
	// RHS: no column-singleton substitutions (those bake objective
	// numerics into the action stack) and the capacity row survived.
	patchOK bool
}

// fnv1a is an incremental 64-bit FNV-1a hash.
type fnv1a uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func (h *fnv1a) u64(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= (v >> (8 * i)) & 0xff
		x *= fnvPrime64
	}
	*h = fnv1a(x)
}

func (h *fnv1a) f64(v float64) { h.u64(math.Float64bits(v)) }
func (h *fnv1a) int(v int)     { h.u64(uint64(int64(v))) }

// modelKey hashes everything that determines the presolve reduction
// sequence — variable kinds, priorities and bounds, constraint terms,
// relations and right-hand sides, objective and sense — EXCEPT the
// capacity row's RHS, which is stored separately so models differing
// only there land on the same key. Returns the key, the capacity row's
// index (-1 if absent) and its effective RHS.
func modelKey(m *Model) (key uint64, capRow int, capRHS float64) {
	capRow = -1
	for i := range m.cons {
		if m.cons[i].Name == capacityRowName {
			if capRow >= 0 {
				// Ambiguous: two capacity rows. Hash everything; exact
				// matches only.
				capRow = -1
				break
			}
			capRow = i
		}
	}
	h := fnv1a(fnvOffset64)
	h.int(m.NumVars())
	for j := range m.names {
		h.int(int(m.kinds[j]))
		h.int(m.prio[j])
		h.f64(m.lo[j])
		h.f64(m.hi[j])
	}
	h.int(int(m.sense))
	h.f64(m.obj.Const)
	h.int(len(m.obj.Terms))
	for _, t := range m.obj.Terms {
		h.int(int(t.Var))
		h.f64(t.Coef)
	}
	h.int(len(m.cons))
	for i := range m.cons {
		c := &m.cons[i]
		h.int(int(c.Rel))
		h.int(len(c.Expr.Terms))
		for _, t := range c.Expr.Terms {
			h.int(int(t.Var))
			h.f64(t.Coef)
		}
		rhsEff := c.RHS - c.Expr.Const
		if i == capRow {
			capRHS = rhsEff
			continue
		}
		h.f64(rhsEff)
	}
	return uint64(h), capRow, capRHS
}

// clonePatchRHS shallow-clones a reduced model with one row's RHS
// shifted by delta. Variable and objective storage is shared — nothing
// downstream mutates a reduced model.
func clonePatchRHS(m *Model, row int, delta float64) *Model {
	c := &Model{
		names: m.names, kinds: m.kinds, lo: m.lo, hi: m.hi, prio: m.prio,
		cons: append([]Constraint(nil), m.cons...),
		obj:  m.obj, sense: m.sense, hasObj: m.hasObj, objConst: m.objConst,
	}
	c.cons[row].RHS += delta
	return c
}

// presolveFor returns a presolve result for m, reusing a cached
// reduction when the session has seen this structure before.
//
// Reuse rules (each exactness-preserving):
//
//   - exact hash match with equal capacity RHS: the models are
//     identical; share the cached reduction outright.
//   - hash match with SMALLER capacity RHS, patchOK: replay the cached
//     reductions and patch the reduced capacity row by the RHS delta.
//     Every cached reduction remains valid because the C' feasible
//     region is a subset of the C region it was derived from: derived
//     bounds and pins still hold, rows proven redundant over the (same)
//     bound box stay redundant, and dual fixing is sign-based — its
//     any-feasible-point exchange argument never references an RHS.
//   - anything else: run presolve fresh and cache the result.
func (s *Session) presolveFor(m *Model, tol float64) *presolveResult {
	key, capRow, capRHS := modelKey(m)
	s.mu.Lock()
	if e := s.pre[key]; e != nil && e.nVars == m.NumVars() && e.nCons == len(m.cons) {
		switch {
		case capRow < 0 || capRHS == e.capRHS:
			pr := *e.pr
			pr.rowsDropped, pr.colsFixed, pr.colsSubst = 0, 0, 0
			s.mu.Unlock()
			mPresolveReuse.Inc()
			return &pr
		case capRHS < e.capRHS && e.patchOK:
			pr := *e.pr
			pr.rowsDropped, pr.colsFixed, pr.colsSubst = 0, 0, 0
			pr.reduced = clonePatchRHS(e.pr.reduced, e.redCapRow, capRHS-e.capRHS)
			s.mu.Unlock()
			mPresolveReuse.Inc()
			return &pr
		case capRHS > e.capRHS:
			// Grown capacity: the cached reduction was derived under a
			// TIGHTER feasible region, so its redundancy proofs and pins
			// need not hold here. Reject the transfer explicitly and solve
			// cold (fresh presolve below, which then overwrites the cache
			// entry for this structure).
			s.mu.Unlock()
			mRHSGrownReject.Inc()
			return s.freshPresolve(m, tol, key, capRow, capRHS)
		}
	}
	s.mu.Unlock()
	return s.freshPresolve(m, tol, key, capRow, capRHS)
}

// freshPresolve runs presolve from scratch and caches the reduction
// under key (overwriting any stale entry for the structure).
func (s *Session) freshPresolve(m *Model, tol float64, key uint64, capRow int, capRHS float64) *presolveResult {
	pr := presolve(m, tol)
	if pr.status == needsSolve && pr.reduced != nil {
		ent := &sessionEntry{
			capRHS: capRHS, pr: pr,
			nVars: m.NumVars(), nCons: len(m.cons),
			redCapRow: -1,
		}
		if capRow >= 0 {
			for ri, oi := range pr.rowOrig {
				if oi == capRow {
					ent.redCapRow = ri
					break
				}
			}
			ent.patchOK = pr.colsSubst == 0 && ent.redCapRow >= 0
		}
		s.mu.Lock()
		s.pre[key] = ent
		s.mu.Unlock()
	}
	return pr
}
