package experiments

import (
	"sort"
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Cross-cell warm starts. The study grids solve one CASA ILP per
// (workload, cache, scratchpad-size) cell, and neighboring cells —
// differing in a single parameter — have closely related optima: a
// feasible allocation for one maps (via core.TransferAllocation) to a
// feasible allocation for the other, whose predicted energy becomes an
// immediate upper-bound cutoff for the neighbor's solve. A WarmStore
// keeps every solved configuration's selection; before a pipeline with
// a store solves, it values all solved single-parameter neighbors and
// passes the best (minimum) cutoff to the solver. The suite owns one
// store for its grids; the serving daemon owns one for its requests
// (DESIGN.md §13), where the same program swept across scratchpad sizes
// or cache geometries by a design-space exploration client forms
// exactly the same neighbor families.
//
// The cutoff only prunes provably-worse subtrees (see ilp.Options), so
// results are identical to cold solves; only time changes. Grid
// evaluation is ordered largest-scratchpad-first (warmOrder) so the
// expensive small-scratchpad cells — whose ILPs are most constrained
// and slowest — always find a solved donor. With several workers the
// set of donors available to a cell depends on scheduling, but since
// cutoffs never change results, only casa_ilp_warm_cell_{hits,misses}
// counters vary; run a study with one worker for deterministic
// counters.

// mWarmCellMisses counts CASA solves that ran cold because no solved
// neighboring configuration was available to donate a cutoff. Its twin
// casa_ilp_warm_cell_hits_total is counted at the solver, which sees
// every cutoff actually installed.
var mWarmCellMisses = obs.GetCounter("casa_ilp_warm_cell_misses_total")

// maxWarmDonors bounds a WarmStore. The table is an optimization, not a
// cache anyone is owed: when full it is simply cleared, which also
// releases trace sets of programs a caller may have dropped. No study
// suite comes near the bound.
const maxWarmDonors = 512

// donorKey identifies one solved configuration. Programs are canonical
// instances (workload.Shared, or the daemon's intern table), so pointer
// identity is the same-program test — the condition a transfer needs.
type donorKey struct {
	prog  *ir.Program
	cache CacheSpec
	spm   int
}

// warmCell is one solved configuration's selection with the inputs
// needed to transfer it: its key (for deterministic donor ordering) and
// the trace set the selection indexes.
type warmCell struct {
	key   donorKey
	set   *trace.Set
	inSPM []bool
}

// WarmStore holds one donor per solved configuration, for cross-solve
// warm starts between pipelines that share it (Pipeline.Warm). The zero
// value is an empty store; it is safe for concurrent use.
type WarmStore struct {
	mu    sync.Mutex
	cells map[donorKey]*warmCell
}

// Record stores a solved selection of p's configuration as a donor for
// its neighbors. Callers record only proven-optimal, non-degraded
// selections: a budget-degraded incumbent depends on wall-clock timing,
// and warm state must never introduce nondeterminism into what other
// solves do.
func (w *WarmStore) Record(p *Pipeline, inSPM []bool) {
	k := donorKey{prog: p.Prog, cache: p.Cache, spm: p.SPMSize}
	w.mu.Lock()
	if w.cells == nil || len(w.cells) >= maxWarmDonors {
		w.cells = make(map[donorKey]*warmCell)
	}
	w.cells[k] = &warmCell{key: k, set: p.Set, inSPM: inSPM}
	w.mu.Unlock()
}

// Clear drops every donor and returns how many there were — a memory
// watchdog's lever (later solves lose their warm start, nothing else).
func (w *WarmStore) Clear() int {
	w.mu.Lock()
	n := len(w.cells)
	w.cells = nil
	w.mu.Unlock()
	return n
}

// Forget drops every donor over prog and returns how many there were.
// The serving daemon calls it when it releases a program: a re-parsed
// program is a new instance, so the old one's donors could never
// donate again, yet they would keep it and its trace set alive.
func (w *WarmStore) Forget(prog *ir.Program) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for k := range w.cells {
		if k.prog == prog {
			delete(w.cells, k)
			n++
		}
	}
	return n
}

// Len returns the donor count.
func (w *WarmStore) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.cells)
}

// WarmDonor is the persisted form of one donor (the serving daemon's
// warm-state snapshot): a bundled workload's configuration and
// selection. A restore rebuilds the deterministic trace set from the
// name alone (Prepare) and hands the selection back to Record.
type WarmDonor struct {
	Workload   string       `json:"workload"`
	CacheBytes int          `json:"cache_bytes"`
	LineBytes  int          `json:"line_bytes"`
	Assoc      int          `json:"assoc"`
	Policy     cache.Policy `json:"policy,omitempty"`
	SPMBytes   int          `json:"spm_bytes"`
	InSPM      []bool       `json:"in_spm"`
}

// Cache returns the donor's cache configuration.
func (d WarmDonor) Cache() CacheSpec {
	return CacheSpec{Size: d.CacheBytes, Line: d.LineBytes, Assoc: d.Assoc, Policy: d.Policy}
}

// Dump returns the donors whose program is a bundled workload's shared
// instance, in deterministic order. Donors over custom programs are
// skipped: their program may be gone with the process.
func (w *WarmStore) Dump() []WarmDonor {
	w.mu.Lock()
	cells := make([]*warmCell, 0, len(w.cells))
	for _, c := range w.cells {
		cells = append(cells, c)
	}
	w.mu.Unlock()
	sort.Slice(cells, func(a, b int) bool {
		if na, nb := cells[a].key.prog.Name, cells[b].key.prog.Name; na != nb {
			return na < nb
		}
		return keyLess(cells[a].key, cells[b].key)
	})
	var out []WarmDonor
	for _, c := range cells {
		if prog, err := workload.Shared(c.key.prog.Name); err != nil || prog != c.key.prog {
			continue
		}
		k := c.key
		out = append(out, WarmDonor{Workload: k.prog.Name, CacheBytes: k.cache.Size, LineBytes: k.cache.Line,
			Assoc: k.cache.Assoc, Policy: k.cache.Policy, SPMBytes: k.spm, InSPM: c.inSPM})
	}
	return out
}

// neighbors returns the donors for k's program whose configuration
// differs from k in exactly one parameter (cache configuration or
// scratchpad size), sorted by key so iteration order — and therefore
// any tie-break among equal-value donors — never depends on map order.
func (w *WarmStore) neighbors(k donorKey) []*warmCell {
	w.mu.Lock()
	var out []*warmCell
	for dk, c := range w.cells {
		if dk.prog != k.prog {
			continue
		}
		cacheDiff := dk.cache != k.cache
		spmDiff := dk.spm != k.spm
		if cacheDiff != spmDiff { // exactly one differs
			out = append(out, c)
		}
	}
	w.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return keyLess(out[a].key, out[b].key) })
	return out
}

// keyLess orders same-program donor keys deterministically (scratchpad,
// cache geometry, policy).
func keyLess(a, b donorKey) bool {
	if a.spm != b.spm {
		return a.spm < b.spm
	}
	if a.cache.Size != b.cache.Size {
		return a.cache.Size < b.cache.Size
	}
	if a.cache.Line != b.cache.Line {
		return a.cache.Line < b.cache.Line
	}
	if a.cache.Assoc != b.cache.Assoc {
		return a.cache.Assoc < b.cache.Assoc
	}
	return a.cache.Policy < b.cache.Policy
}

// cutoff values every recorded neighbor's selection under p's
// parameters and returns the tightest transferable cutoff. The cutoff
// is the minimum over donors, so it does not depend on the order
// configurations happened to finish in.
func (w *WarmStore) cutoff(p *Pipeline, params core.Params) (cut float64, found bool) {
	k := donorKey{prog: p.Prog, cache: p.Cache, spm: p.SPMSize}
	for _, donor := range w.neighbors(k) {
		sel := core.TransferAllocation(donor.set, donor.inSPM, p.Set, params)
		if sel == nil {
			continue
		}
		v := core.PredictEnergy(p.Set, p.Graph, params, sel)
		if !found || v < cut {
			cut, found = v, true
		}
	}
	return cut, found
}

// warmOrder returns the cell evaluation order for a grid whose i-th
// cell has scratchpad size sizes[i]: descending size, ties in index
// order. The largest scratchpad solves first because its ILP is the
// least constrained (cheapest cold), and every smaller cell then finds
// a solved donor; allocations for scratchpad k map into capacity k' < k
// after eviction repair, keeping transfers tight down the whole sweep.
func warmOrder(sizes []int) []int {
	order := naturalOrder(len(sizes))
	sort.SliceStable(order, func(a, b int) bool {
		return sizes[order[a]] > sizes[order[b]]
	})
	return order
}
