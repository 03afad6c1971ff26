package memsim

import (
	"slices"

	"repro/internal/cache"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/trace"
)

// A copy layout (layout.Copy) keeps every trace at its main-image
// address and sends the selected traces' fetches to the scratchpad, so
// the I-cache sees the plain layout's access stream with the selected
// traces' fetches removed. Under direct-mapped, LRU and FIFO replacement
// each set evolves on its own accesses alone — the replacement clock is
// global, but stamps are only compared within a set and a subsequence
// keeps their order — so a set no selected trace maps to ends with the
// plain run's hits, misses and evictions. The copy run walks the other
// sets and takes these from the plain run's record (DESIGN.md §10).

// setRecord is what a plain-layout conflict-profiling run leaves for the
// copy-layout runs of its trace set: its identity and, per cache set,
// its evictions and its misses per memory object.
type setRecord struct {
	prog     *ir.Program
	set      *trace.Set
	mainBase uint32
	cache    cache.Config
	evict    []int64    // per cache set
	off      []int32    // set s's misses are miss[off[s]:off[s+1]]
	miss     []moMisses // by set, then memory object
}

// moMisses is one memory object's misses in one set.
type moMisses struct {
	mo int32
	n  int64
}

// setLocal reports whether cfg's hierarchy keeps cache sets independent
// and every miss local to its set: no Random replacement (one generator
// drives every set's victims), no second level (fed by the L1's misses
// in order) and no loop cache (which the shortcut does not model).
func setLocal(cfg Config) bool {
	return cfg.Cache.Replacement != cache.Random && cfg.L2.SizeBytes == 0 && cfg.LoopCache == nil
}

// mainImageCached reports whether every main-image fetch goes to the
// I-cache: the scratchpad window does not overlap the main image.
func mainImageCached(lay *layout.Layout) bool {
	base, size := lay.SPMWindow()
	lo, hi := uint64(lay.MainBase()), uint64(lay.MainBase())+uint64(lay.MainImageBytes())
	return size == 0 || uint64(base)+uint64(size) <= lo || uint64(base) >= hi
}

// recordSets builds the per-set record of a conflict-profiling run from
// its probes' miss counts and its cache's per-set evictions. It returns
// nil unless the run is one copy-layout runs can use: a plain layout
// whose whole image is cached, through a set-local hierarchy.
func recordSets(prog *ir.Program, lay *layout.Layout, cfg Config, ic *cache.Cache, lists ...[]cache.Probe) *setRecord {
	if !setLocal(cfg) || lay.SPMUsed() > 0 || !mainImageCached(lay) {
		return nil
	}
	nsets := cfg.Cache.Sets()
	r := &setRecord{
		prog:     prog,
		set:      lay.Set(),
		mainBase: lay.MainBase(),
		cache:    cfg.Cache,
		evict:    make([]int64, nsets),
		off:      make([]int32, nsets+1),
	}
	for s := range r.evict {
		r.evict[s] = ic.StatsOf(s).Evictions
	}
	// Bucket the missing probes by set (a counting sort over references
	// into lists), then sum each set's bucket per memory object.
	type ref struct{ list, i int32 }
	for _, ps := range lists {
		for i := range ps {
			if ps[i].Misses > 0 {
				r.off[ps[i].Set+1]++
			}
		}
	}
	for s := 0; s < nsets; s++ {
		r.off[s+1] += r.off[s]
	}
	refs := make([]ref, r.off[nsets])
	next := slices.Clone(r.off[:nsets])
	for l, ps := range lists {
		for i := range ps {
			if ps[i].Misses > 0 {
				refs[next[ps[i].Set]] = ref{int32(l), int32(i)}
				next[ps[i].Set]++
			}
		}
	}
	acc := make([]int64, len(r.set.Traces))
	var mos []int32
	for s := 0; s < nsets; s++ {
		mos = mos[:0]
		for _, x := range refs[r.off[s]:r.off[s+1]] {
			p := &lists[x.list][x.i]
			if acc[p.MO] == 0 {
				mos = append(mos, p.MO)
			}
			acc[p.MO] += p.Misses
		}
		slices.Sort(mos)
		r.off[s] = int32(len(r.miss))
		for _, mo := range mos {
			r.miss = append(r.miss, moMisses{mo: mo, n: acc[mo]})
			acc[mo] = 0
		}
	}
	r.off[nsets] = int32(len(r.miss))
	return r
}

// walked returns the sets a copy-layout run must walk — those the main
// image lines of its scratchpad traces map to — and their number, or
// nil when the run takes the full walk: no record, a record of another program, trace
// set, main base or cache, a hierarchy or configuration the record
// cannot stand in for, or selected traces that reach every set.
func (r *setRecord) walked(prog *ir.Program, lay *layout.Layout, cfg Config) ([]bool, int) {
	if r == nil || cfg.TrackConflicts || cfg.KeepCache || !setLocal(cfg) ||
		prog != r.prog || lay.Set() != r.set || lay.MainBase() != r.mainBase || cfg.Cache != r.cache ||
		lay.Mode() != layout.Copy || !mainImageCached(lay) {
		return nil, 0
	}
	nsets := uint64(len(r.evict))
	line := uint64(r.cache.LineBytes)
	walked := make([]bool, nsets)
	n := uint64(0)
	for _, t := range r.set.Traces {
		if !lay.InSPM(t.ID) {
			continue
		}
		base, _ := lay.MainImageBase(t.ID)
		lo := uint64(base) / line
		hi := (uint64(base) + uint64(t.PaddedBytes) + line - 1) / line
		for l := lo; l < hi && n < nsets; l++ {
			if s := l & (nsets - 1); !walked[s] {
				walked[s] = true
				n++
			}
		}
	}
	if n == nsets {
		return nil, 0
	}
	return walked, int(n)
}

// addUnwalked adds the recorded misses and evictions of the sets the
// run did not walk to res.
func (r *setRecord) addUnwalked(res *Result, walked []bool) {
	for s, w := range walked {
		if w {
			continue
		}
		res.ConflictMisses += r.evict[s]
		for _, m := range r.miss[r.off[s]:r.off[s+1]] {
			res.CacheMisses += m.n
			res.PerMO[m.mo].Misses += m.n
		}
	}
}
