package memsim

import (
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
// copy-layout runs of its trace set: its identity, its evictions per
// cache set, and a copy of every probe that missed, which carries its
// set, its memory object and its misses.
type setRecord struct {
	prog     *ir.Program
	set      *trace.Set
	mainBase uint32
	cache    cache.Config
	evict    []int64 // per cache set
	missed   []cache.Probe
}

// setLocal reports whether cfg's hierarchy keeps cache sets independent:
// no Random replacement (one generator drives every set's victims) and
// no loop cache (which the shortcut does not model). The default engine,
// the only one that walks part of the sets, never sees a second level.
func setLocal(cfg Config) bool {
	return cfg.Cache.Replacement != cache.Random && cfg.LoopCache == nil
}

// mainImageCached reports whether every main-image fetch goes to the
// I-cache: the scratchpad window does not overlap the main image.
func mainImageCached(lay *layout.Layout) bool {
	base, size := lay.SPMWindow()
	lo, hi := uint64(lay.MainBase()), uint64(lay.MainBase())+uint64(lay.MainImageBytes())
	return size == 0 || uint64(base)+uint64(size) <= lo || uint64(base) >= hi
}

// recordSets builds the record of a conflict-profiling run from its
// cache's per-set evictions and the probes of lists that missed. It
// returns nil unless the run is one copy-layout runs can use: a plain
// layout whose whole image is cached, through a set-local hierarchy.
func recordSets(prog *ir.Program, lay *layout.Layout, cfg Config, ic *cache.Cache, lists ...[]cache.Probe) *setRecord {
	if !setLocal(cfg) || lay.SPMUsed() > 0 || !mainImageCached(lay) {
		return nil
	}
	r := &setRecord{
		prog:     prog,
		set:      lay.Set(),
		mainBase: lay.MainBase(),
		cache:    cfg.Cache,
		evict:    make([]int64, cfg.Cache.Sets()),
	}
	for s := range r.evict {
		r.evict[s] = ic.StatsOf(s).Evictions
	}
	// Count, then copy into a slice of exactly that size: the record
	// lives as long as the profiling run's Result.
	n := 0
	for _, ps := range lists {
		for i := range ps {
			if ps[i].Misses > 0 {
				n++
			}
		}
	}
	r.missed = make([]cache.Probe, 0, n)
	for _, ps := range lists {
		for _, p := range ps {
			if p.Misses > 0 {
				r.missed = append(r.missed, p)
			}
		}
	}
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
		if !w {
			res.ConflictMisses += r.evict[s]
		}
	}
	for _, p := range r.missed {
		if !walked[p.Set] {
			res.CacheMisses += p.Misses
			res.PerMO[p.MO].Misses += p.Misses
		}
	}
}
