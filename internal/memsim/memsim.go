// Package memsim is the memory-hierarchy simulator (the reproduction's
// analogue of the Dortmund memsim tool [8]): it drives the I-cache,
// scratchpad window and optional preloaded loop cache with a program's
// instruction fetch stream and accounts accesses, misses, conflict
// attributions and energy per the cost model.
//
// The simulated architecture is the paper's Figure 1: the scratchpad (or
// the loop cache) sits at the same level as the L1 I-cache; both front an
// off-chip main memory. A fetch is served by exactly one component:
//
//	scratchpad window hit → scratchpad array
//	loop-cache region hit → loop-cache array (plus controller, every fetch)
//	otherwise             → I-cache (hit, or miss + main-memory line fill)
//	no cache configured   → main memory directly
package memsim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/energy"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/loopcache"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Simulation totals, accumulated across every run in the process so run
// reports can state aggregate hierarchy behavior per study.
var (
	mSimRuns    = obs.GetCounter("casa_sim_runs_total")
	mSimFetches = obs.GetCounter("casa_sim_fetches_total")
	mSimHits    = obs.GetCounter("casa_sim_cache_hits_total")
	mSimMisses  = obs.GetCounter("casa_sim_cache_misses_total")
	mSimSPM     = obs.GetCounter("casa_sim_spm_accesses_total")
	mSimEvicts  = obs.GetCounter("casa_sim_cache_evictions_total")
	// Line-granular engine work counters: cache-line transitions driven
	// and bulk run deliveries received. Together with
	// casa_trace_replays_total they are the benchdiff-gated evidence that
	// the fast path is actually taken (a regression to per-instruction
	// dispatch shows up as bulk fetches collapsing toward fetch counts).
	mSimLines = obs.GetCounter("casa_sim_lines_total")
	mSimBulk  = obs.GetCounter("casa_sim_bulk_fetches_total")
	// mSimDerived counts outcomes re-priced from an earlier run instead of
	// simulated (Reprice); the counters above cover simulations only.
	mSimDerived = obs.GetCounter("casa_sim_derived_total")
)

// Config selects the hierarchy for one simulation run.
type Config struct {
	// Cache configures the L1 I-cache; SizeBytes == 0 disables it and
	// sends cache-path fetches straight to main memory.
	Cache cache.Config
	// L2 configures an optional second-level I-cache behind the L1
	// (SizeBytes == 0 disables it). Per the paper's §4 remark, the
	// allocator needs no changes for it — this exists to verify that
	// claim.
	L2 cache.Config
	// LoopCache, when non-nil, routes fetches matching its regions to the
	// loop-cache array and charges the controller on every fetch.
	LoopCache *loopcache.Controller
	// Cost is the per-event energy model.
	Cost energy.CostModel
	// TrackConflicts enables per-pair conflict attribution (m_ij), needed
	// when profiling for the conflict graph. It costs a map update per
	// conflict miss.
	TrackConflicts bool
	// KeepCache retains the final L1 state on the Result so callers can
	// dump per-set residency and statistics after the run.
	KeepCache bool
	// Timing overrides the default fetch-latency model (nil = defaults).
	Timing *Timing
	// Reference selects the instruction-granular reference engine: the
	// interpreter is re-executed and every fetch is classified and
	// accounted one instruction at a time. The default line-granular
	// trace-replay engine is defined to be bit-identical to it (the
	// differential tests enforce this); the reference survives as their
	// oracle and as a debugging fallback.
	Reference bool
}

// Timing is the fetch-latency model (cycles per event). On-chip SRAMs
// (scratchpad, loop cache, cache hit) take one cycle; a miss stalls for
// the off-chip burst setup plus per-word transfer of the line fill.
type Timing struct {
	// SPM is the scratchpad access latency.
	SPM int64
	// LoopCache is the loop-cache access latency.
	LoopCache int64
	// CacheHit is the I-cache hit latency.
	CacheHit int64
	// L2Hit is the second-level probe latency paid on an L1 miss that the
	// L2 serves.
	L2Hit int64
	// MissSetup is the off-chip burst setup penalty on a miss.
	MissSetup int64
	// MissPerWord is the per-32-bit-word transfer penalty of a line fill
	// (and of a direct main-memory fetch).
	MissPerWord int64
}

// DefaultTiming models an ARM7-class board: single-cycle on-chip SRAMs, a
// 4-cycle burst setup and 2 wait states per transferred word.
func DefaultTiming() Timing {
	return Timing{SPM: 1, LoopCache: 1, CacheHit: 1, L2Hit: 4, MissSetup: 4, MissPerWord: 2}
}

// MOStats aggregates per-memory-object counts.
type MOStats struct {
	// Fetches is the object's total instruction fetches (f_i).
	Fetches int64
	// SPM counts fetches served by the scratchpad.
	SPM int64
	// LoopCache counts fetches served by the loop cache.
	LoopCache int64
	// Hits and Misses count the object's I-cache outcomes.
	Hits   int64
	Misses int64
}

// Energy aggregates per-component energy in nanojoules.
type Energy struct {
	SPM                 float64
	CacheHits           float64
	CacheMisses         float64
	LoopCache           float64
	LoopCacheController float64
	MainMemory          float64
}

// Total sums all components.
func (e Energy) Total() float64 {
	return e.SPM + e.CacheHits + e.CacheMisses + e.LoopCache + e.LoopCacheController + e.MainMemory
}

// ConflictKey identifies a directed conflict pair: Victim missed because
// Evictor replaced its line.
type ConflictKey struct {
	// Victim is the memory object whose miss is being attributed (x_i).
	Victim int
	// Evictor is the object whose line occupied the victim's slot (x_j).
	Evictor int
}

// Result is the outcome of one simulation run.
type Result struct {
	// Fetches is the total instruction fetch count.
	Fetches int64
	// SPMAccesses counts fetches served by the scratchpad.
	SPMAccesses int64
	// LoopCacheAccesses counts fetches served by the loop cache.
	LoopCacheAccesses int64
	// CacheAccesses counts fetches that went to the I-cache.
	CacheAccesses int64
	// CacheHits and CacheMisses split CacheAccesses.
	CacheHits   int64
	CacheMisses int64
	// L2Accesses, L2Hits and L2Misses describe the optional second level
	// (an L2 access happens exactly once per L1 miss).
	L2Accesses int64
	L2Hits     int64
	L2Misses   int64
	// ColdMisses counts misses that filled an invalid line (no victim).
	ColdMisses int64
	// ConflictMisses counts misses that evicted a valid line.
	ConflictMisses int64
	// MainMemoryFetches counts direct main-memory fetches (no cache).
	MainMemoryFetches int64
	// PerMO holds per-object statistics, indexed by trace ID.
	PerMO []MOStats
	// Conflicts holds m_ij when Config.TrackConflicts is set: the number
	// of misses of Victim caused by Evictor (self-conflicts included).
	Conflicts map[ConflictKey]int64
	// Energy is the per-component energy breakdown (nJ).
	Energy Energy
	// Cycles is the total fetch latency under the timing model — the
	// instruction-memory contribution to execution time.
	Cycles int64
	// Cache is the final L1 state (per-set residency and statistics)
	// when Config.KeepCache was set; nil otherwise.
	Cache *cache.Cache
}

// CyclesPerFetch returns the run's average fetch latency.
func (r *Result) CyclesPerFetch() float64 {
	if r.Fetches == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Fetches)
}

// TotalEnergyNJ returns the run's total energy in nanojoules.
func (r *Result) TotalEnergyNJ() float64 { return r.Energy.Total() }

// TotalEnergyMicroJ returns the run's total energy in microjoules, the
// unit of the paper's Table 1.
func (r *Result) TotalEnergyMicroJ() float64 { return r.Energy.Total() / 1000 }

// hier drives the hierarchy at cache-line granularity. It implements
// sim.RunFetcher, so whole same-block instruction runs arrive as one
// dynamic dispatch; each run is split at scratchpad-window, loop-cache-
// region and cache-line boundaries and every segment is accounted in
// bulk — cache.AccessRun touches the tag array once per line instead of
// once per instruction. The splits reproduce the per-instruction
// classification exactly: a fetch at address a+4i belongs to a segment
// iff the scalar reference would classify it the same way, because
// segment lengths are computed as the count of fetch addresses strictly
// below the next boundary (ceil((boundary-addr)/4)).
type hier struct {
	res   *Result
	ic    *cache.Cache
	l2    *cache.Cache
	lc    *loopcache.Controller
	track bool

	hasSPM   bool
	spmBase  uint64
	spmEnd   uint64
	lineMask uint64 // LineBytes-1; lines are power-of-two sized

	// conf densely accumulates m_ij (victim-major) during the run; the
	// map the Result exposes is folded from it afterwards, keeping hash
	// work out of the per-miss path.
	conf []int64
	nMO  int

	// missFn is the L1 miss handler bound once per run (L2 access,
	// cold/conflict classification, m_ij attribution), so cacheRun can
	// hand cache.AccessRun a callback without allocating per call.
	missFn func(addr uint32, r cache.Result)
	missMO int // memory object missFn attributes to; set by cacheRun

	lines int64 // cache-line transitions driven (casa_sim_lines_total)
	bulk  int64 // bulk run deliveries (casa_sim_bulk_fetches_total)
}

// Fetch implements sim.Fetcher for the stray single fetches (appended
// jumps) the trace replay delivers individually.
func (h *hier) Fetch(addr uint32, mo int) { h.FetchRun(addr, 1, mo) }

// segLen returns how many 4-byte fetches starting at addr precede the
// boundary: the count of i ≥ 0 with addr+4i < end.
func segLen(addr, end uint64) int {
	return int((end - addr + 3) / 4)
}

// FetchRun implements sim.RunFetcher: n consecutive instruction fetches
// from base, all owned by mo, accounted exactly as n scalar fetches.
func (h *hier) FetchRun(base uint32, n int, mo int) {
	if n <= 0 {
		return
	}
	h.bulk++
	res := h.res
	st := &res.PerMO[mo]
	res.Fetches += int64(n)
	st.Fetches += int64(n)
	if !h.hasSPM && h.lc == nil && h.ic != nil {
		// Cache-only hierarchy (the baseline and conflict-profiling
		// configuration): the whole run goes to the I-cache.
		h.cacheRun(base, n, mo)
		return
	}
	// Addresses are widened to uint64 so boundary arithmetic cannot wrap;
	// layouts never place a block across the top of the address space.
	addr := uint64(base)
	for n > 0 {
		k := n
		if h.hasSPM {
			if addr >= h.spmBase && addr < h.spmEnd {
				// Inside the scratchpad window: serve up to its end.
				if kw := segLen(addr, h.spmEnd); kw < k {
					k = kw
				}
				res.SPMAccesses += int64(k)
				st.SPM += int64(k)
				addr += uint64(k) * 4
				n -= k
				continue
			}
			if addr < h.spmBase {
				// Below the window: the segment may not cross into it.
				if kw := segLen(addr, h.spmBase); kw < k {
					k = kw
				}
			}
		}
		// [addr, addr+4k) now lies entirely outside the scratchpad window.
		if h.lc != nil {
			match, boundary := h.lc.Segment(uint32(addr))
			if kr := segLen(addr, uint64(boundary)); kr < k {
				k = kr
			}
			if match {
				res.LoopCacheAccesses += int64(k)
				st.LoopCache += int64(k)
				addr += uint64(k) * 4
				n -= k
				continue
			}
		}
		if h.ic == nil {
			res.MainMemoryFetches += int64(k)
			addr += uint64(k) * 4
			n -= k
			continue
		}
		h.cacheRun(uint32(addr), k, mo)
		addr += uint64(k) * 4
		n -= k
	}
}

// FetchRunRepeat implements sim.RunRepeater: count back-to-back
// deliveries of the same block run (a taken self-loop). Hot loops spend
// almost all their iterations in a steady state the simulator can prove
// and then skip:
//
//   - If every fetch of the run goes to the I-cache, passes are simulated
//     one at a time until one completes with zero misses. An all-hit pass
//     evicts nothing, so the resident set — and therefore the outcome of
//     every later pass — is unchanged: the remaining passes are accounted
//     in bulk (SkipHitRuns keeps the per-set counters and the replacement
//     clock exact) and the final pass is simulated for real so every LRU
//     stamp and the MRU hint land on their exact end-of-run values.
//
//   - If a pass drives no I-cache access at all (the run sits in the
//     scratchpad window, in loop-cache regions, or there is no cache),
//     the components it touches are stateless per access, so each pass
//     adds one fixed counter delta — measured on the first pass and
//     multiplied out.
//
// Runs that mix cache and non-cache segments, and loops that never reach
// an all-hit pass (working set larger than the cache), fall back to
// simulating every pass. All paths are exactly equivalent to count
// successive FetchRun calls.
func (h *hier) FetchRunRepeat(base uint32, n int, mo int, count int64) {
	if n <= 0 || count <= 0 {
		return
	}
	res := h.res
	end := uint64(base) + 4*uint64(n)
	if h.ic != nil && h.lc == nil &&
		(!h.hasSPM || end <= h.spmBase || uint64(base) >= h.spmEnd) {
		done, steady := int64(0), false
		for ; done < count; done++ {
			m0 := res.CacheMisses
			h.FetchRun(base, n, mo)
			if res.CacheMisses == m0 {
				done++
				steady = true
				break
			}
		}
		rem := count - done
		if !steady || rem == 0 {
			return
		}
		if skip := rem - 1; skip > 0 {
			res.Fetches += skip * int64(n)
			res.CacheAccesses += skip * int64(n)
			res.CacheHits += skip * int64(n)
			st := &res.PerMO[mo]
			st.Fetches += skip * int64(n)
			st.Hits += skip * int64(n)
			firstLine := uint64(base) &^ h.lineMask
			lastLine := (uint64(base) + 4*uint64(n-1)) &^ h.lineMask
			h.lines += skip * int64((lastLine-firstLine)/(h.lineMask+1)+1)
			h.bulk += skip
			h.ic.SkipHitRuns(base, n, skip)
		}
		h.FetchRun(base, n, mo) // final pass: exact stamps and MRU hint
		return
	}

	st := &res.PerMO[mo]
	f0, s0, l0, m0, ca0 := res.Fetches, res.SPMAccesses, res.LoopCacheAccesses,
		res.MainMemoryFetches, res.CacheAccesses
	stF0, stS0, stL0 := st.Fetches, st.SPM, st.LoopCache
	h.FetchRun(base, n, mo)
	if res.CacheAccesses != ca0 {
		// The run reaches the I-cache (mixed segments): simulate every pass.
		for j := int64(1); j < count; j++ {
			h.FetchRun(base, n, mo)
		}
		return
	}
	k := count - 1
	res.Fetches += k * (res.Fetches - f0)
	res.SPMAccesses += k * (res.SPMAccesses - s0)
	res.LoopCacheAccesses += k * (res.LoopCacheAccesses - l0)
	res.MainMemoryFetches += k * (res.MainMemoryFetches - m0)
	st.Fetches += k * (st.Fetches - stF0)
	st.SPM += k * (st.SPM - stS0)
	st.LoopCache += k * (st.LoopCache - stL0)
	h.bulk += k
}

// cacheRun sends k consecutive fetches at addr through the I-cache,
// splitting at line boundaries: within one line the first access decides
// hit or miss and the rest are guaranteed hits, so cache.AccessRun
// accounts them in bulk while this level attributes the outcome — the
// per-MO split, cold/conflict classification and m_ij edges — exactly
// as the scalar reference does per instruction.
func (h *hier) cacheRun(addr uint32, k int, mo int) {
	res := h.res
	res.CacheAccesses += int64(k)
	h.missMO = mo
	misses, lines := h.ic.AccessRun(addr, k, mo, h.missFn)
	hits := int64(k) - misses
	h.lines += lines
	res.CacheHits += hits
	res.CacheMisses += misses
	st := &res.PerMO[mo]
	st.Hits += hits
	st.Misses += misses
}

// onMiss attributes one L1 miss: second-level access, cold/conflict
// classification and (when profiling) the m_ij edge. Bound once per run
// as h.missFn.
func (h *hier) onMiss(addr uint32, r cache.Result) {
	res := h.res
	if h.l2 != nil {
		res.L2Accesses++
		if h.l2.Access(addr, h.missMO).Hit {
			res.L2Hits++
		} else {
			res.L2Misses++
		}
	}
	if r.VictimMO == cache.NoMO {
		res.ColdMisses++
	} else {
		res.ConflictMisses++
		if h.track {
			h.conf[h.missMO*h.nMO+r.VictimMO]++
		}
	}
}

// foldConflicts converts the dense m_ij accumulator into the Result's
// sparse map, identical in content to per-miss map updates.
func (h *hier) foldConflicts() {
	for v := 0; v < h.nMO; v++ {
		row := h.conf[v*h.nMO : (v+1)*h.nMO]
		for e, n := range row {
			if n > 0 {
				h.res.Conflicts[ConflictKey{Victim: v, Evictor: e}] = n
			}
		}
	}
}

// Run simulates the program under the given layout and hierarchy.
//
// The default engine replays the memoized execute-once block trace at
// line granularity; Config.Reference re-executes the interpreter and
// accounts per instruction. Both engines produce bit-identical Results —
// every counter, attribution and (because energy and cycles are derived
// from the counters after the run) every float.
func Run(prog *ir.Program, lay *layout.Layout, cfg Config, opts ...sim.Option) (*Result, error) {
	res := &Result{PerMO: make([]MOStats, len(lay.Set().Traces))}
	if cfg.TrackConflicts {
		res.Conflicts = make(map[ConflictKey]int64)
	}

	var ic *cache.Cache
	if cfg.Cache.SizeBytes > 0 {
		var err error
		ic, err = cache.New(cfg.Cache)
		if err != nil {
			return nil, fmt.Errorf("memsim: %w", err)
		}
	}
	var l2 *cache.Cache
	if cfg.L2.SizeBytes > 0 {
		if ic == nil {
			return nil, fmt.Errorf("memsim: L2 configured without an L1")
		}
		var err error
		l2, err = cache.New(cfg.L2)
		if err != nil {
			return nil, fmt.Errorf("memsim: L2: %w", err)
		}
	}
	lc := cfg.LoopCache

	h := &hier{res: res, ic: ic, l2: l2, lc: lc, track: cfg.TrackConflicts}
	h.missFn = h.onMiss
	if base, size := lay.SPMWindow(); size > 0 {
		h.hasSPM = true
		h.spmBase = uint64(base)
		h.spmEnd = uint64(base) + uint64(size)
	}
	if ic != nil {
		h.lineMask = uint64(cfg.Cache.LineBytes) - 1
	}
	if cfg.TrackConflicts {
		h.nMO = len(res.PerMO)
		h.conf = make([]int64, h.nMO*h.nMO)
	}

	switch {
	case cfg.Reference:
		// Instruction-granular oracle: re-execute the interpreter and
		// classify every fetch individually.
		fetch := func(addr uint32, mo int) {
			res.Fetches++
			st := &res.PerMO[mo]
			st.Fetches++
			if lay.IsSPMAddr(addr) {
				res.SPMAccesses++
				st.SPM++
				return
			}
			if lc != nil && lc.Match(addr) {
				res.LoopCacheAccesses++
				st.LoopCache++
				return
			}
			if ic == nil {
				res.MainMemoryFetches++
				return
			}
			res.CacheAccesses++
			r := ic.Access(addr, mo)
			if r.Hit {
				res.CacheHits++
				st.Hits++
				return
			}
			res.CacheMisses++
			st.Misses++
			if l2 != nil {
				res.L2Accesses++
				if l2.Access(addr, mo).Hit {
					res.L2Hits++
				} else {
					res.L2Misses++
				}
			}
			if r.VictimMO == cache.NoMO {
				res.ColdMisses++
			} else {
				res.ConflictMisses++
				if cfg.TrackConflicts {
					res.Conflicts[ConflictKey{Victim: mo, Evictor: r.VictimMO}]++
				}
			}
		}
		if _, err := sim.Run(prog, lay, sim.FetcherFunc(fetch), opts...); err != nil {
			return nil, err
		}
	case len(opts) == 0:
		// With default run limits the block trace depends only on the
		// program, so replay the memoized execute-once recording under
		// this layout; results are bit-identical to a live run.
		tr, err := sim.CachedTrace(prog)
		if err != nil {
			return nil, err
		}
		tr.Replay(lay, h)
	default:
		// Custom run options bypass the trace cache: re-execute the
		// interpreter, still at line granularity.
		if _, err := sim.Run(prog, lay, h, opts...); err != nil {
			return nil, err
		}
	}

	if cfg.TrackConflicts && !cfg.Reference {
		h.foldConflicts()
	}
	finalize(res, cfg, lc != nil, l2 != nil)
	if cfg.KeepCache {
		res.Cache = ic
	}
	flushMetrics(res, ic, h)
	return res, nil
}

// Reprice returns the outcome of simulating again what run simulated —
// same program, layout and hierarchy (cache, L2, loop cache, timing) —
// priced under cfg's cost model instead. The event counters depend only
// on the fetch stream and the hierarchy, so they are copied (PerMO
// deep-copied); energy and cycles are recomputed by finalize, the path
// every simulation prices through, so the floats equal a fresh run's
// bit for bit. Conflicts and the final cache state are not carried over.
// The caller guarantees that run and cfg describe the same hierarchy.
func Reprice(run *Result, cfg Config) *Result {
	res := *run
	res.PerMO = append([]MOStats(nil), run.PerMO...)
	res.Conflicts = nil
	res.Cache = nil
	res.Energy = Energy{}
	finalize(&res, cfg, cfg.LoopCache != nil, cfg.L2.SizeBytes > 0)
	mSimDerived.Inc()
	return &res
}

// finalize derives the energy and cycle totals from the run's integer
// event counters. Multiplying count×cost once at the end keeps the hot
// loop float-free, and — because both engines share this function — the
// reference and line-granular engines produce identical floating-point
// energies, not merely close ones.
func finalize(res *Result, cfg Config, hasLC, hasL2 bool) {
	cost := cfg.Cost
	timing := DefaultTiming()
	if cfg.Timing != nil {
		timing = *cfg.Timing
	}
	lineWords := int64(1)
	if cfg.Cache.SizeBytes > 0 {
		lineWords = int64((cfg.Cache.LineBytes + 3) / 4)
	}

	res.Energy.SPM = float64(res.SPMAccesses) * cost.SPMAccess
	res.Energy.CacheHits = float64(res.CacheHits) * cost.CacheHit
	res.Energy.LoopCache = float64(res.LoopCacheAccesses) * cost.LoopCacheHit
	if hasLC {
		// The controller arbitrates every non-SPM fetch.
		res.Energy.LoopCacheController =
			float64(res.Fetches-res.SPMAccesses) * cost.LoopCacheController
	}
	res.Energy.MainMemory = float64(res.MainMemoryFetches) * cost.MainMemoryWord
	if hasL2 {
		// Multi-level: L1 probe+fill per miss, then the L2 transaction.
		res.Energy.CacheMisses =
			float64(res.L2Accesses)*(cost.CacheHit+cost.CacheFill+cost.L2Probe) +
				float64(res.L2Misses)*(cost.L2Fill+cost.MainLine)
	} else {
		res.Energy.CacheMisses = float64(res.CacheMisses) * cost.CacheMiss
	}

	res.Cycles = res.SPMAccesses*timing.SPM +
		res.LoopCacheAccesses*timing.LoopCache +
		res.CacheHits*timing.CacheHit +
		res.MainMemoryFetches*(timing.MissSetup+timing.MissPerWord)
	if hasL2 {
		res.Cycles += res.CacheMisses*(timing.CacheHit+timing.L2Hit) +
			res.L2Misses*(timing.MissSetup+timing.MissPerWord*lineWords)
	} else {
		res.Cycles += res.CacheMisses *
			(timing.CacheHit + timing.MissSetup + timing.MissPerWord*lineWords)
	}
}

// flushMetrics records the run's totals into the default registry — once
// per run, at the end, so the per-fetch path stays metric-free.
func flushMetrics(res *Result, ic *cache.Cache, h *hier) {
	mSimRuns.Inc()
	mSimFetches.Add(res.Fetches)
	mSimHits.Add(res.CacheHits)
	mSimMisses.Add(res.CacheMisses)
	mSimSPM.Add(res.SPMAccesses)
	if ic != nil {
		mSimEvicts.Add(ic.TotalStats().Evictions)
	}
	if h.lines > 0 {
		mSimLines.Add(h.lines)
	}
	if h.bulk > 0 {
		mSimBulk.Add(h.bulk)
	}
}
