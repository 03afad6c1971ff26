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
	// Fetch-stream shape counters: the cache-line segments and the block
	// runs plus appended jumps the simulated fetch stream consists of,
	// computed from per-block counts. Together with
	// casa_trace_replays_total (runs that walked the recorded trace
	// instead of re-executing the interpreter) they are benchdiff-gated:
	// they change only when the recording or the layouts change.
	mSimLines     = obs.GetCounter("casa_sim_lines_total")
	mSimBulk      = obs.GetCounter("casa_sim_bulk_fetches_total")
	mTraceReplays = obs.GetCounter("casa_trace_replays_total")
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
	// accounted one instruction at a time. The default engine, which
	// walks the recorded block trace through compiled cache-line probes,
	// is defined to be bit-identical to it (the differential tests
	// enforce this); the reference survives as their oracle and as a
	// debugging fallback.
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

// compiled is one executed block resolved under the layout and the
// hierarchy: where its fetches go per execution, and where its appended
// jump's single fetch goes.
type compiled struct {
	// probes[lo:hi] are the block's I-cache line probes; probes[hi:jend]
	// holds its appended jump's probe when the jump is fetched through
	// the I-cache (so a fall exit probes probes[lo:jend] in one call).
	lo, hi, jend int32
	mo           int32
	n            int64 // instructions per execution
	// blk splits one execution's fetches (blk.cache = Σ probes' N); jmp
	// splits the appended jump's single fetch when jok (materialized).
	// The jump belongs to the block's memory object.
	blk, jmp fetchSplit
	jok      bool
}

// fetchSplit divides a run's fetches among the hierarchy's components.
type fetchSplit struct{ spm, lc, mm, cache int64 }

// compiler splits fetch runs into the hierarchy's components.
type compiler struct {
	ic      *cache.Cache
	lc      *loopcache.Controller
	hasSPM  bool
	spmBase uint64
	spmEnd  uint64
	probes  []cache.Probe
}

// fetchesBelow returns how many 4-byte fetches starting at addr precede
// the boundary: the count of i ≥ 0 with addr+4i < end.
func fetchesBelow(addr, end uint64) int {
	return int((end - addr + 3) / 4)
}

// split classifies n consecutive fetches from base, all owned by mo,
// exactly as the reference classifies them one at a time: the run is cut
// at scratchpad-window and loop-cache-region boundaries, and the I-cache
// part is compiled into line probes appended to cp.probes. Segment
// lengths count the fetch addresses strictly below the next boundary
// (ceil((boundary-addr)/4)), so every fetch lands where the reference
// puts it.
func (cp *compiler) split(base uint32, n int, mo int) (f fetchSplit) {
	// Addresses are widened to uint64 so boundary arithmetic cannot wrap;
	// layouts never place a block across the top of the address space.
	addr := uint64(base)
	for n > 0 {
		k := n
		if cp.hasSPM {
			if addr >= cp.spmBase && addr < cp.spmEnd {
				// Inside the scratchpad window: serve up to its end.
				k = min(k, fetchesBelow(addr, cp.spmEnd))
				f.spm += int64(k)
				addr += uint64(k) * 4
				n -= k
				continue
			}
			if addr < cp.spmBase {
				// Below the window: the segment may not cross into it.
				k = min(k, fetchesBelow(addr, cp.spmBase))
			}
		}
		// [addr, addr+4k) now lies entirely outside the scratchpad window.
		if cp.lc != nil {
			match, boundary := cp.lc.Segment(uint32(addr))
			k = min(k, fetchesBelow(addr, uint64(boundary)))
			if match {
				f.lc += int64(k)
				addr += uint64(k) * 4
				n -= k
				continue
			}
		}
		if cp.ic == nil {
			f.mm += int64(k)
		} else {
			cp.probes = cp.ic.AppendProbes(cp.probes, uint32(addr), k, mo)
			f.cache += int64(k)
		}
		addr += uint64(k) * 4
		n -= k
	}
	return f
}

// compile resolves every executed block of tr under lay and the
// hierarchy once per run.
func (cp *compiler) compile(tr *sim.Trace, lay *layout.Layout) []compiled {
	blocks := tr.Blocks()
	tab := make([]compiled, len(blocks))
	for i, b := range blocks {
		c := &tab[i]
		mo := lay.BlockMO(b.Ref)
		c.mo, c.n = int32(mo), int64(b.Instrs)
		c.lo = int32(len(cp.probes))
		c.blk = cp.split(lay.BlockBase(b.Ref), int(b.Instrs), mo)
		c.hi = int32(len(cp.probes))
		if jaddr, ok := lay.FallJump(b.Ref); ok {
			c.jok = true
			c.jmp = cp.split(jaddr, 1, mo)
		}
		c.jend = int32(len(cp.probes))
	}
	return tab
}

// derive accounts every counter the layout alone determines — fetches,
// the scratchpad / loop-cache / main-memory / I-cache split, per-object
// fetches, line transitions and bulk deliveries — as per-block execution
// and jump counts times the compiled per-execution splits, and credits
// every I-cache fetch as a hit (the probe walk moves each miss back).
// It returns the line transitions and bulk deliveries: the cache-line
// segments and the non-empty block runs plus jumps the fetch stream
// consists of.
func derive(res *Result, tr *sim.Trace, tab []compiled, probes []cache.Probe, ic *cache.Cache) (lines, bulk int64) {
	for i, b := range tr.Blocks() {
		c := &tab[i]
		st := &res.PerMO[c.mo]
		x, j := b.Execs, int64(0)
		if c.jok {
			j = b.Jumps
		}
		fetches := x*c.n + j
		res.Fetches += fetches
		st.Fetches += fetches
		spm := x*c.blk.spm + j*c.jmp.spm
		lc := x*c.blk.lc + j*c.jmp.lc
		cached := x*c.blk.cache + j*c.jmp.cache
		res.SPMAccesses += spm
		st.SPM += spm
		res.LoopCacheAccesses += lc
		st.LoopCache += lc
		res.MainMemoryFetches += x*c.blk.mm + j*c.jmp.mm
		res.CacheAccesses += cached
		st.Hits += cached // minus the object's misses once they are known
		lines += x*int64(c.hi-c.lo) + j*int64(c.jend-c.hi)
		bulk += j
		if c.n > 0 {
			bulk += x
		}
		if ic != nil {
			ic.CreditHits(probes[c.lo:c.hi], x)
			ic.CreditHits(probes[c.hi:c.jend], j)
		}
	}
	return lines, bulk
}

// walk drives the I-cache with the recorded steps: per step, the
// block's line probes (repeat times), then its jump owner's appended
// jump probe. Scratchpad, loop-cache and main-memory fetches were
// accounted by derive and cost nothing here.
//
// A taken self-loop repeats one block back to back, and a pass over it
// that misses nowhere evicts nothing, so the resident set — and with it
// the outcome of every later pass — is unchanged. Passes are probed
// until one misses nowhere; the clock is then advanced past the
// remaining passes but one, whose hits derive already credited, and the
// final pass is probed for real so every LRU stamp and the MRU hint land
// on their exact final values. A loop whose working set never fits
// probes every pass.
func walk(tr *sim.Trace, tab []compiled, probes []cache.Probe, ic *cache.Cache, onMiss func(*cache.Probe, cache.Result)) {
	for _, s := range tr.Steps() {
		c := &tab[s.Block]
		if s.Link >= 0 {
			if s.Link == s.Block {
				// Fall exit: the block's own jump follows it.
				if c.jend > c.lo {
					ic.Probe(probes[c.lo:c.jend], onMiss)
				}
				continue
			}
			if c.hi > c.lo {
				ic.Probe(probes[c.lo:c.hi], onMiss)
			}
			if o := &tab[s.Link]; o.jend > o.hi {
				ic.Probe(probes[o.hi:o.jend], onMiss)
			}
			continue
		}
		if c.hi == c.lo {
			continue
		}
		ps := probes[c.lo:c.hi]
		if s.Link == -1 {
			ic.Probe(ps, onMiss)
			continue
		}
		rem := s.Repeat()
		for rem > 0 {
			rem--
			if ic.Probe(ps, onMiss) == 0 {
				break
			}
		}
		if rem > 0 {
			ic.Skip((rem - 1) * c.blk.cache)
			ic.Probe(ps, onMiss)
		}
	}
}

// Run simulates the program under the given layout and hierarchy.
//
// The default engine compiles each block of the memoized execute-once
// block trace into cache-line probes under this layout and hierarchy,
// derives every layout-determined counter from per-block counts, and
// walks the recorded steps through the I-cache to find the misses;
// Config.Reference re-executes the interpreter and accounts per
// instruction. Both engines produce bit-identical Results — every
// counter, attribution and (because energy and cycles are derived from
// the counters after the run) every float.
func Run(prog *ir.Program, lay *layout.Layout, cfg Config) (*Result, error) {
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
	var lines, bulk int64
	var err error
	if cfg.Reference {
		err = reference(prog, lay, cfg, res, ic, l2)
	} else {
		lines, bulk, err = simulate(prog, lay, cfg, res, ic, l2)
	}
	if err != nil {
		return nil, err
	}

	finalize(res, cfg, cfg.LoopCache != nil, l2 != nil)
	if cfg.KeepCache {
		res.Cache = ic
	}
	flushMetrics(res, ic, lines, bulk)
	return res, nil
}

// simulate is the default engine: it compiles the layout into probes,
// derives every layout-determined counter, and walks the memoized trace
// through the I-cache for the misses. It returns the line transitions
// and bulk deliveries derive computed.
func simulate(prog *ir.Program, lay *layout.Layout, cfg Config, res *Result, ic, l2 *cache.Cache) (lines, bulk int64, err error) {
	tr, err := sim.CachedTrace(prog)
	if err != nil {
		return 0, 0, err
	}
	mTraceReplays.Inc()
	cp := &compiler{ic: ic, lc: cfg.LoopCache}
	if base, size := lay.SPMWindow(); size > 0 {
		cp.hasSPM = true
		cp.spmBase = uint64(base)
		cp.spmEnd = uint64(base) + uint64(size)
	}
	tab := cp.compile(tr, lay)
	lines, bulk = derive(res, tr, tab, cp.probes, ic)
	if ic == nil {
		return lines, bulk, nil // no cache: nothing depends on cache state
	}

	// Only a second level and m_ij attribution need each miss as it
	// happens; the walk counts the rest per probe and per set.
	var onMiss func(*cache.Probe, cache.Result)
	nMO := len(res.PerMO)
	var conf []int64 // dense m_ij, victim-major, folded into the map below
	if cfg.TrackConflicts {
		conf = make([]int64, nMO*nMO)
	}
	if l2 != nil || conf != nil {
		onMiss = func(p *cache.Probe, r cache.Result) {
			if l2 != nil {
				res.L2Accesses++
				if l2.Access(p.Addr, int(p.MO)).Hit {
					res.L2Hits++
				} else {
					res.L2Misses++
				}
			}
			if conf != nil && r.VictimMO != cache.NoMO {
				conf[int(p.MO)*nMO+r.VictimMO]++
			}
		}
	}
	walk(tr, tab, cp.probes, ic, onMiss)

	for _, p := range cp.probes {
		res.CacheMisses += p.Misses
		res.PerMO[p.MO].Misses += p.Misses
	}
	res.CacheHits = res.CacheAccesses - res.CacheMisses
	for i := range res.PerMO {
		res.PerMO[i].Hits -= res.PerMO[i].Misses
	}
	// Every miss that replaced a valid line is a conflict miss; the rest
	// filled an empty way.
	res.ConflictMisses = ic.TotalStats().Evictions
	res.ColdMisses = res.CacheMisses - res.ConflictMisses
	for k, n := range conf {
		if n > 0 {
			res.Conflicts[ConflictKey{Victim: k / nMO, Evictor: k % nMO}] = n
		}
	}
	return lines, bulk, nil
}

// reference is the instruction-granular oracle: it re-executes the
// interpreter and classifies and accounts every fetch individually.
func reference(prog *ir.Program, lay *layout.Layout, cfg Config, res *Result, ic, l2 *cache.Cache) error {
	lc := cfg.LoopCache
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
	_, err := sim.Run(prog, lay, sim.FetcherFunc(fetch))
	return err
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
func flushMetrics(res *Result, ic *cache.Cache, lines, bulk int64) {
	mSimRuns.Inc()
	mSimFetches.Add(res.Fetches)
	mSimHits.Add(res.CacheHits)
	mSimMisses.Add(res.CacheMisses)
	mSimSPM.Add(res.SPMAccesses)
	if ic != nil {
		mSimEvicts.Add(ic.TotalStats().Evictions)
	}
	if lines > 0 {
		mSimLines.Add(lines)
	}
	if bulk > 0 {
		mSimBulk.Add(bulk)
	}
}
