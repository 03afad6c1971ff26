// Memoization layer: because every simulation in this repository is
// deterministic, a program fully determines its profile and its dynamic
// block trace. The experiment engine runs the same workloads many times
// across figures — every study re-profiles its workload, and each grid
// cell simulates the workload under several layouts — so both results are
// cached process-wide and shared across concurrent experiment cells.
//
// Keys: profiles and traces are both keyed by program identity
// (*ir.Program). A recorded Trace is layout-independent (it stores the
// dynamic block sequence, not addresses), so one entry serves every
// layout and cache configuration — the predecessor design cached raw
// per-(program, layout) address streams and needed a 128MB budget for
// what a handful of kilobyte-sized traces now cover. Programs handed to
// this layer must be treated as immutable; the bundled workloads and
// every pipeline consumer already are.
//
// All entries are built exactly once (singleflight) and are safe for
// concurrent use; recorded traces are immutable and read without
// locking. The trace cache keeps the byte-bounded LRU shape of the old
// stream cache (counting slice *capacity*, since that is what the
// allocator actually committed) so the bound and its metrics stay
// meaningful if trace sizes ever grow.
//
// Both memo layers report into the default metrics registry:
// casa_profile_memo_{hits,misses}_total, casa_stream_cache_{hits,
// misses,evictions}_total and the casa_stream_cache_bytes gauge (the
// stream-cache names are kept for dashboard continuity; they account
// the trace cache now).
package sim

import (
	"sync"

	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/obs"
)

// Memo metrics, resolved once.
var (
	mProfileHits   = obs.GetCounter("casa_profile_memo_hits_total")
	mProfileMisses = obs.GetCounter("casa_profile_memo_misses_total")
	mStreamHits    = obs.GetCounter("casa_stream_cache_hits_total")
	mStreamMisses  = obs.GetCounter("casa_stream_cache_misses_total")
	mStreamEvicts  = obs.GetCounter("casa_stream_cache_evictions_total")
	mStreamBytes   = obs.GetGauge("casa_stream_cache_bytes")
)

// ---- Profile memoization ---------------------------------------------------

// profileEntry is a singleflight slot for one program's profile.
type profileEntry struct {
	once sync.Once
	prof *Profile
	err  error
}

var profileMemo sync.Map // *ir.Program → *profileEntry

// CachedProfile is ProfileProgram with process-wide memoization: the first
// caller executes the program, every later caller (concurrent ones
// included) receives the same immutable Profile. The program must not be
// mutated after the first call.
func CachedProfile(p *ir.Program) (*Profile, error) {
	if fault.Hit(fault.MemoMiss) {
		// Injected memo miss: recompute without touching the cache. The
		// result is identical (simulation is deterministic); only the
		// memoization benefit is lost.
		mProfileMisses.Inc()
		return ProfileProgram(p)
	}
	slot, loaded := profileMemo.LoadOrStore(p, &profileEntry{})
	if loaded {
		mProfileHits.Inc()
	} else {
		mProfileMisses.Inc()
	}
	e := slot.(*profileEntry)
	e.once.Do(func() {
		e.prof, e.err = ProfileProgram(p)
		if e.err != nil {
			// Do not let a transient failure poison the memo forever: drop
			// the slot so a later caller can retry. CompareAndDelete only
			// removes OUR slot — a concurrent retry that already replaced
			// it is left alone.
			profileMemo.CompareAndDelete(p, slot)
		}
	})
	return e.prof, e.err
}

// ---- Trace memoization -----------------------------------------------------

// traceCacheCapBytes bounds the total bytes retained across cached
// traces, measured as backing-array capacity (Trace.SizeBytes). Traces
// are orders of magnitude smaller than the raw streams this cache used
// to hold, but the LRU bound is kept so pathological workloads (huge
// irregular step sequences) stay bounded. Variable for tests.
var traceCacheCapBytes = 128 << 20

type traceEntry struct {
	once    sync.Once
	t       *Trace
	err     error
	lastUse int64 // guarded by traceMu
}

var (
	traceMu    sync.Mutex
	traceCache = map[*ir.Program]*traceEntry{}
	traceTick  int64
	traceBytes int // total SizeBytes of completed entries, guarded by traceMu
)

// CachedTrace returns the recorded block trace for p, recording it on
// first use. Entries are evicted least-recently-used once the cache
// exceeds its byte budget; evicted traces remain valid for holders.
func CachedTrace(p *ir.Program) (*Trace, error) {
	if err := fault.ErrorAt(fault.StreamRead); err != nil {
		return nil, err
	}
	if fault.Hit(fault.MemoMiss) {
		// Injected memo miss: re-record outside the cache. Deterministic
		// simulation makes the replacement trace identical.
		mStreamMisses.Inc()
		return RecordTrace(p)
	}
	traceMu.Lock()
	e, ok := traceCache[p]
	if !ok {
		e = &traceEntry{}
		traceCache[p] = e
	}
	traceTick++
	e.lastUse = traceTick
	traceMu.Unlock()
	if ok {
		mStreamHits.Inc()
	} else {
		mStreamMisses.Inc()
	}

	e.once.Do(func() {
		e.t, e.err = RecordTrace(p)
		if e.err != nil {
			traceMu.Lock()
			delete(traceCache, p)
			traceMu.Unlock()
			return
		}
		traceMu.Lock()
		traceBytes += e.t.SizeBytes()
		evictTracesLocked(e)
		mStreamBytes.Set(int64(traceBytes))
		traceMu.Unlock()
	})
	return e.t, e.err
}

// evictTracesLocked drops completed entries, oldest first, until the
// byte budget holds; keep is never evicted. Call with traceMu held.
func evictTracesLocked(keep *traceEntry) {
	for traceBytes > traceCacheCapBytes {
		var oldKey *ir.Program
		var old *traceEntry
		for k, e := range traceCache {
			if e == keep || e.t == nil {
				continue
			}
			if old == nil || e.lastUse < old.lastUse {
				oldKey, old = k, e
			}
		}
		if old == nil {
			return
		}
		traceBytes -= old.t.SizeBytes()
		mStreamEvicts.Inc()
		delete(traceCache, oldKey)
	}
}

// Forget drops p's memoized profile and recorded trace, releasing the
// memory they pin. The allocation server calls it when it evicts an
// interned client program: the memo layers are keyed by *ir.Program, so
// without an explicit release a long-running process would accumulate
// one profile and one trace per distinct program it ever saw. An entry
// whose computation is still in flight is left alone (its bytes are
// accounted only on completion); a later Forget can retire it.
func Forget(p *ir.Program) {
	profileMemo.Delete(p)
	traceMu.Lock()
	if e, ok := traceCache[p]; ok && e.t != nil {
		traceBytes -= e.t.SizeBytes()
		delete(traceCache, p)
		mStreamBytes.Set(int64(traceBytes))
	}
	traceMu.Unlock()
}
