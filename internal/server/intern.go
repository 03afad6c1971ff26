package server

import (
	"container/list"
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"repro/internal/asm"
	"repro/internal/ir"
	"repro/internal/obs"
)

var (
	mInternHits   = obs.GetCounter("casa_server_program_intern_hits_total")
	mInternMisses = obs.GetCounter("casa_server_program_intern_misses_total")
	mInternEvicts = obs.GetCounter("casa_server_program_evictions_total")
)

// internTable deduplicates client-supplied programs by source hash.
// The sim memo layers (profile, recorded trace) key on *ir.Program
// identity, so two requests carrying the same asm text only profile and
// trace the program once — but only if they resolve to the same Program
// instance, which is exactly what interning provides. The table is a
// bounded LRU; eviction hands the program to release, which drops its
// memo entries and warm donors, so a long-running daemon cannot
// accumulate one profile per program it ever saw.
type internTable struct {
	mu      sync.Mutex
	max     int
	m       map[[32]byte]*list.Element
	ll      *list.List // front = most recently used
	release func(*ir.Program)
}

type internEntry struct {
	hash [32]byte
	once sync.Once
	// done is set (after prog/err are written) when the parse finished;
	// it orders the evictor's read of prog against the leader's write.
	done atomic.Bool
	prog *ir.Program
	err  error
}

func newInternTable(max int, release func(*ir.Program)) *internTable {
	if max < 1 {
		max = 1
	}
	return &internTable{max: max, m: make(map[[32]byte]*list.Element), ll: list.New(), release: release}
}

// program returns the canonical *ir.Program for src, parsing it at most
// once per distinct source (singleflight: concurrent first requests
// share one parse). hit reports whether the source was already
// interned — the request trace records it, since an intern hit is the
// difference between re-profiling a program and reusing its memos.
// Parse errors are returned to every caller of the same source but are
// not retained — the entry is dropped so the table only holds real
// programs.
func (t *internTable) program(src string) (_ *ir.Program, hit bool, _ error) {
	h := sha256.Sum256([]byte(src))
	t.mu.Lock()
	el, ok := t.m[h]
	var e *internEntry
	var evicted []*ir.Program
	if ok {
		t.ll.MoveToFront(el)
		e = el.Value.(*internEntry)
	} else {
		e = &internEntry{hash: h}
		t.m[h] = t.ll.PushFront(e)
		for t.ll.Len() > t.max {
			old := t.ll.Back()
			t.ll.Remove(old)
			oe := old.Value.(*internEntry)
			delete(t.m, oe.hash)
			// An entry evicted while its parse is still running keeps its
			// eventual memos and donors (the leader creates them after
			// this point); that leak is bounded by the in-flight request
			// count and the table has no safe way to forget a program
			// mid-solve.
			if oe.done.Load() && oe.prog != nil {
				evicted = append(evicted, oe.prog)
			}
			mInternEvicts.Inc()
		}
	}
	t.mu.Unlock()
	for _, p := range evicted {
		t.release(p)
	}
	if ok {
		mInternHits.Inc()
	} else {
		mInternMisses.Inc()
	}

	e.once.Do(func() {
		e.prog, e.err = asm.ParseString(src, "request")
		e.done.Store(true)
		if e.err != nil {
			t.mu.Lock()
			if el, ok := t.m[h]; ok && el.Value.(*internEntry) == e {
				t.ll.Remove(el)
				delete(t.m, h)
			}
			t.mu.Unlock()
		}
	})
	return e.prog, ok, e.err
}

// shedAll empties the table, releasing every parsed program — its sim
// memos (profiles, recorded traces, stream caches) and warm donors — the
// memory watchdog's second lever. Entries whose parse is still running
// keep their eventual memos, exactly like a racing eviction; the leak
// is bounded by the in-flight request count.
func (t *internTable) shedAll() int {
	t.mu.Lock()
	n := t.ll.Len()
	var progs []*ir.Program
	for el := t.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*internEntry)
		if e.done.Load() && e.prog != nil {
			progs = append(progs, e.prog)
		}
	}
	t.m = make(map[[32]byte]*list.Element)
	t.ll = list.New()
	t.mu.Unlock()
	for _, p := range progs {
		t.release(p)
	}
	if n > 0 {
		mInternEvicts.Add(int64(n))
	}
	return n
}

// len returns the number of interned programs.
func (t *internTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ll.Len()
}
