package sim

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/ir"
)

func TestCachedProfileMatchesProfileProgram(t *testing.T) {
	p := loopProgram(t, 25)
	want, err := ProfileProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CachedProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fetches != want.Fetches {
		t.Errorf("fetches %d, want %d", got.Fetches, want.Fetches)
	}
	for f := range want.Blocks {
		for b := range want.Blocks[f] {
			if got.Blocks[f][b] != want.Blocks[f][b] {
				t.Errorf("block %d/%d count %d, want %d", f, b, got.Blocks[f][b], want.Blocks[f][b])
			}
		}
	}
}

// TestCachedProfileSingleflight: every caller — concurrent callers
// included — receives the same Profile instance, and the program is
// executed exactly once. Run with -race this is the stress test of the
// memoized profile under concurrent callers.
func TestCachedProfileSingleflight(t *testing.T) {
	p := loopProgram(t, 1000)
	const callers = 32
	got := make([]*Profile, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			prof, err := CachedProfile(p)
			if err != nil {
				t.Error(err)
				return
			}
			// Concurrent read of the shared profile (map + slices).
			_ = prof.BlockCount(ir.BlockRef{Func: 0, Block: 1})
			_ = prof.FallCount(ir.BlockRef{Func: 0, Block: 0}, ir.BlockRef{Func: 0, Block: 1})
			got[i] = prof
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d received a different profile instance", i)
		}
	}
}

// recordingSink collects the fetch stream for comparisons.
type recordingSink struct {
	addrs []uint32
	mos   []int
}

func (r *recordingSink) Fetch(addr uint32, mo int) {
	r.addrs = append(r.addrs, addr)
	r.mos = append(r.mos, mo)
}

// callProgram builds a program with calls, branches and room for a
// layout-appended jump, so recorded traces cover every step kind.
func callProgram(t *testing.T) *ir.Program {
	t.Helper()
	pb := ir.NewProgramBuilder("memo-calls")
	main := pb.Func("main")
	main.Block("entry").ALU(1)
	main.Block("loop").ALU(2).Call("leaf")
	main.Block("after").ALU(1).Branch("loop", "done", ir.Loop{Trips: 7})
	main.Block("done").Return()
	leaf := pb.Func("leaf")
	leaf.Block("body").ALU(3).Return()
	return mustBuild(t, pb)
}

func TestCachedTraceReplayMatchesRun(t *testing.T) {
	p := callProgram(t)
	lay := newTestLayout(p)
	// Jumps on both a fall-through block and a call block: the call
	// block's jump is fetched when its *callee returns*, the trickiest
	// replay case.
	lay.jumps[ir.BlockRef{Func: 0, Block: 2}] = 0x400
	lay.jumps[ir.BlockRef{Func: 0, Block: 1}] = 0x440

	direct := &recordingSink{}
	n, err := Run(p, lay, direct)
	if err != nil {
		t.Fatal(err)
	}

	tr, err := CachedTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Fetches() >= n {
		t.Fatalf("trace fetches %d should exclude the %d-total run's jumps", tr.Fetches(), n)
	}
	replayed := &recordingSink{}
	if got := tr.Replay(lay, replayed); got != n {
		t.Fatalf("replay delivered %d fetches, want %d", got, n)
	}
	if len(replayed.addrs) != int(n) {
		t.Fatalf("sink saw %d fetches, want %d", len(replayed.addrs), n)
	}
	for i := range direct.addrs {
		if direct.addrs[i] != replayed.addrs[i] || direct.mos[i] != replayed.mos[i] {
			t.Fatalf("fetch %d differs: (%#x,%d) vs (%#x,%d)",
				i, direct.addrs[i], direct.mos[i], replayed.addrs[i], replayed.mos[i])
		}
	}

	// Same program → same cached instance; the trace is layout-free, so a
	// different layout shares it too.
	again, err := CachedTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	if again != tr {
		t.Error("trace not memoized")
	}
}

// TestTraceReplayBulkMatchesScalar: a RunFetcher sink must see the same
// fetch stream as a scalar Fetcher, just batched per block.
func TestTraceReplayBulkMatchesScalar(t *testing.T) {
	p := callProgram(t)
	lay := newTestLayout(p)
	lay.jumps[ir.BlockRef{Func: 0, Block: 2}] = 0x400

	tr, err := RecordTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	scalar := &recordingSink{}
	tr.Replay(lay, scalar)

	bulk := &bulkRecordingSink{}
	if n := tr.Replay(lay, bulk); n != int64(len(scalar.addrs)) {
		t.Fatalf("bulk replay count %d, want %d", n, len(scalar.addrs))
	}
	if bulk.runs == 0 {
		t.Fatal("RunFetcher sink never received a bulk run")
	}
	if len(bulk.addrs) != len(scalar.addrs) {
		t.Fatalf("bulk saw %d fetches, scalar %d", len(bulk.addrs), len(scalar.addrs))
	}
	for i := range scalar.addrs {
		if bulk.addrs[i] != scalar.addrs[i] || bulk.mos[i] != scalar.mos[i] {
			t.Fatalf("fetch %d differs: (%#x,%d) vs (%#x,%d)",
				i, bulk.addrs[i], bulk.mos[i], scalar.addrs[i], scalar.mos[i])
		}
	}
}

// bulkRecordingSink implements RunFetcher, expanding runs so the stream
// can be compared fetch-for-fetch, while counting the bulk deliveries.
type bulkRecordingSink struct {
	recordingSink
	runs int
}

func (b *bulkRecordingSink) FetchRun(base uint32, n int, mo int) {
	b.runs++
	for i := 0; i < n; i++ {
		b.Fetch(base+uint32(i*ir.InstrSize), mo)
	}
}

// TestTraceRLECompression: a hot self-loop must collapse to a handful of
// RLE entries, and the step accessors must expose it faithfully.
func TestTraceRLECompression(t *testing.T) {
	const trips = 1000
	p := loopProgram(t, trips)
	tr, err := RecordTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	// entry(fall), body×trips(taken self-loop RLE + final fall), exit:
	// far fewer entries than dynamic steps.
	if tr.NumSteps() >= 10 {
		t.Fatalf("RLE failed: %d entries for a %d-trip loop", tr.NumSteps(), trips)
	}
	if tr.Steps() != int64(trips)+2 {
		t.Fatalf("steps %d, want %d", tr.Steps(), trips+2)
	}
	var maxCount int64
	var kinds []StepKind
	for i := 0; i < tr.NumSteps(); i++ {
		_, _, kind, count := tr.Step(i)
		kinds = append(kinds, kind)
		if count > maxCount {
			maxCount = count
		}
	}
	if maxCount != int64(trips)-1 {
		t.Errorf("hottest RLE count %d, want %d", maxCount, trips-1)
	}
	if kinds[len(kinds)-1] != StepReturn {
		t.Errorf("last step kind %v, want return", kinds[len(kinds)-1])
	}
	if tr.SizeBytes() <= 0 {
		t.Error("SizeBytes not positive")
	}
}

func TestCachedTraceConcurrent(t *testing.T) {
	p := loopProgram(t, 500)
	lay := newTestLayout(p)
	const callers = 16
	traces := make([]*Trace, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := CachedTrace(p)
			if err != nil {
				t.Error(err)
				return
			}
			sink := &recordingSink{}
			tr.Replay(lay, sink)
			traces[i] = tr
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if traces[i] != traces[0] {
			t.Fatalf("caller %d received a different trace instance", i)
		}
	}
}

func TestTraceCacheEviction(t *testing.T) {
	oldCap := traceCacheCapBytes
	traceCacheCapBytes = 2560 // roughly one irregular trace's worth
	defer func() { traceCacheCapBytes = oldCap }()

	// Programs with distinct irregular step sequences, each exceeding
	// half the tiny budget, so the third insert must evict the
	// least-recently-used entry.
	progs := []*ir.Program{
		irregularProgram(t, 20),
		irregularProgram(t, 21),
		irregularProgram(t, 22),
	}
	evictsBefore := mStreamEvicts.Value()
	var first *Trace
	for i, p := range progs {
		tr, err := CachedTrace(p)
		if err != nil {
			t.Fatal(err)
		}
		if tr.SizeBytes() <= traceCacheCapBytes/2 {
			t.Fatalf("fixture too small: %dB trace under %dB budget", tr.SizeBytes(), traceCacheCapBytes)
		}
		if i == 0 {
			first = tr
		}
	}
	traceMu.Lock()
	within := traceBytes <= traceCacheCapBytes
	traceMu.Unlock()
	if !within {
		t.Error("cache exceeds its byte budget after eviction")
	}
	if mStreamEvicts.Value() == evictsBefore {
		t.Error("eviction not counted in casa_stream_cache_evictions_total")
	}
	// The evicted trace stays usable for existing holders.
	sink := &recordingSink{}
	if first.Replay(newTestLayout(progs[0]), sink) == 0 {
		t.Error("evicted trace lost its recording")
	}
}

// irregularProgram alternates between distinct blocks so its trace does
// not RLE-compress to nothing (unlike a plain self-loop).
func irregularProgram(t *testing.T, trips int) *ir.Program {
	t.Helper()
	pb := ir.NewProgramBuilder("irregular")
	f := pb.Func("main")
	f.Block("a").ALU(2)
	f.Block("b").ALU(1).Branch("a", "c", ir.Loop{Trips: trips})
	f.Block("c").ALU(3).Branch("a", "end", ir.Loop{Trips: 2})
	f.Block("end").Return()
	return mustBuild(t, pb)
}

// TestTraceSizeBytesCountsCapacity: the eviction bound must charge what
// the allocator committed (slice capacity), not the logical length.
func TestTraceSizeBytesCountsCapacity(t *testing.T) {
	tr := &Trace{
		blocks: make([]ir.BlockRef, 1, 10),
		instrs: make([]int32, 1, 10),
		idx:    make([]int32, 2, 100),
		kinds:  make([]StepKind, 2, 100),
		counts: make([]int64, 2, 100),
	}
	if got, want := tr.SizeBytes(), 10*(8+4)+100*(4+1+8); got != want {
		t.Fatalf("SizeBytes = %d, want %d (capacity-based)", got, want)
	}
	if tr.NumSteps() != 2 {
		t.Fatalf("NumSteps = %d, want 2", tr.NumSteps())
	}
}

// TestTraceCacheBytesGauge: casa_stream_cache_bytes tracks the exact
// capacity-based byte total of the resident entries (it accounts the
// trace cache; the name predates the trace design).
func TestTraceCacheBytesGauge(t *testing.T) {
	oldCap := traceCacheCapBytes
	traceCacheCapBytes = 1 << 20
	defer func() { traceCacheCapBytes = oldCap }()

	p := loopProgram(t, 33)
	tr, err := CachedTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	if tr.SizeBytes() < 13*tr.NumSteps() {
		t.Fatalf("SizeBytes %d below the 13·steps floor %d", tr.SizeBytes(), 13*tr.NumSteps())
	}

	// The gauge must equal the locked byte total, and that total must be
	// the sum of SizeBytes over resident completed entries.
	traceMu.Lock()
	var want int
	for _, e := range traceCache {
		if e.t != nil {
			want += e.t.SizeBytes()
		}
	}
	got := traceBytes
	traceMu.Unlock()
	if got != want {
		t.Errorf("traceBytes %d != sum of resident SizeBytes %d", got, want)
	}
	if g := mStreamBytes.Value(); g != int64(got) {
		t.Errorf("casa_stream_cache_bytes gauge %d != accounted bytes %d", g, got)
	}
}

// ---- Fault injection and memo robustness ------------------------------------

func TestCachedTraceInjectedReadFault(t *testing.T) {
	fault.Set(fault.NewPlan().On(fault.StreamRead, 1))
	defer fault.Set(nil)

	p := loopProgram(t, 9)
	if _, err := CachedTrace(p); err == nil {
		t.Fatal("injected stream-read fault not surfaced")
	} else {
		var inj *fault.InjectedError
		if !errors.As(err, &inj) {
			t.Fatalf("error %v is not an InjectedError", err)
		}
	}
	// The next (non-faulted) call succeeds: the failure was transient.
	tr, err := CachedTrace(p)
	if err != nil {
		t.Fatalf("post-fault call: %v", err)
	}
	if tr.Steps() == 0 {
		t.Fatal("post-fault trace empty")
	}
}

func TestCachedTraceInjectedMemoMissBypassesCache(t *testing.T) {
	p := loopProgram(t, 13)
	lay := newTestLayout(p)
	cached, err := CachedTrace(p)
	if err != nil {
		t.Fatal(err)
	}

	fault.Set(fault.NewPlan().Always(fault.MemoMiss))
	defer fault.Set(nil)
	fresh, err := CachedTrace(p)
	if err != nil {
		t.Fatalf("memo-miss path: %v", err)
	}
	if fresh == cached {
		t.Fatal("injected memo miss still served the cached instance")
	}
	// Determinism: the bypassed recording replays byte-identically.
	a, b := &recordingSink{}, &recordingSink{}
	cached.Replay(lay, a)
	fresh.Replay(lay, b)
	if len(a.addrs) != len(b.addrs) {
		t.Fatalf("lengths differ: %d vs %d", len(a.addrs), len(b.addrs))
	}
	for i := range a.addrs {
		if a.addrs[i] != b.addrs[i] || a.mos[i] != b.mos[i] {
			t.Fatalf("fetch %d differs under memo-miss bypass", i)
		}
	}
}

func TestCachedProfileInjectedMemoMissBypassesCache(t *testing.T) {
	p := loopProgram(t, 17)
	cached, err := CachedProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	fault.Set(fault.NewPlan().Always(fault.MemoMiss))
	defer fault.Set(nil)
	fresh, err := CachedProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == cached {
		t.Fatal("injected memo miss still served the cached profile")
	}
	if fresh.Fetches != cached.Fetches {
		t.Fatalf("bypassed profile differs: %d vs %d fetches", fresh.Fetches, cached.Fetches)
	}
}

// TestCachedProfileErrorNotPoisoned: a failing profile run must not be
// cached forever — the slot is dropped so a later caller retries instead
// of replaying the stale error.
func TestCachedProfileErrorNotPoisoned(t *testing.T) {
	// Unbounded recursion exceeds the simulator's call-depth limit, a real
	// (non-injected) profiling failure.
	pb := ir.NewProgramBuilder("recurse")
	f := pb.Func("main")
	f.Block("entry").ALU(1).Call("main")
	f.Block("done").Return()
	p := mustBuild(t, pb)

	if _, err := CachedProfile(p); !errors.Is(err, ErrCallDepth) {
		t.Fatalf("want call-depth failure, got %v", err)
	}
	if _, ok := profileMemo.Load(p); ok {
		t.Fatal("failed profile run left a poisoned memo entry")
	}
	// And the retry fails afresh (same program, same error) rather than
	// hitting a cached slot — proving the path stays retryable.
	if _, err := CachedProfile(p); !errors.Is(err, ErrCallDepth) {
		t.Fatalf("retry: want call-depth failure, got %v", err)
	}
}

// TestCachedTraceErrorNotPoisoned: a failing trace recording is likewise
// retryable.
func TestCachedTraceErrorNotPoisoned(t *testing.T) {
	pb := ir.NewProgramBuilder("recurse-trace")
	f := pb.Func("main")
	f.Block("entry").ALU(1).Call("main")
	f.Block("done").Return()
	p := mustBuild(t, pb)

	if _, err := CachedTrace(p); !errors.Is(err, ErrCallDepth) {
		t.Fatalf("want call-depth failure, got %v", err)
	}
	traceMu.Lock()
	_, resident := traceCache[p]
	traceMu.Unlock()
	if resident {
		t.Fatal("failed trace recording left a poisoned memo entry")
	}
	if _, err := CachedTrace(p); !errors.Is(err, ErrCallDepth) {
		t.Fatalf("retry: want call-depth failure, got %v", err)
	}
}
