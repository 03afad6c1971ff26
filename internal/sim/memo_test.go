package sim

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/workload"
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

// expand writes the fetch stream a recording stands for under lay: per
// step, the block's instructions repeat times, then the jump owner's
// appended jump when lay materialized one. It returns the fetch count.
func expand(tr *Trace, lay Layout, sink Fetcher) int64 {
	blocks := tr.Blocks()
	var n int64
	for _, s := range tr.Steps() {
		b := blocks[s.Block]
		base, mo := lay.BlockBase(b.Ref), lay.BlockMO(b.Ref)
		for r := s.Repeat(); r > 0; r-- {
			for i := 0; i < int(b.Instrs); i++ {
				sink.Fetch(base+uint32(i*ir.InstrSize), mo)
			}
			n += int64(b.Instrs)
		}
		if s.Link >= 0 {
			o := blocks[s.Link].Ref
			if addr, ok := lay.FallJump(o); ok {
				sink.Fetch(addr, lay.BlockMO(o))
				n++
			}
		}
	}
	return n
}

// callProgram builds a program with calls, a callee self-loop, branches
// and room for layout-appended jumps, so recorded traces cover every way
// control leaves a block.
func callProgram(t *testing.T) *ir.Program {
	t.Helper()
	pb := ir.NewProgramBuilder("memo-calls")
	main := pb.Func("main")
	main.Block("entry").ALU(1)
	main.Block("loop").ALU(2).Call("leaf")
	main.Block("after").ALU(1).Branch("loop", "done", ir.Loop{Trips: 7})
	main.Block("done").Return()
	leaf := pb.Func("leaf")
	leaf.Block("body").ALU(3).Branch("body", "out", ir.Loop{Trips: 4})
	leaf.Block("out").Return()
	return mustBuild(t, pb)
}

// jumpEverywhere materializes an appended jump after every other block
// of p, far above the code, so expansions fetch jumps both on fall exits
// and on returns into a caller while other exits fetch none.
func jumpEverywhere(p *ir.Program, lay *testLayout) {
	i := uint32(0)
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if i%2 == 0 {
				lay.jumps[ir.BlockRef{Func: f.ID, Block: b.ID}] = 0x8000_0000 + 4*i
			}
			i++
		}
	}
}

// streamMatchesRun checks fetch for fetch that the recording of p,
// expanded under lay, is Run's stream, and that its per-block counts are
// the profile's execution counts and its steps' jump owners. It reports
// whether any step repeats.
func streamMatchesRun(t *testing.T, p *ir.Program, tr *Trace, lay Layout) (repeated bool) {
	t.Helper()
	want := &packedSink{}
	n, err := Run(p, lay, want)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Fetches() >= n {
		t.Fatalf("trace fetches %d should exclude the %d-total run's jumps", tr.Fetches(), n)
	}
	got := &packedSink{}
	if m := expand(tr, lay, got); m != n || int64(len(got.fetches)) != n {
		t.Fatalf("expansion delivered %d (%d seen) fetches, want %d", m, len(got.fetches), n)
	}
	for i := range want.fetches {
		if got.fetches[i] != want.fetches[i] {
			t.Fatalf("fetch %d differs: expanded %#x, Run %#x", i, got.fetches[i], want.fetches[i])
		}
	}

	prof, err := ProfileProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	jumps := make([]int64, len(tr.Blocks()))
	for _, s := range tr.Steps() {
		if s.Link >= 0 {
			jumps[s.Link]++
		}
		repeated = repeated || s.Repeat() > 1
	}
	var execs int64
	for i, b := range tr.Blocks() {
		execs += b.Execs
		if b.Execs != prof.BlockCount(b.Ref) || b.Jumps != jumps[i] {
			t.Fatalf("block %v: execs/jumps %d/%d, want %d/%d",
				b.Ref, b.Execs, b.Jumps, prof.BlockCount(b.Ref), jumps[i])
		}
	}
	if execs != tr.Executions() {
		t.Fatalf("per-block execs sum to %d, trace counts %d", execs, tr.Executions())
	}
	return repeated
}

// packedSink collects a fetch stream as address<<32 | memory object.
type packedSink struct{ fetches []uint64 }

func (s *packedSink) Fetch(addr uint32, mo int) {
	s.fetches = append(s.fetches, uint64(addr)<<32|uint64(uint32(mo)))
}

// TestCachedTraceReplayMatchesRun: the stack-free recording, expanded
// under a layout, is exactly Run's fetch stream on a fixture with calls,
// returns that fetch the caller's jump and taken self-loops, on every
// bundled workload and on random programs.
func TestCachedTraceReplayMatchesRun(t *testing.T) {
	p := callProgram(t)
	lay := newTestLayout(p)
	// The call block's jump is fetched when its *callee returns*; the
	// fall-through blocks' jumps on their own exits.
	lay.jumps[ir.BlockRef{Func: 0, Block: 0}] = 0x400
	lay.jumps[ir.BlockRef{Func: 0, Block: 1}] = 0x440
	lay.jumps[ir.BlockRef{Func: 0, Block: 2}] = 0x480
	tr, err := CachedTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	if !streamMatchesRun(t, p, tr, lay) {
		t.Error("no step repeats; the fixture's taken self-loop was not compressed")
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

	var progs []*ir.Program
	for _, name := range workload.Names() {
		p, err := workload.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	for seed := uint64(1); seed <= 6; seed++ {
		p, err := workload.Random(workload.RandomSpec{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	for _, p := range progs {
		t.Run(p.Name, func(t *testing.T) {
			tr, err := RecordTrace(p)
			if err != nil {
				t.Fatal(err)
			}
			lay := newTestLayout(p)
			jumpEverywhere(p, lay)
			streamMatchesRun(t, p, tr, lay)
		})
	}
}

// TestTraceRLECompression: a hot self-loop must collapse to a handful of
// steps, and the step accessors must expose it faithfully.
func TestTraceRLECompression(t *testing.T) {
	const trips = 1000
	p := loopProgram(t, trips)
	tr, err := RecordTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	// entry(fall), body×trips(taken self-loop repeat + final fall), exit:
	// far fewer steps than block executions.
	steps := tr.Steps()
	if len(steps) >= 10 {
		t.Fatalf("compression failed: %d steps for a %d-trip loop", len(steps), trips)
	}
	if tr.Executions() != int64(trips)+2 {
		t.Fatalf("executions %d, want %d", tr.Executions(), trips+2)
	}
	var maxRepeat int64
	for _, s := range steps {
		maxRepeat = max(maxRepeat, s.Repeat())
	}
	if maxRepeat != int64(trips)-1 {
		t.Errorf("hottest repeat %d, want %d", maxRepeat, trips-1)
	}
	if last := steps[len(steps)-1]; last.Link >= 0 {
		t.Errorf("program-ending return has jump owner %d, want none", last.Link)
	}
	if body := tr.Blocks()[1]; body.Execs != trips || body.Jumps != 1 {
		t.Errorf("loop body execs/jumps %d/%d, want %d/1", body.Execs, body.Jumps, trips)
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
			expand(tr, lay, &packedSink{})
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
	traceCacheCapBytes = 2560 // under two irregular traces' worth
	defer func() { traceCacheCapBytes = oldCap }()

	// Programs with distinct irregular step sequences, each exceeding
	// half the tiny budget, so the third insert must evict the
	// least-recently-used entry.
	progs := []*ir.Program{
		irregularProgram(t, 40),
		irregularProgram(t, 41),
		irregularProgram(t, 42),
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
	if expand(first, newTestLayout(progs[0]), &packedSink{}) == 0 {
		t.Error("evicted trace lost its recording")
	}
}

// irregularProgram alternates between distinct blocks so its trace does
// not compress to nothing (unlike a plain self-loop).
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
		blocks: make([]Block, 1, 10),
		steps:  make([]Step, 2, 100),
	}
	if got, want := tr.SizeBytes(), 10*int(unsafe.Sizeof(Block{}))+100*8; got != want {
		t.Fatalf("SizeBytes = %d, want %d (capacity-based)", got, want)
	}
	if len(tr.Steps()) != 2 {
		t.Fatalf("len(Steps) = %d, want 2", len(tr.Steps()))
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
	if n := len(tr.Steps()); tr.SizeBytes() < 8*n {
		t.Fatalf("SizeBytes %d below the 8·steps floor %d", tr.SizeBytes(), 8*n)
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
	if tr.Executions() == 0 {
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
	// Determinism: the bypassed recording expands byte-identically.
	a, b := &packedSink{}, &packedSink{}
	expand(cached, lay, a)
	expand(fresh, lay, b)
	if !slices.Equal(a.fetches, b.fetches) {
		t.Fatal("fetch streams differ under memo-miss bypass")
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
