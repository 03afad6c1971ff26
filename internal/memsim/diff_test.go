package memsim

// Differential validation of the default engine (recorded trace,
// compiled cache-line probes, derived counters) against the
// instruction-granular reference: both engines must produce
// bit-identical Results — every counter, per-MO split, conflict edge,
// per-set cache statistic and (since energy derives from the counters)
// every float — on a deterministic battery and on fuzz-generated
// programs × layouts × cache configurations.

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/loopcache"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runEngines runs the same (program, layout, hierarchy) through the
// reference and the default engine and returns both results with
// the final cache state retained.
func runEngines(t testing.TB, p *ir.Program, lay *layout.Layout, cfg Config) (ref, got *Result) {
	t.Helper()
	refCfg := cfg
	refCfg.Reference = true
	refCfg.KeepCache = true
	repCfg := cfg
	repCfg.Reference = false
	repCfg.KeepCache = true
	var err error
	if ref, err = Run(p, lay, refCfg); err != nil {
		t.Fatalf("reference Run: %v", err)
	}
	if got, err = Run(p, lay, repCfg); err != nil {
		t.Fatalf("replay Run: %v", err)
	}
	return ref, got
}

// diffResults asserts the replay result is bit-identical to the
// reference result.
func diffResults(t testing.TB, ref, got *Result) {
	t.Helper()
	counters := []struct {
		name     string
		ref, got int64
	}{
		{"Fetches", ref.Fetches, got.Fetches},
		{"SPMAccesses", ref.SPMAccesses, got.SPMAccesses},
		{"LoopCacheAccesses", ref.LoopCacheAccesses, got.LoopCacheAccesses},
		{"CacheAccesses", ref.CacheAccesses, got.CacheAccesses},
		{"CacheHits", ref.CacheHits, got.CacheHits},
		{"CacheMisses", ref.CacheMisses, got.CacheMisses},
		{"L2Accesses", ref.L2Accesses, got.L2Accesses},
		{"L2Hits", ref.L2Hits, got.L2Hits},
		{"L2Misses", ref.L2Misses, got.L2Misses},
		{"ColdMisses", ref.ColdMisses, got.ColdMisses},
		{"ConflictMisses", ref.ConflictMisses, got.ConflictMisses},
		{"MainMemoryFetches", ref.MainMemoryFetches, got.MainMemoryFetches},
		{"Cycles", ref.Cycles, got.Cycles},
	}
	for _, c := range counters {
		if c.ref != c.got {
			t.Errorf("%s: reference %d, replay %d", c.name, c.ref, c.got)
		}
	}
	if len(ref.PerMO) != len(got.PerMO) {
		t.Fatalf("PerMO length: reference %d, replay %d", len(ref.PerMO), len(got.PerMO))
	}
	for i := range ref.PerMO {
		if ref.PerMO[i] != got.PerMO[i] {
			t.Errorf("PerMO[%d]: reference %+v, replay %+v", i, ref.PerMO[i], got.PerMO[i])
		}
	}
	if len(ref.Conflicts) != len(got.Conflicts) {
		t.Errorf("Conflicts size: reference %d, replay %d", len(ref.Conflicts), len(got.Conflicts))
	}
	for k, v := range ref.Conflicts {
		if got.Conflicts[k] != v {
			t.Errorf("Conflicts[%+v]: reference %d, replay %d", k, v, got.Conflicts[k])
		}
	}
	for k, v := range got.Conflicts {
		if _, ok := ref.Conflicts[k]; !ok {
			t.Errorf("Conflicts[%+v]: replay-only edge with weight %d", k, v)
		}
	}
	// Energy is derived from the counters, so equality must be exact,
	// not approximate.
	if ref.Energy != got.Energy {
		t.Errorf("Energy: reference %+v, replay %+v", ref.Energy, got.Energy)
	}
	// Final cache state: per-set residency, owners and statistics.
	if (ref.Cache == nil) != (got.Cache == nil) {
		t.Fatalf("KeepCache: reference kept=%v, replay kept=%v", ref.Cache != nil, got.Cache != nil)
	}
	if ref.Cache != nil {
		var rb, gb bytes.Buffer
		if err := ref.Cache.DumpState(&rb); err != nil {
			t.Fatalf("reference DumpState: %v", err)
		}
		if err := got.Cache.DumpState(&gb); err != nil {
			t.Fatalf("replay DumpState: %v", err)
		}
		if rb.String() != gb.String() {
			t.Errorf("final cache state differs:\n--- reference ---\n%s--- replay ---\n%s",
				rb.String(), gb.String())
		}
		// Replacement order: a walk that drops an all-hit step leaves
		// residency and statistics intact but not the clock and stamps.
		rc, rs := ref.Cache.ReplacementState()
		gc, gs := got.Cache.ReplacementState()
		if rc != gc {
			t.Errorf("replacement clock: reference %d, replay %d", rc, gc)
		}
		for i := range rs {
			if rs[i] != gs[i] {
				t.Errorf("way %d stamp: reference %d, replay %d", i, rs[i], gs[i])
				break
			}
		}
	}
}

// diffL1WithoutL2 asserts that an L2 leaves the L1 in front of it alone:
// cfg's reference run, with its L2, equals the default engine's run
// without the L2 in the L1's hits, misses, cold and conflict misses,
// per-object split and, when tracked, conflict edges. A run with an L2
// always takes the reference engine, so this is where the default engine
// meets two-level hierarchies.
func diffL1WithoutL2(t testing.TB, p *ir.Program, lay *layout.Layout, cfg Config) {
	t.Helper()
	cfg.Reference = true
	with, err := Run(p, lay, cfg)
	if err != nil {
		t.Fatalf("reference Run with L2: %v", err)
	}
	cfg.Reference = false
	cfg.L2 = cache.Config{}
	without, err := Run(p, lay, cfg)
	if err != nil {
		t.Fatalf("Run without L2: %v", err)
	}
	for _, c := range []struct {
		name          string
		with, without int64
	}{
		{"CacheHits", with.CacheHits, without.CacheHits},
		{"CacheMisses", with.CacheMisses, without.CacheMisses},
		{"ConflictMisses", with.ConflictMisses, without.ConflictMisses},
		{"ColdMisses", with.ColdMisses, without.ColdMisses},
	} {
		if c.with != c.without {
			t.Errorf("%s: %d with the L2, %d without", c.name, c.with, c.without)
		}
	}
	if !slices.Equal(with.PerMO, without.PerMO) {
		t.Errorf("PerMO: %+v with the L2, %+v without", with.PerMO, without.PerMO)
	}
	if !maps.Equal(with.Conflicts, without.Conflicts) {
		t.Errorf("Conflicts: %v with the L2, %v without", with.Conflicts, without.Conflicts)
	}
}

// callFixture builds a program whose caller blocks end in calls, so a
// return must fetch the caller's appended jump and charge it to the
// caller's memory object.
func callFixture(t testing.TB) (*ir.Program, *trace.Set) {
	t.Helper()
	pb := ir.NewProgramBuilder("calls")
	f := pb.Func("main")
	f.Block("entry").ALU(1)
	f.Block("loop").ALU(2).Call("leaf")
	f.Block("after").ALU(1).Branch("loop", "done", ir.Loop{Trips: 9})
	f.Block("done").Return()
	lf := pb.Func("leaf")
	lf.Block("body").Code(5).Branch("body", "out", ir.Loop{Trips: 3})
	lf.Block("out").Return()
	p, err := pb.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p, buildTraces(t, p, trace.Options{MaxBytes: 64, LineBytes: 16})
}

// patternFixture builds a program with irregular branch outcomes, so
// trace RLE cannot collapse the stream into a handful of entries.
func patternFixture(t testing.TB) (*ir.Program, *trace.Set) {
	t.Helper()
	pb := ir.NewProgramBuilder("pattern")
	f := pb.Func("main")
	f.Block("a").Code(3).Branch("c", "b", ir.Pattern{Seq: []bool{true, false, false, true, false}})
	f.Block("b").Code(5).Jump("c")
	f.Block("c").Code(7).Branch("a", "end", ir.Loop{Trips: 60})
	f.Block("end").Return()
	p, err := pb.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p, buildTraces(t, p, trace.Options{MaxBytes: 64, LineBytes: 16})
}

func buildTraces(t testing.TB, p *ir.Program, opt trace.Options) *trace.Set {
	t.Helper()
	prof, err := sim.ProfileProgram(p)
	if err != nil {
		t.Fatalf("ProfileProgram: %v", err)
	}
	set, err := trace.Build(p, prof, opt)
	if err != nil {
		t.Fatalf("trace.Build: %v", err)
	}
	return set
}

// hottestTrace returns the ID of the trace with the most fetches.
func hottestTrace(set *trace.Set) int {
	hot := 0
	for _, tr := range set.Traces {
		if tr.Fetches > set.Traces[hot].Fetches {
			hot = tr.ID
		}
	}
	return hot
}

// hotController preloads the hottest trace's exec range into a
// loop-cache controller sized to the next power of two.
func hotController(t testing.TB, set *trace.Set, lay *layout.Layout) *loopcache.Controller {
	t.Helper()
	hot := hottestTrace(set)
	base, size := lay.ExecRange(hot)
	lcSize := 16
	for lcSize < size {
		lcSize *= 2
	}
	ctrl, err := loopcache.NewController(
		loopcache.Config{SizeBytes: lcSize, MaxRegions: 4},
		[]loopcache.Region{{Start: base, End: base + uint32(size), Name: "hot"}},
	)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	return ctrl
}

func TestReplayMatchesReferenceBattery(t *testing.T) {
	programs := []struct {
		name string
		make func(testing.TB) (*ir.Program, *trace.Set)
	}{
		{"thrash", func(tb testing.TB) (*ir.Program, *trace.Set) { return thrashFixture(tb.(*testing.T)) }},
		{"calls", callFixture},
		{"pattern", patternFixture},
	}
	layouts := []struct {
		name  string
		alloc bool // allocate the hottest trace
		opt   layout.Options
	}{
		{"no-spm", false, layout.Options{}},
		{"copy-spm", true, layout.Options{Mode: layout.Copy, SPMSize: 128}},
		{"move-spm", true, layout.Options{Mode: layout.Move, SPMSize: 128}},
		// Window above the code image, so cache-path runs are capped from
		// below as well as served from inside.
		{"spm-above", true, layout.Options{Mode: layout.Copy, SPMSize: 128,
			SPMBase: layout.DefaultMainBase + 1<<20}},
	}
	hierarchies := []struct {
		name  string
		l1    cache.Config
		l2    cache.Config
		useLC bool
	}{
		{name: "dm-64", l1: cache.Config{SizeBytes: 64, LineBytes: 16, Assoc: 1}},
		{name: "2way-lru", l1: cache.Config{SizeBytes: 128, LineBytes: 16, Assoc: 2}},
		{name: "2way-fifo", l1: cache.Config{SizeBytes: 128, LineBytes: 16, Assoc: 2, Replacement: cache.FIFO}},
		{name: "4way-random", l1: cache.Config{SizeBytes: 128, LineBytes: 8, Assoc: 4, Replacement: cache.Random}},
		{name: "word-lines", l1: cache.Config{SizeBytes: 64, LineBytes: 4, Assoc: 2}},
		{name: "dm-32B-lines", l1: cache.Config{SizeBytes: 128, LineBytes: 32, Assoc: 1}},
		{name: "8way-fifo", l1: cache.Config{SizeBytes: 256, LineBytes: 16, Assoc: 8, Replacement: cache.FIFO}},
		{name: "no-cache"},
		{name: "l2", l1: cache.Config{SizeBytes: 64, LineBytes: 16, Assoc: 1},
			l2: cache.Config{SizeBytes: 512, LineBytes: 16, Assoc: 2}},
		{name: "loop-cache", l1: cache.Config{SizeBytes: 64, LineBytes: 16, Assoc: 1}, useLC: true},
	}
	for _, pc := range programs {
		p, set := pc.make(t)
		for _, lc := range layouts {
			var alloc []bool
			if lc.alloc {
				alloc = make([]bool, len(set.Traces))
				alloc[hottestTrace(set)] = true
			}
			lay := mustLayout(t, set, alloc, lc.opt)
			for _, hc := range hierarchies {
				t.Run(fmt.Sprintf("%s/%s/%s", pc.name, lc.name, hc.name), func(t *testing.T) {
					cfg := Config{
						Cache:          hc.l1,
						L2:             hc.l2,
						Cost:           costFor(t, hc.l1, lc.opt.SPMSize),
						TrackConflicts: true,
					}
					if hc.useLC {
						cfg.LoopCache = hotController(t, set, lay)
					}
					if hc.l2.SizeBytes > 0 {
						diffL1WithoutL2(t, p, lay, cfg)
						return
					}
					ref, got := runEngines(t, p, lay, cfg)
					diffResults(t, ref, got)
				})
			}
		}
	}
}

// TestReplayMatchesReferenceAcrossChunks replays mpeg's full recording:
// 352,581 steps, buffered in 19 recorder chunks and stored as 112,961
// entries over a dictionary of 108 runs, so the engine walks every run
// and repeat step of a real trace, not only the few runs the small
// fixtures have. Under the race detector one cache and the plain layout
// keep the pass short.
func TestReplayMatchesReferenceAcrossChunks(t *testing.T) {
	p, err := workload.Load("mpeg")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.CachedTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	repeats := 0
	for _, e := range tr.Entries() {
		if e.Repeat > 0 {
			repeats++
		}
	}
	if n := len(tr.Entries()); n < 100_000 || tr.NumRuns() < 100 || repeats < 1_000 {
		t.Fatalf("mpeg's trace has %d entries (%d repeat steps) over %d runs; want at least 100,000 (1,000) over 100",
			n, repeats, tr.NumRuns())
	}
	const spm = 512
	set := buildTraces(t, p, trace.Options{MaxBytes: spm, LineBytes: 16})
	alloc := make([]bool, len(set.Traces))
	alloc[hottestTrace(set)] = true
	layouts := []struct {
		name string
		lay  *layout.Layout
		spm  int
	}{
		{"no-spm", mustLayout(t, set, nil, layout.Options{}), 0},
		{"copy-spm", mustLayout(t, set, alloc, layout.Options{Mode: layout.Copy, SPMSize: spm}), spm},
	}
	caches := []struct {
		name string
		l1   cache.Config
	}{
		{"dm-2k", cache.Config{SizeBytes: 2048, LineBytes: 16, Assoc: 1}},
		{"2way-lru-1k", cache.Config{SizeBytes: 1024, LineBytes: 16, Assoc: 2}},
	}
	if raceEnabled {
		layouts, caches = layouts[:1], caches[:1]
	}
	for _, lc := range layouts {
		for _, cc := range caches {
			t.Run(lc.name+"/"+cc.name, func(t *testing.T) {
				cfg := Config{Cache: cc.l1, Cost: costFor(t, cc.l1, lc.spm), TrackConflicts: true}
				ref, got := runEngines(t, p, lc.lay, cfg)
				diffResults(t, ref, got)
			})
		}
	}
}

// countLayout bases every block at address 0, names each block's memory
// object after its reference, and materializes an appended jump at the
// odd address 1 after every block. Through it, sim.Run's stream counts
// each block's executions (fetches of address 0) and fall-through exits
// (jump fetches, attributed to their owner) without the trace recorder.
type countLayout struct{}

func (countLayout) BlockBase(ir.BlockRef) uint32                { return 0 }
func (countLayout) BlockMO(ref ir.BlockRef) int                 { return int(ref.Func)<<16 | int(ref.Block) }
func (countLayout) FallJump(ir.BlockRef) (addr uint32, ok bool) { return 1, true }

// checkProfileMatchesCount asserts that p's profile, derived from its
// recorded trace, equals an independent count taken by sim.Run through
// countLayout: block by block, fall edge by fall edge, and in total
// fetches.
func checkProfileMatchesCount(t testing.TB, p *ir.Program) {
	t.Helper()
	prof, err := sim.ProfileProgram(p)
	if err != nil {
		t.Fatalf("ProfileProgram: %v", err)
	}
	execs, falls := map[int]int64{}, map[int]int64{}
	n, err := sim.Run(p, countLayout{}, func(addr uint32, mo int) {
		switch addr {
		case 0:
			execs[mo]++
		case 1:
			falls[mo]++
		}
	})
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	var jumps int64
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			ref := ir.BlockRef{Func: f.ID, Block: b.ID}
			mo := countLayout{}.BlockMO(ref)
			if got := prof.BlockCount(ref); got != execs[mo] {
				t.Errorf("%s/%d: block count %d, counted %d", f.Name, b.ID, got, execs[mo])
			}
			var got int64
			if b.FallThrough != ir.NoBlock {
				got = prof.FallCount(ref, ir.BlockRef{Func: f.ID, Block: b.FallThrough})
			}
			if got != falls[mo] {
				t.Errorf("%s/%d: fall count %d, counted %d", f.Name, b.ID, got, falls[mo])
			}
			jumps += falls[mo]
		}
	}
	if prof.Fetches != n-jumps {
		t.Errorf("profile fetches %d, counted %d", prof.Fetches, n-jumps)
	}
}

// TestProfileMatchesRunCount: the trace-derived profile equals sim.Run's
// independent count on every bundled workload and on random programs.
func TestProfileMatchesRunCount(t *testing.T) {
	var progs []*ir.Program
	for _, name := range workload.Names() {
		p, err := workload.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	for seed := uint64(1); seed <= 20; seed++ {
		p, err := workload.Random(workload.RandomSpec{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	for _, p := range progs {
		t.Run(p.Name, func(t *testing.T) { checkProfileMatchesCount(t, p) })
	}
}

// fuzzReader deals deterministic bytes off the fuzz input, yielding
// zeros once exhausted.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) byte() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// fuzzProgram derives a small, always-terminating program from the fuzz
// input: a chain of blocks with fall-throughs, bounded backward loops,
// pattern-driven forward branches, forward jumps and leaf calls.
// Backward edges only ever carry ir.Loop behaviors (bounded consecutive
// takens), so every generated program halts.
func fuzzProgram(fz *fuzzReader) (*ir.Program, error) {
	pb := ir.NewProgramBuilder("fuzz")
	n := 2 + int(fz.byte()%6)
	hasLeaf := fz.byte()%2 == 0
	labels := make([]string, n+1)
	for i := 0; i < n; i++ {
		labels[i] = fmt.Sprintf("b%d", i)
	}
	labels[n] = "end"
	f := pb.Func("main")
	for i := 0; i < n; i++ {
		bb := f.Block(labels[i]).Code(1 + int(fz.byte()%12))
		forward := func() string {
			return labels[i+1+int(fz.byte())%(n-i)]
		}
		switch fz.byte() % 6 {
		case 0, 1: // fall through
		case 2: // bounded backward loop
			bb.Branch(labels[int(fz.byte())%(i+1)], labels[i+1], ir.Loop{Trips: 1 + int(fz.byte()%7)})
		case 3: // pattern-driven forward branch
			seq := make([]bool, 1+fz.byte()%6)
			for k := range seq {
				seq[k] = fz.byte()%2 == 0
			}
			bb.Branch(forward(), labels[i+1], ir.Pattern{Seq: seq})
		case 4: // forward jump
			bb.Jump(forward())
		case 5:
			if hasLeaf {
				bb.Call("leaf") // resumes at the next block
			}
		}
	}
	f.Block("end").ALU(1).Return()
	if hasLeaf {
		lf := pb.Func("leaf")
		lf.Block("body").Code(1+int(fz.byte()%9)).
			Branch("body", "out", ir.Loop{Trips: 1 + int(fz.byte()%5)})
		lf.Block("out").Return()
	}
	return pb.Build()
}

// FuzzReplayMatchesReference cross-checks the two engines on random
// programs, trace partitions, scratchpad layouts and cache geometries.
func FuzzReplayMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("casa"))
	f.Add([]byte{7, 1, 3, 9, 2, 5, 8, 4, 6, 0, 11, 13, 17, 19, 23, 29, 31, 37})
	f.Add([]byte{255, 254, 253, 3, 128, 64, 32, 16, 8, 4, 2, 1, 0, 255, 127, 63, 200, 100, 50, 25})
	f.Add([]byte{5, 0, 42, 2, 1, 4, 3, 2, 1, 0, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5})
	// A 193-step trace over a cache: both of its recorder buffer
	// boundaries (steps 64 and 192) fall inside runs.
	f.Add([]byte{29, 207, 230, 151, 62, 30, 116, 162, 118, 50, 30, 9, 134, 44, 56, 110, 253, 152, 213, 220,
		157, 132, 239, 44, 195, 244, 27, 163, 111, 101, 170, 188, 55, 91, 45, 211, 63, 174, 59})
	// Traces padded to 8 B under a 2-way cache of 16 B lines, copied to
	// the scratchpad while a trace sharing their cache lines stays in
	// main memory: the copy walk covers 4 of 8 sets.
	f.Add([]byte{165, 228, 21, 172, 125, 247, 103, 213, 230, 187, 172, 160, 191, 255, 43, 249, 178, 178,
		156, 180, 213, 193, 154, 241, 126, 16, 146, 181, 97, 33, 48, 75, 91, 23})
	f.Fuzz(func(t *testing.T, data []byte) {
		fz := &fuzzReader{data: data}
		p, err := fuzzProgram(fz)
		if err != nil {
			t.Skipf("unbuildable program: %v", err)
		}
		checkProfileMatchesCount(t, p)
		set := buildTraces(t, p, trace.Options{
			MaxBytes:  16 << (fz.byte() % 4),
			LineBytes: 4 << (fz.byte() % 5),
		})

		opt := layout.Options{SPMSize: 64 << (fz.byte() % 3)}
		if fz.byte()%2 == 0 {
			opt.Mode = layout.Move
		}
		if fz.byte()%3 == 0 {
			opt.SPMBase = layout.DefaultMainBase + 1<<20
		}
		alloc := make([]bool, len(set.Traces))
		for i := range alloc {
			alloc[i] = fz.byte()%3 == 0
		}
		lay, err := layout.New(set, alloc, opt)
		if err != nil {
			// Allocation overflowed the window; retry unallocated.
			lay = mustLayout(t, set, nil, opt)
		}

		cfg := Config{TrackConflicts: true}
		if fz.byte()%8 != 0 {
			line := 4 << (fz.byte() % 5)
			assoc := 1 << (fz.byte() % 4)
			size := 32 << (fz.byte() % 5)
			if size < line*assoc {
				size = line * assoc
			}
			cfg.Cache = cache.Config{
				SizeBytes:   size,
				LineBytes:   line,
				Assoc:       assoc,
				Replacement: cache.Policy(fz.byte() % 3),
			}
			if fz.byte()%3 == 0 {
				cfg.L2 = cache.Config{SizeBytes: size * 4, LineBytes: line, Assoc: 2}
			}
			if fz.byte()%4 == 0 {
				cfg.LoopCache = hotController(t, set, lay)
			}
		}
		cfg.Cost = costFor(t, cfg.Cache, opt.SPMSize)

		if cfg.L2.SizeBytes > 0 {
			diffL1WithoutL2(t, p, lay, cfg)
			return
		}
		ref, got := runEngines(t, p, lay, cfg)
		diffResults(t, ref, got)
		if lay.Mode() == layout.Copy && cfg.Cache.SizeBytes > 0 && cfg.LoopCache == nil {
			diffCopyWalk(t, p, set, lay, cfg)
		}
	})
}

// diffCopyWalk runs the plain-layout profiling run of a copy layout's
// trace set and then the copy layout given it, which walks only the
// sets its scratchpad traces map to, and diffs that against the
// reference.
func diffCopyWalk(t *testing.T, p *ir.Program, set *trace.Set, lay *layout.Layout, cfg Config) {
	t.Helper()
	plain := mustLayout(t, set, nil, layout.Options{MainBase: lay.MainBase()})
	prof := cfg
	prof.TrackConflicts = true
	base, err := Run(p, plain, prof)
	if err != nil {
		t.Fatalf("profiling Run: %v", err)
	}
	cfg.TrackConflicts = false
	ref := cfg
	ref.Reference = true
	want, err := Run(p, lay, ref)
	if err != nil {
		t.Fatalf("reference Run: %v", err)
	}
	cfg.Baseline = base
	got, err := Run(p, lay, cfg)
	if err != nil {
		t.Fatalf("copy-walk Run: %v", err)
	}
	diffResults(t, want, got)
}
