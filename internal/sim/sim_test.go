package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ir"
)

// loopProgram: entry(2 instrs) -> body(4+branch) looping N times -> exit(ret).
func loopProgram(t *testing.T, trips int) *ir.Program {
	t.Helper()
	pb := ir.NewProgramBuilder("loop")
	f := pb.Func("main")
	f.Block("entry").ALU(2)
	f.Block("body").Code(4).Branch("body", "exit", ir.Loop{Trips: trips})
	f.Block("exit").Return()
	p, err := pb.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func TestProfileLoopCounts(t *testing.T) {
	const trips = 10
	p := loopProgram(t, trips)
	prof, err := ProfileProgram(p)
	if err != nil {
		t.Fatalf("ProfileProgram: %v", err)
	}
	entry := ir.BlockRef{Func: 0, Block: 0}
	body := ir.BlockRef{Func: 0, Block: 1}
	exit := ir.BlockRef{Func: 0, Block: 2}
	if got := prof.BlockCount(entry); got != 1 {
		t.Errorf("entry count = %d, want 1", got)
	}
	if got := prof.BlockCount(body); got != trips {
		t.Errorf("body count = %d, want %d", got, trips)
	}
	if got := prof.BlockCount(exit); got != 1 {
		t.Errorf("exit count = %d, want 1", got)
	}
	// Fetches: entry 2, body (4+1 branch)*10, exit 1 (ret).
	want := int64(2 + 5*trips + 1)
	if prof.Fetches != want {
		t.Errorf("fetches = %d, want %d", prof.Fetches, want)
	}
	// Fall edges: entry->body x1; body->exit x1. The taken back edge
	// body->body is not a fall edge, and neither is a non-successor.
	if got := prof.FallCount(entry, body); got != 1 {
		t.Errorf("entry->body fall = %d, want 1", got)
	}
	if got := prof.FallCount(body, body); got != 0 {
		t.Errorf("body->body fall = %d, want 0 (taken edge)", got)
	}
	if got := prof.FallCount(entry, exit); got != 0 {
		t.Errorf("entry->exit fall = %d, want 0 (not a successor)", got)
	}
	if got := prof.FallCount(body, exit); got != 1 {
		t.Errorf("body->exit fall = %d, want 1", got)
	}
}

func TestProfileCallsAndReturns(t *testing.T) {
	pb := ir.NewProgramBuilder("calls")
	main := pb.Func("main")
	main.Block("entry").ALU(1)
	main.Block("loop").ALU(2).Call("leaf")
	main.Block("after").ALU(1).Branch("loop", "done", ir.Loop{Trips: 5})
	main.Block("done").Return()
	leaf := pb.Func("leaf")
	leaf.Block("body").ALU(3).Return()
	p := mustBuild(t, pb)

	prof, err := ProfileProgram(p)
	if err != nil {
		t.Fatalf("ProfileProgram: %v", err)
	}
	leafBody := ir.BlockRef{Func: 1, Block: 0}
	if got := prof.BlockCount(leafBody); got != 5 {
		t.Errorf("leaf executed %d times, want 5", got)
	}
	loop := ir.BlockRef{Func: 0, Block: 1}
	after := ir.BlockRef{Func: 0, Block: 2}
	// Return continuation is a fall edge from the call block.
	if got := prof.FallCount(loop, after); got != 5 {
		t.Errorf("return continuation = %d, want 5", got)
	}
}

func TestProfileDeterminism(t *testing.T) {
	pb := ir.NewProgramBuilder("rand")
	f := pb.Func("main")
	f.Block("h").ALU(1)
	f.Block("c").ALU(1).Branch("x", "y", ir.Biased{P: 0.3, Seed: 99})
	f.Block("x").ALU(2).Jump("m")
	f.Block("y").ALU(3)
	f.Block("m").ALU(1).Branch("c", "exit", ir.Loop{Trips: 1000})
	f.Block("exit").Return()
	p := mustBuild(t, pb)

	a, err := ProfileProgram(p)
	if err != nil {
		t.Fatalf("ProfileProgram: %v", err)
	}
	b, err := ProfileProgram(p)
	if err != nil {
		t.Fatalf("ProfileProgram: %v", err)
	}
	if a.Fetches != b.Fetches {
		t.Errorf("fetches differ across runs: %d vs %d", a.Fetches, b.Fetches)
	}
	if !reflect.DeepEqual(a.Blocks, b.Blocks) || !reflect.DeepEqual(a.falls, b.falls) {
		t.Error("block or fall counts differ across runs")
	}
	// Biased split roughly 30/70.
	x := ir.BlockRef{Func: 0, Block: 2}
	cnt := a.BlockCount(x)
	if cnt < 200 || cnt > 400 {
		t.Errorf("biased taken count = %d, want ~300", cnt)
	}
}

func TestFetchLimit(t *testing.T) {
	// Infinite loop: jump to self.
	pb := ir.NewProgramBuilder("inf")
	pb.Func("main").Block("a").ALU(1).Jump("a")
	p := mustBuild(t, pb)
	_, err := ProfileProgram(p, WithMaxFetches(1000))
	if !errors.Is(err, ErrFetchLimit) {
		t.Fatalf("err = %v, want ErrFetchLimit", err)
	}
}

func TestCallDepthLimit(t *testing.T) {
	// Unbounded recursion: main calls itself unconditionally.
	pb := ir.NewProgramBuilder("rec")
	f := pb.Func("main")
	f.Block("a").ALU(1).Call("main")
	f.Block("b").Return()
	p := mustBuild(t, pb)
	_, err := ProfileProgram(p)
	if !errors.Is(err, ErrCallDepth) {
		t.Fatalf("err = %v, want ErrCallDepth", err)
	}
}

// testLayout places blocks contiguously in textual order and can mark
// blocks as having appended jumps.
type testLayout struct {
	base  map[ir.BlockRef]uint32
	mo    map[ir.BlockRef]int
	jumps map[ir.BlockRef]uint32
}

func newTestLayout(p *ir.Program) *testLayout {
	l := &testLayout{
		base:  make(map[ir.BlockRef]uint32),
		mo:    make(map[ir.BlockRef]int),
		jumps: make(map[ir.BlockRef]uint32),
	}
	addr := uint32(0)
	mo := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			ref := ir.BlockRef{Func: f.ID, Block: b.ID}
			l.base[ref] = addr
			l.mo[ref] = mo
			addr += uint32(b.Size())
			mo++
		}
	}
	return l
}

func (l *testLayout) BlockBase(ref ir.BlockRef) uint32 { return l.base[ref] }
func (l *testLayout) BlockMO(ref ir.BlockRef) int      { return l.mo[ref] }
func (l *testLayout) FallJump(ref ir.BlockRef) (uint32, bool) {
	a, ok := l.jumps[ref]
	return a, ok
}

type recordingFetcher struct {
	addrs []uint32
	mos   []int
}

func (r *recordingFetcher) Fetch(addr uint32, mo int) {
	r.addrs = append(r.addrs, addr)
	r.mos = append(r.mos, mo)
}

func TestRunEmitsSequentialAddresses(t *testing.T) {
	p := loopProgram(t, 2)
	lay := newTestLayout(p)
	var rec recordingFetcher
	total, err := Run(p, lay, rec.Fetch)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if total != int64(len(rec.addrs)) {
		t.Fatalf("total = %d, recorded %d", total, len(rec.addrs))
	}
	// entry: 2 instrs at 0,4; body: 5 instrs at 8..24 twice; exit: 1 at 28.
	want := []uint32{0, 4, 8, 12, 16, 20, 24, 8, 12, 16, 20, 24, 28}
	if len(rec.addrs) != len(want) {
		t.Fatalf("stream length = %d, want %d: %v", len(rec.addrs), len(want), rec.addrs)
	}
	for i := range want {
		if rec.addrs[i] != want[i] {
			t.Fatalf("addr[%d] = %d, want %d (stream %v)", i, rec.addrs[i], want[i], rec.addrs)
		}
	}
	// MO IDs follow blocks.
	if rec.mos[0] != 0 || rec.mos[2] != 1 || rec.mos[len(rec.mos)-1] != 2 {
		t.Errorf("mo stream wrong: %v", rec.mos)
	}
}

func TestRunEmitsAppendedJumps(t *testing.T) {
	p := loopProgram(t, 3)
	lay := newTestLayout(p)
	// Pretend the body->exit fall-through needs an appended jump at 0x1000.
	body := ir.BlockRef{Func: 0, Block: 1}
	lay.jumps[body] = 0x1000
	var rec recordingFetcher
	_, err := Run(p, lay, rec.Fetch)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	found := 0
	for _, a := range rec.addrs {
		if a == 0x1000 {
			found++
		}
	}
	// The fall-through path out of body executes once (loop exit); the
	// entry->body fall-through has no appended jump.
	if found != 1 {
		t.Errorf("appended jump fetched %d times, want 1", found)
	}
}

func TestRunJumpFetchOnReturnContinuation(t *testing.T) {
	pb := ir.NewProgramBuilder("callret")
	main := pb.Func("main")
	main.Block("a").ALU(1).Call("leaf")
	main.Block("b").Return()
	leaf := pb.Func("leaf")
	leaf.Block("l").ALU(1).Return()
	p := mustBuild(t, pb)
	lay := newTestLayout(p)
	callBlock := ir.BlockRef{Func: 0, Block: 0}
	lay.jumps[callBlock] = 0x2000
	var rec recordingFetcher
	_, err := Run(p, lay, rec.Fetch)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	found := false
	for _, a := range rec.addrs {
		if a == 0x2000 {
			found = true
		}
	}
	if !found {
		t.Error("return continuation did not fetch the appended jump")
	}
}

func TestRunMatchesProfileFetches(t *testing.T) {
	p := loopProgram(t, 25)
	prof, err := ProfileProgram(p)
	if err != nil {
		t.Fatalf("ProfileProgram: %v", err)
	}
	lay := newTestLayout(p) // no appended jumps
	var n int64
	total, err := Run(p, lay, func(uint32, int) { n++ })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if total != prof.Fetches || n != prof.Fetches {
		t.Errorf("Run total = %d (cb %d), profile = %d", total, n, prof.Fetches)
	}
}

func TestWithMaxFetchesBoundary(t *testing.T) {
	// A program with exactly N fetches runs with limit N but fails with
	// limit N-1.
	pb := ir.NewProgramBuilder("exact")
	pb.Func("main").Block("a").ALU(4).Return() // 5 fetches
	p := mustBuild(t, pb)
	if _, err := ProfileProgram(p, WithMaxFetches(5)); err != nil {
		t.Errorf("limit == fetches must pass: %v", err)
	}
	if _, err := ProfileProgram(p, WithMaxFetches(4)); !errors.Is(err, ErrFetchLimit) {
		t.Errorf("limit < fetches must fail, got %v", err)
	}
}

func TestDeepButBoundedRecursionViaChain(t *testing.T) {
	// A deep call chain (not recursion) must work: 100 functions calling
	// the next.
	pb := ir.NewProgramBuilder("chain")
	const depth = 100
	for i := 0; i < depth; i++ {
		f := pb.Func(fmt.Sprintf("f%d", i))
		if i+1 < depth {
			f.Block("a").ALU(1).Call(fmt.Sprintf("f%d", i+1))
			f.Block("b").Return()
		} else {
			f.Block("a").ALU(1).Return()
		}
	}
	p := mustBuild(t, pb)
	prof, err := ProfileProgram(p)
	if err != nil {
		t.Fatalf("deep chain: %v", err)
	}
	if prof.Fetches == 0 {
		t.Fatal("no fetches")
	}
}

// mustBuild finalizes a builder, failing the test on error.
func mustBuild(t testing.TB, pb *ir.ProgramBuilder) *ir.Program {
	t.Helper()
	p, err := pb.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}
