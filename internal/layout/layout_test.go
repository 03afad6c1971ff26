package layout

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/trace"
)

// fixture builds a program with several traces:
//   - main: prologue | hot loop | epilogue
//   - leaf: called from the loop
func fixture(t *testing.T) *trace.Set {
	t.Helper()
	pb := ir.NewProgramBuilder("fix")
	f := pb.Func("main")
	f.Block("pro").Code(6).Jump("loop") // own trace (ends in jump)
	f.Block("epi").Code(4)
	f.Block("end").Return()
	f.Block("loop").Code(10).Call("leaf")
	f.Block("latch").Code(2).Branch("loop", "exit", ir.Loop{Trips: 50})
	f.Block("exit").ALU(1).Jump("epi")
	leaf := pb.Func("leaf")
	leaf.Block("l").Code(5).Return()
	p, err := pb.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	prof, err := sim.ProfileProgram(p)
	if err != nil {
		t.Fatalf("ProfileProgram: %v", err)
	}
	set, err := trace.Build(p, prof, trace.Options{MaxBytes: 128, LineBytes: 16})
	if err != nil {
		t.Fatalf("trace.Build: %v", err)
	}
	if err := set.Validate(); err != nil {
		t.Fatalf("set.Validate: %v", err)
	}
	return set
}

func TestModeString(t *testing.T) {
	if Copy.String() != "copy" || Move.String() != "move" {
		t.Error("mode names wrong")
	}
	if !strings.HasPrefix(Mode(9).String(), "mode(") {
		t.Errorf("Mode(9) = %q", Mode(9).String())
	}
}

func TestNoSPMLayoutIsContiguous(t *testing.T) {
	set := fixture(t)
	l, err := New(set, nil, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	addr := DefaultMainBase
	for _, tr := range set.Traces {
		if got := l.TraceBase(tr.ID); got != addr {
			t.Errorf("trace %d base %#x, want %#x", tr.ID, got, addr)
		}
		if l.InSPM(tr.ID) {
			t.Errorf("trace %d unexpectedly in SPM", tr.ID)
		}
		mb, ok := l.MainImageBase(tr.ID)
		if !ok || mb != addr {
			t.Errorf("trace %d main image %#x/%v", tr.ID, mb, ok)
		}
		addr += uint32(tr.PaddedBytes)
	}
	if l.MainImageBytes() != set.TotalPaddedBytes() {
		t.Errorf("image bytes %d, want %d", l.MainImageBytes(), set.TotalPaddedBytes())
	}
	if l.SPMUsed() != 0 {
		t.Errorf("SPMUsed = %d, want 0", l.SPMUsed())
	}
}

func TestBlockAddressesFollowOffsets(t *testing.T) {
	set := fixture(t)
	l := mustNew(t, set, nil, Options{})
	for _, tr := range set.Traces {
		for _, m := range tr.Blocks {
			want := l.TraceBase(tr.ID) + uint32(set.OffsetOf(m))
			if got := l.BlockBase(m); got != want {
				t.Errorf("block %v base %#x, want %#x", m, got, want)
			}
			if l.BlockMO(m) != tr.ID {
				t.Errorf("block %v MO %d, want %d", m, l.BlockMO(m), tr.ID)
			}
		}
	}
}

func TestFallJumpPlacement(t *testing.T) {
	set := fixture(t)
	l := mustNew(t, set, nil, Options{})
	for _, tr := range set.Traces {
		last := tr.Blocks[len(tr.Blocks)-1]
		addr, ok := l.FallJump(last)
		if ok != tr.HasJump {
			t.Errorf("trace %d FallJump ok=%v, HasJump=%v", tr.ID, ok, tr.HasJump)
		}
		if ok {
			want := l.TraceBase(tr.ID) + uint32(tr.RawBytes) - ir.InstrSize
			if addr != want {
				t.Errorf("trace %d jump at %#x, want %#x", tr.ID, addr, want)
			}
		}
		// Non-last blocks never carry a fall jump.
		for _, m := range tr.Blocks[:len(tr.Blocks)-1] {
			if _, ok := l.FallJump(m); ok {
				t.Errorf("mid-trace block %v has a fall jump", m)
			}
		}
	}
}

func TestCopySemantics(t *testing.T) {
	set := fixture(t)
	alloc := make([]bool, len(set.Traces))
	// Put the hottest trace in SPM.
	hot := 0
	for _, tr := range set.Traces {
		if tr.Fetches > set.Traces[hot].Fetches {
			hot = tr.ID
		}
	}
	alloc[hot] = true
	l, err := New(set, alloc, Options{Mode: Copy, SPMSize: 1024})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if !l.InSPM(hot) {
		t.Fatal("hot trace not in SPM")
	}
	if !l.IsSPMAddr(l.TraceBase(hot)) {
		t.Errorf("hot trace executes from %#x, not in SPM window", l.TraceBase(hot))
	}
	// Copy: the main image still contains the trace, and every other
	// trace keeps its no-SPM address.
	if _, ok := l.MainImageBase(hot); !ok {
		t.Error("copy semantics must keep the main-image slot")
	}
	plain := mustNew(t, set, nil, Options{})
	for _, tr := range set.Traces {
		if tr.ID == hot {
			continue
		}
		if l.TraceBase(tr.ID) != plain.TraceBase(tr.ID) {
			t.Errorf("copy semantics moved trace %d: %#x vs %#x",
				tr.ID, l.TraceBase(tr.ID), plain.TraceBase(tr.ID))
		}
	}
	if l.SPMUsed() != set.Traces[hot].RawBytes {
		t.Errorf("SPMUsed = %d, want %d (NOPs stripped)", l.SPMUsed(), set.Traces[hot].RawBytes)
	}
}

func TestMoveSemanticsShiftsDownstream(t *testing.T) {
	set := fixture(t)
	if len(set.Traces) < 3 {
		t.Skip("fixture produced too few traces")
	}
	alloc := make([]bool, len(set.Traces))
	alloc[0] = true // move the first trace out
	l, err := New(set, alloc, Options{Mode: Move, SPMSize: 1024})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, ok := l.MainImageBase(0); ok {
		t.Error("moved trace must not keep a main-image slot")
	}
	plain := mustNew(t, set, nil, Options{})
	shift := uint32(set.Traces[0].PaddedBytes)
	for _, tr := range set.Traces[1:] {
		want := plain.TraceBase(tr.ID) - shift
		if got := l.TraceBase(tr.ID); got != want {
			t.Errorf("trace %d base %#x, want shifted %#x", tr.ID, got, want)
		}
	}
	if l.MainImageBytes() != set.TotalPaddedBytes()-set.Traces[0].PaddedBytes {
		t.Errorf("image bytes %d after move", l.MainImageBytes())
	}
}

func TestSPMOverflowRejected(t *testing.T) {
	set := fixture(t)
	alloc := make([]bool, len(set.Traces))
	for i := range alloc {
		alloc[i] = true
	}
	_, err := New(set, alloc, Options{Mode: Copy, SPMSize: 16})
	if err == nil {
		t.Fatal("expected overflow error")
	}
}

func TestAllocationLengthChecked(t *testing.T) {
	set := fixture(t)
	_, err := New(set, make([]bool, 1), Options{})
	if err == nil && len(set.Traces) != 1 {
		t.Fatal("expected length error")
	}
}

func TestWindowOverlapRejected(t *testing.T) {
	set := fixture(t)
	alloc := make([]bool, len(set.Traces))
	alloc[0] = true
	_, err := New(set, alloc, Options{
		Mode:     Copy,
		SPMBase:  DefaultMainBase - 8,
		SPMSize:  1024,
		MainBase: DefaultMainBase,
	})
	if err == nil {
		t.Fatal("expected overlap error")
	}
}

func TestIsSPMAddrAndWindow(t *testing.T) {
	set := fixture(t)
	alloc := make([]bool, len(set.Traces))
	alloc[0] = true
	l := mustNew(t, set, alloc, Options{Mode: Copy, SPMSize: 256})
	base, size := l.SPMWindow()
	if size != 256 {
		t.Errorf("window size %d", size)
	}
	if !l.IsSPMAddr(base) || !l.IsSPMAddr(base+255) || l.IsSPMAddr(base+256) {
		t.Error("window membership wrong")
	}
	// Without an SPM nothing is an SPM address.
	plain := mustNew(t, set, nil, Options{})
	if plain.IsSPMAddr(0) {
		t.Error("no-SPM layout claims SPM addresses")
	}
}

func TestExecRange(t *testing.T) {
	set := fixture(t)
	l := mustNew(t, set, nil, Options{})
	for _, tr := range set.Traces {
		base, size := l.ExecRange(tr.ID)
		if base != l.TraceBase(tr.ID) || size != tr.RawBytes {
			t.Errorf("ExecRange(%d) = %#x/%d", tr.ID, base, size)
		}
	}
}

func TestNewRejectsMismatchedAllocation(t *testing.T) {
	set := fixture(t)
	if _, err := New(set, make([]bool, 99), Options{}); err == nil {
		t.Fatal("New accepted a mismatched allocation vector")
	}
}

// mustNew builds a layout, failing the test on error.
func mustNew(t *testing.T, set *trace.Set, alloc []bool, opt Options) *Layout {
	t.Helper()
	l, err := New(set, alloc, opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return l
}

// End-to-end: running the simulator over a copy layout redirects the
// allocated trace's fetches into the SPM window and leaves the stream
// otherwise consistent.
func TestRunOverLayouts(t *testing.T) {
	set := fixture(t)
	plain := mustNew(t, set, nil, Options{})
	var plainN, spmN int64
	total1, err := sim.Run(set.Prog, plain, func(addr uint32, mo int) {
		if plain.IsSPMAddr(addr) {
			spmN++
		} else {
			plainN++
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if spmN != 0 {
		t.Errorf("no-SPM layout produced %d SPM fetches", spmN)
	}

	hot := 0
	for _, tr := range set.Traces {
		if tr.Fetches > set.Traces[hot].Fetches {
			hot = tr.ID
		}
	}
	alloc := make([]bool, len(set.Traces))
	alloc[hot] = true
	cl := mustNew(t, set, alloc, Options{Mode: Copy, SPMSize: 1024})
	var spmFetch, mainFetch int64
	total2, err := sim.Run(set.Prog, cl, func(addr uint32, mo int) {
		if cl.IsSPMAddr(addr) {
			spmFetch++
			if mo != hot {
				t.Fatalf("SPM fetch attributed to MO %d, want %d", mo, hot)
			}
		} else {
			mainFetch++
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if total1 != total2 {
		t.Errorf("fetch totals differ between layouts: %d vs %d", total1, total2)
	}
	if spmFetch != set.Traces[hot].Fetches {
		t.Errorf("SPM fetches %d, want f_i=%d", spmFetch, set.Traces[hot].Fetches)
	}
}

func TestNewOverlayBasics(t *testing.T) {
	set := fixture(t)
	n := len(set.Traces)
	phase := make([]int, n)
	for i := range phase {
		phase[i] = -1
	}
	// Put the first two traces in different phases: their scratchpad
	// addresses may coincide.
	if n < 2 {
		t.Skip("fixture too small")
	}
	phase[0], phase[1] = 0, 1
	l, err := NewOverlay(set, phase, 2, Options{Mode: Copy, SPMSize: 1024})
	if err != nil {
		t.Fatalf("NewOverlay: %v", err)
	}
	if !l.InSPM(0) || !l.InSPM(1) {
		t.Fatal("phased traces not in SPM")
	}
	if l.TraceBase(0) != l.TraceBase(1) {
		t.Errorf("different phases should pack from the same base: %#x vs %#x",
			l.TraceBase(0), l.TraceBase(1))
	}
	// Copy semantics: main image intact for everything.
	for _, tr := range set.Traces {
		if _, ok := l.MainImageBase(tr.ID); !ok {
			t.Errorf("trace %d lost its main-image slot", tr.ID)
		}
	}
}

func TestNewOverlayPerPhaseCapacity(t *testing.T) {
	set := fixture(t)
	n := len(set.Traces)
	phase := make([]int, n)
	for i := range phase {
		phase[i] = 0 // everything in one phase: must exceed a tiny SPM
	}
	if _, err := NewOverlay(set, phase, 1, Options{Mode: Copy, SPMSize: 16}); err == nil {
		t.Fatal("expected per-phase capacity error")
	}
}

func TestNewOverlayRejectsBadInput(t *testing.T) {
	set := fixture(t)
	n := len(set.Traces)
	if _, err := NewOverlay(set, make([]int, n+1), 1, Options{Mode: Copy, SPMSize: 64}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	phase := make([]int, n)
	for i := range phase {
		phase[i] = -1
	}
	phase[0] = 5
	if _, err := NewOverlay(set, phase, 2, Options{Mode: Copy, SPMSize: 1024}); err == nil {
		t.Fatal("out-of-range phase accepted")
	}
	if _, err := NewOverlay(set, phase, 6, Options{Mode: Move, SPMSize: 1024}); err == nil {
		t.Fatal("move semantics accepted for overlay")
	}
}
