package overlay

import (
	"testing"

	"repro/internal/conflict"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// prep profiles a program and builds its trace set and conflict-free graph
// (overlay tests exercise phases and capacity; conflict handling is
// covered by the core tests).
func prep(t *testing.T, p *ir.Program, spm int) (*trace.Set, *conflict.Graph) {
	t.Helper()
	prof, err := sim.ProfileProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	set, err := trace.Build(p, prof, trace.Options{MaxBytes: spm, LineBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	fetches := make([]int64, len(set.Traces))
	for i, tr := range set.Traces {
		fetches[i] = tr.Fetches
	}
	return set, conflict.New(fetches)
}

func params(spm int) Params {
	return Params{
		SPMSize:       spm,
		ESPHit:        0.2,
		ECacheHit:     0.5,
		ECacheMiss:    40,
		CopySetupNJ:   20,
		CopyPerWordNJ: 10,
	}
}

func TestDiscoverTwoPassPhases(t *testing.T) {
	p := mustTwoPass(t)
	set, _ := prep(t, p, 512)
	ph, err := Discover(p, set)
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	// main: entry | pass1 loop | mid | pass2 loop | done+exit = 5 phases.
	if ph.NumPhases() != 5 {
		t.Fatalf("got %d phases: %+v", ph.NumPhases(), ph.List)
	}
	// The transform kernels belong to the pass-1 loop phase, the encode
	// kernels to the pass-2 loop phase, and they differ.
	fidOf := func(name string) ir.FuncID {
		for _, f := range p.Funcs {
			if f.Name == name {
				return f.ID
			}
		}
		t.Fatalf("no function %q", name)
		return -1
	}
	p1 := ph.FuncPhase[fidOf("transform_even")]
	if ph.FuncPhase[fidOf("transform_odd")] != p1 {
		t.Error("pass-1 kernels split across phases")
	}
	p2 := ph.FuncPhase[fidOf("encode_low")]
	if ph.FuncPhase[fidOf("encode_high")] != p2 {
		t.Error("pass-2 kernels split across phases")
	}
	if p1 == p2 || p1 == SharedPhase || p2 == SharedPhase {
		t.Errorf("passes not separated: %d vs %d", p1, p2)
	}
	// The entry function is shared.
	if ph.FuncPhase[p.Entry] != SharedPhase {
		t.Error("entry function must be shared")
	}
	// Trace phases follow function phases.
	for _, tr := range set.Traces {
		if ph.TracePhase[tr.ID] != ph.FuncPhase[tr.Blocks[0].Func] {
			t.Errorf("trace %d phase mismatch", tr.ID)
		}
	}
}

func TestSharedFunctionDetected(t *testing.T) {
	pb := ir.NewProgramBuilder("shared")
	main := pb.Func("main")
	main.Block("l1").Code(2).Call("util")
	main.Block("l1t").Code(1).Branch("l1", "l2", ir.Loop{Trips: 10})
	main.Block("l2").Code(2).Call("util")
	main.Block("l2t").Code(1).Branch("l2", "end", ir.Loop{Trips: 10})
	main.Block("end").Return()
	util := pb.Func("util")
	util.Block("b").Code(5).Return()
	p, err := pb.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	set, _ := prep(t, p, 512)
	ph, err := Discover(p, set)
	if err != nil {
		t.Fatal(err)
	}
	if ph.FuncPhase[1] != SharedPhase {
		t.Errorf("util called from two phases must be shared, got %d", ph.FuncPhase[1])
	}
}

func TestAllocateGivesEachPassFullCapacity(t *testing.T) {
	p := mustTwoPass(t)
	const spm = 256
	set, g := prep(t, p, spm)
	ph, err := Discover(p, set)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Allocate(set, g, ph, params(spm))
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	// Both passes must get placements, and the totals across passes must
	// exceed the scratchpad size (the overlay's whole point).
	totalPlaced := 0
	placedPhases := map[int]bool{}
	for i, phs := range a.PhaseOf {
		if phs == NotPlaced {
			continue
		}
		totalPlaced += set.Traces[i].RawBytes
		placedPhases[phs] = true
	}
	if totalPlaced <= spm {
		t.Errorf("placed only %dB across phases; overlay should exceed %dB", totalPlaced, spm)
	}
	if len(placedPhases) < 2 {
		t.Errorf("placements in %d phases, want ≥ 2: %v", len(placedPhases), a.PhaseOf)
	}
	for pi, used := range a.UsedBytes {
		if used > spm {
			t.Errorf("phase %d image %dB exceeds %dB", pi, used, spm)
		}
	}
	if a.CopyEnergyNJ <= 0 {
		t.Error("copy energy not accounted")
	}
}

func TestOverlayLayoutSimulates(t *testing.T) {
	p := mustTwoPass(t)
	const spm = 256
	set, g := prep(t, p, spm)
	ph, err := Discover(p, set)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Allocate(set, g, ph, params(spm))
	if err != nil {
		t.Fatal(err)
	}
	phase, num := LayoutPhases(set, a, ph)
	lay, err := layout.NewOverlay(set, phase, num, layout.Options{
		Mode: layout.Copy, SPMSize: spm,
	})
	if err != nil {
		t.Fatalf("NewOverlay: %v", err)
	}
	// Every placed trace executes from the scratchpad window.
	var spmFetches int64
	total, err := sim.Run(p, lay, func(addr uint32, mo int) {
		if lay.IsSPMAddr(addr) {
			spmFetches++
			if a.PhaseOf[mo] == NotPlaced {
				t.Fatalf("unplaced trace %d fetched from scratchpad", mo)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if spmFetches == 0 || spmFetches >= total {
		t.Errorf("implausible SPM fetch share: %d of %d", spmFetches, total)
	}
}

func TestCopyCostModel(t *testing.T) {
	prm := params(256)
	c := prm.CopyCost(100) // 25 words
	want := 20 + 10*25.0
	if c != want {
		t.Errorf("CopyCost(100) = %g, want %g", c, want)
	}
	if prm.CopyCost(0) != 20 {
		t.Errorf("CopyCost(0) should be setup only")
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{SPMSize: -1, ESPHit: 1, ECacheHit: 2, ECacheMiss: 3},
		{SPMSize: 64, ESPHit: 0, ECacheHit: 2, ECacheMiss: 3},
		{SPMSize: 64, ESPHit: 1, ECacheHit: 2, ECacheMiss: 2},
		{SPMSize: 64, ESPHit: 1, ECacheHit: 2, ECacheMiss: 3, CopySetupNJ: -1},
	}
	p := mustTwoPass(t)
	set, g := prep(t, p, 64)
	ph, err := Discover(p, set)
	if err != nil {
		t.Fatal(err)
	}
	for i, prm := range bad {
		if _, err := Allocate(set, g, ph, prm); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSingleLoopProgramDegeneratesGracefully(t *testing.T) {
	// adpcm has one big top-level loop: phases exist (pre, loop, post) but
	// nearly all heat is in one phase; overlay must still work and not
	// beat... it must at least be a valid allocation.
	p := mustLoad(t, "adpcm")
	const spm = 128
	prof, err := sim.ProfileProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	set, err := trace.Build(p, prof, trace.Options{MaxBytes: spm, LineBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	fetches := make([]int64, len(set.Traces))
	for i, tr := range set.Traces {
		fetches[i] = tr.Fetches
	}
	g := conflict.New(fetches)
	ph, err := Discover(p, set)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Allocate(set, g, ph, params(spm))
	if err != nil {
		t.Fatal(err)
	}
	for pi, used := range a.UsedBytes {
		if used > spm {
			t.Errorf("phase %d over capacity: %d", pi, used)
		}
	}
}

// TestDiscoverPropertyOnRandomPrograms: phases must partition the entry
// function's blocks in order, and every trace must map to SharedPhase or
// a valid phase.
func TestDiscoverPropertyOnRandomPrograms(t *testing.T) {
	for seed := uint64(50); seed < 80; seed++ {
		p, err := workload.Random(workload.RandomSpec{Seed: seed, Funcs: 5, SegmentsPerFunc: 6})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		set, _ := prep(t, p, 256)
		ph, err := Discover(p, set)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		entry := p.Func(p.Entry)
		covered := 0
		next := ir.BlockID(0)
		for _, phase := range ph.List {
			for _, b := range phase.EntryBlocks {
				if b != next {
					t.Fatalf("seed %d: phases not a textual partition (block %d, want %d)",
						seed, b, next)
				}
				next++
				covered++
			}
		}
		if covered != len(entry.Blocks) {
			t.Fatalf("seed %d: phases cover %d of %d entry blocks",
				seed, covered, len(entry.Blocks))
		}
		for i, tp := range ph.TracePhase {
			if tp != SharedPhase && (tp < 0 || tp >= ph.NumPhases()) {
				t.Fatalf("seed %d: trace %d has phase %d", seed, i, tp)
			}
		}
	}
}

func TestPhaseNamesAndInSPMHelper(t *testing.T) {
	p := mustTwoPass(t)
	set, g := prep(t, p, 256)
	ph, err := Discover(p, set)
	if err != nil {
		t.Fatal(err)
	}
	// Phase names reference either the dominant callee or a block range.
	for _, phase := range ph.List {
		if phase.Name == "" {
			t.Errorf("phase %d unnamed", phase.ID)
		}
	}
	a, err := Allocate(set, g, ph, params(256))
	if err != nil {
		t.Fatal(err)
	}
	in := a.InSPM()
	for i, phs := range a.PhaseOf {
		if (phs != NotPlaced) != in[i] {
			t.Errorf("InSPM()[%d] inconsistent with PhaseOf", i)
		}
	}
}

func TestAllocateGraphMismatch(t *testing.T) {
	p := mustTwoPass(t)
	set, _ := prep(t, p, 256)
	ph, err := Discover(p, set)
	if err != nil {
		t.Fatal(err)
	}
	bad := conflict.New(make([]int64, 3))
	if _, err := Allocate(set, bad, ph, params(256)); err == nil {
		t.Error("graph mismatch accepted")
	}
}

// mustTwoPass builds the two-pass workload, failing the test on error.
func mustTwoPass(t testing.TB) *ir.Program {
	t.Helper()
	p, err := workload.TwoPass()
	if err != nil {
		t.Fatalf("TwoPass: %v", err)
	}
	return p
}

// mustLoad builds a named workload, failing the test on error.
func mustLoad(t testing.TB, name string) *ir.Program {
	t.Helper()
	p, err := workload.Load(name)
	if err != nil {
		t.Fatalf("Load(%s): %v", name, err)
	}
	return p
}
