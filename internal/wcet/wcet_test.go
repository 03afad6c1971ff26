package wcet

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/memsim"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"

	"repro/internal/cache"
	"repro/internal/energy"
)

func costs() Costs {
	return Costs{
		HitCycles:  1,
		MissCycles: 15,
		SPMCycles:  1,
		EHit:       1,
		EMiss:      50,
		ESPM:       0.4,
		LineBytes:  16,
	}
}

func buildSet(t *testing.T, p *ir.Program, spm int) (*trace.Set, *layout.Layout) {
	t.Helper()
	prof, err := sim.ProfileProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	set, err := trace.Build(p, prof, trace.Options{MaxBytes: max(spm, 16), LineBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := layout.New(set, nil, layout.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return set, lay
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestCostsValidate(t *testing.T) {
	bad := []Costs{
		{HitCycles: 0, MissCycles: 10, SPMCycles: 1, LineBytes: 16},
		{HitCycles: 2, MissCycles: 1, SPMCycles: 1, LineBytes: 16},
		{HitCycles: 1, MissCycles: 10, SPMCycles: 0, LineBytes: 16},
		{HitCycles: 1, MissCycles: 10, SPMCycles: 1, LineBytes: 3},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := costs().Validate(); err != nil {
		t.Errorf("good costs rejected: %v", err)
	}
}

func TestSimpleLoopBound(t *testing.T) {
	pb := ir.NewProgramBuilder("p")
	f := pb.Func("main")
	f.Block("pre").ALU(2)
	f.Block("body").Code(3).Branch("body", "post", ir.Loop{Trips: 10})
	f.Block("post").Return()
	p := mustBuild(t, pb)
	_, lay := buildSet(t, p, 4096)

	r, err := Analyze(p, lay, costs())
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	// Sanity: bound must cover the actual execution.
	actual := simulatedCycles(t, p, lay)
	if r.Cycles < actual {
		t.Errorf("bound %d below simulated %d", r.Cycles, actual)
	}
	// And the block-count relaxation should not be absurdly loose here:
	// the body runs exactly 10 times and the bound assumes exactly 10.
	if r.Cycles > actual*20 {
		t.Errorf("bound %d looser than 20x simulated %d", r.Cycles, actual)
	}
}

func TestNestedLoopsMultiply(t *testing.T) {
	pb := ir.NewProgramBuilder("p")
	f := pb.Func("main")
	f.Block("oh").ALU(1)
	f.Block("inner").Code(2).Branch("inner", "latch", ir.Loop{Trips: 5})
	f.Block("latch").ALU(1).Branch("oh", "done", ir.Loop{Trips: 3})
	f.Block("done").Return()
	p := mustBuild(t, pb)
	_, lay := buildSet(t, p, 4096)
	r, err := Analyze(p, lay, costs())
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	actual := simulatedCycles(t, p, lay)
	if r.Cycles < actual {
		t.Errorf("bound %d below simulated %d", r.Cycles, actual)
	}
}

func TestPatternBackEdgeBounded(t *testing.T) {
	pb := ir.NewProgramBuilder("p")
	f := pb.Func("main")
	f.Block("body").Code(2).Branch("body", "post", ir.Pattern{Seq: []bool{true, true, false}})
	f.Block("post").Return()
	p := mustBuild(t, pb)
	_, lay := buildSet(t, p, 4096)
	r, err := Analyze(p, lay, costs())
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	actual := simulatedCycles(t, p, lay)
	if r.Cycles < actual {
		t.Errorf("bound %d below simulated %d", r.Cycles, actual)
	}
}

func TestUnboundableBackEdgeRejected(t *testing.T) {
	pb := ir.NewProgramBuilder("p")
	f := pb.Func("main")
	f.Block("body").Code(2).Branch("body", "post", ir.Biased{P: 0.5, Seed: 1})
	f.Block("post").Return()
	p := mustBuild(t, pb)
	_, lay := buildSet(t, p, 4096)
	_, err := Analyze(p, lay, costs())
	if err == nil || !strings.Contains(err.Error(), "boundable") {
		t.Fatalf("err = %v, want unboundable-back-edge error", err)
	}
}

func TestRecursionRejected(t *testing.T) {
	pb := ir.NewProgramBuilder("p")
	a := pb.Func("a")
	a.Block("x").ALU(1).Call("b")
	a.Block("r").Return()
	b := pb.Func("b")
	b.Block("x").ALU(1).Call("a")
	b.Block("r").Return()
	p := mustBuild(t, pb)
	// A recursive program cannot be profiled; hand the trace builder the
	// all-zero profile of an empty recording instead.
	prof := sim.NewProfile(p, &sim.Trace{})
	set, err := trace.Build(p, prof, trace.Options{MaxBytes: 4096, LineBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	lay, err := layout.New(set, nil, layout.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Analyze(p, lay, costs())
	if err == nil || !strings.Contains(err.Error(), "recursion") {
		t.Fatalf("err = %v, want recursion error", err)
	}
}

func TestCallsAccumulate(t *testing.T) {
	pb := ir.NewProgramBuilder("p")
	main := pb.Func("main")
	main.Block("loop").ALU(1).Call("leaf")
	main.Block("latch").ALU(1).Branch("loop", "done", ir.Loop{Trips: 4})
	main.Block("done").Return()
	leaf := pb.Func("leaf")
	leaf.Block("x").Code(6).Return()
	p := mustBuild(t, pb)
	_, lay := buildSet(t, p, 4096)
	r, err := Analyze(p, lay, costs())
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if r.PerFunc[1].Cycles <= 0 {
		t.Fatal("leaf bound missing")
	}
	// main's bound contains 4x the leaf bound.
	if r.PerFunc[0].Cycles < 4*r.PerFunc[1].Cycles {
		t.Errorf("caller bound %d < 4x leaf %d", r.PerFunc[0].Cycles, r.PerFunc[1].Cycles)
	}
	actual := simulatedCycles(t, p, lay)
	if r.Cycles < actual {
		t.Errorf("bound %d below simulated %d", r.Cycles, actual)
	}
}

// TestSoundnessOnWorkloads: the static bound must dominate the simulated
// cycles for every bundled workload, both without and with a scratchpad,
// and the scratchpad must tighten the bound.
func TestSoundnessOnWorkloadsAndTightening(t *testing.T) {
	for _, name := range workload.Names() {
		p := mustLoad(t, name)
		prof, err := sim.ProfileProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		set, err := trace.Build(p, prof, trace.Options{MaxBytes: 512, LineBytes: 16})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := layout.New(set, nil, layout.Options{})
		if err != nil {
			t.Fatal(err)
		}
		base, err := Analyze(p, plain, costs())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		actual := simulatedCycles(t, p, plain)
		if base.Cycles < actual {
			t.Errorf("%s: bound %d below simulated %d", name, base.Cycles, actual)
		}

		// Put the hottest placeable traces in a 512B scratchpad.
		alloc := make([]bool, len(set.Traces))
		free := 512
		for {
			best := -1
			for _, tr := range set.Traces {
				if alloc[tr.ID] || tr.RawBytes > free || tr.Fetches == 0 {
					continue
				}
				if best < 0 || tr.Fetches > set.Traces[best].Fetches {
					best = tr.ID
				}
			}
			if best < 0 {
				break
			}
			alloc[best] = true
			free -= set.Traces[best].RawBytes
		}
		spmLay, err := layout.New(set, alloc, layout.Options{Mode: layout.Copy, SPMSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		withSPM, err := Analyze(p, spmLay, costs())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if withSPM.Cycles >= base.Cycles {
			t.Errorf("%s: scratchpad did not tighten WCET: %d vs %d",
				name, withSPM.Cycles, base.Cycles)
		}
		actualSPM := simulatedCycles(t, p, spmLay)
		if withSPM.Cycles < actualSPM {
			t.Errorf("%s: SPM bound %d below simulated %d", name, withSPM.Cycles, actualSPM)
		}
	}
}

func TestLongestCyclicRun(t *testing.T) {
	cases := []struct {
		seq  []bool
		want int
	}{
		{nil, 0},
		{[]bool{false}, 0},
		{[]bool{true}, 1},
		{[]bool{true, true, false}, 2},
		{[]bool{true, false, true}, 2}, // wraps around
		{[]bool{false, true, true, true, false, true}, 3},
	}
	for _, c := range cases {
		if got := longestCyclicRun(c.seq); got != c.want {
			t.Errorf("longestCyclicRun(%v) = %d, want %d", c.seq, got, c.want)
		}
	}
}

// simulatedCycles runs memsim with the matching timing/cache and returns
// the measured cycles.
func simulatedCycles(t *testing.T, p *ir.Program, lay *layout.Layout) int64 {
	t.Helper()
	c := costs()
	tm := memsim.Timing{
		SPM:       c.SPMCycles,
		LoopCache: 1,
		CacheHit:  c.HitCycles,
		// missCycles = hit + setup + perWord*words: 1 + 6 + 2*4 = 15.
		MissSetup:   6,
		MissPerWord: 2,
	}
	ccfg := cache.Config{SizeBytes: 1024, LineBytes: c.LineBytes, Assoc: 1}
	cost := mustCost(t, energy.Config{
		Cache:    energy.CacheGeometry{SizeBytes: 1024, LineBytes: c.LineBytes, Assoc: 1},
		SPMBytes: 512,
	})
	res, err := memsim.Run(p, lay, memsim.Config{Cache: ccfg, Cost: cost, Timing: &tm})
	if err != nil {
		t.Fatal(err)
	}
	return res.Cycles
}

// TestSoundnessOnRandomPrograms: the random generator uses only counted
// loops for back edges, so every generated program is analyzable; the
// bound must dominate simulation for all of them.
func TestSoundnessOnRandomPrograms(t *testing.T) {
	for seed := uint64(200); seed < 230; seed++ {
		p, err := workload.Random(workload.RandomSpec{Seed: seed, Funcs: 4, SegmentsPerFunc: 5})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prof, err := sim.ProfileProgram(p, sim.WithMaxFetches(1<<24))
		if err != nil {
			t.Fatal(err)
		}
		set, err := trace.Build(p, prof, trace.Options{MaxBytes: 256, LineBytes: 16})
		if err != nil {
			t.Fatal(err)
		}
		lay, err := layout.New(set, nil, layout.Options{})
		if err != nil {
			t.Fatal(err)
		}
		bound, err := Analyze(p, lay, costs())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		actual := simulatedCycles(t, p, lay)
		if bound.Cycles < actual {
			t.Errorf("seed %d: bound %d below simulated %d", seed, bound.Cycles, actual)
		}
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

// mustLoad builds a named workload, failing the test on error.
func mustLoad(t testing.TB, name string) *ir.Program {
	t.Helper()
	p, err := workload.Load(name)
	if err != nil {
		t.Fatalf("Load(%s): %v", name, err)
	}
	return p
}

// mustCost builds a cost model, failing the test on error.
func mustCost(t testing.TB, cfg energy.Config) energy.CostModel {
	t.Helper()
	cm, err := energy.NewCostModel(cfg)
	if err != nil {
		t.Fatalf("NewCostModel: %v", err)
	}
	return cm
}
