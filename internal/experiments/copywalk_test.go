package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/memsim"
	"repro/internal/obs"
)

// copyWalkCells are the grid cells the copy-walk oracle covers: every
// Figure 4 and sensitivity cell, and Table 1's adpcm and g721 cells.
func copyWalkCells() []struct {
	workload string
	cache    CacheSpec
	spm      int
} {
	type cell = struct {
		workload string
		cache    CacheSpec
		spm      int
	}
	var cells []cell
	f4 := DefaultFig4()
	for _, size := range f4.SPMSizes {
		cells = append(cells, cell{f4.Workload, f4.Cache, size})
	}
	sens := DefaultSensitivity()
	for _, spec := range sens.Variants {
		cells = append(cells, cell{sens.Workload, spec, sens.SPMSize})
	}
	for _, b := range DefaultTable1().Benchmarks {
		if b.Workload == "mpeg" {
			continue // Figure 4's cells
		}
		for _, size := range b.MemSizes {
			cells = append(cells, cell{b.Workload, b.Cache, size})
		}
	}
	return cells
}

// randomSelection draws a feasible copy selection: traces in random
// order, each taken with probability 1/2 while it fits.
func randomSelection(rng *rand.Rand, p *Pipeline) []bool {
	in := make([]bool, len(p.Set.Traces))
	used := 0
	for _, i := range rng.Perm(len(in)) {
		if t := p.Set.Traces[i]; rng.Intn(2) == 0 && used+t.RawBytes <= p.SPMSize {
			in[i] = true
			used += t.RawBytes
		}
	}
	return in
}

// sameResult reports where two results differ in any counter, per-object
// split, energy or cycle count (floats compared exactly).
func sameResult(want, got *memsim.Result) error {
	w, g := *want, *got
	w.SetsWalked, g.SetsWalked = 0, 0
	if reflect.DeepEqual(w, g) {
		return nil
	}
	return fmt.Errorf("want %+v\n got %+v", w, g)
}

// TestCopyWalkMatchesFullWalk: a copy layout given the profiling run
// walks only the sets its scratchpad traces map to, and its result
// equals the full walk's and the reference engine's in every counter,
// per-object split, energy and cycle count — for CASA's, greedy's and
// random feasible selections on every grid cell. Random replacement
// and the runs checkFullWalkFallbacks lists take the full walk.
func TestCopyWalkMatchesFullWalk(t *testing.T) {
	ctx := context.Background()
	s := NewSuite()
	cells := copyWalkCells()
	randoms := 5
	if raceEnabled {
		cells, randoms = cells[len(cells)-1:], 2 // g721's 1 kB scratchpad
	}
	rng := rand.New(rand.NewSource(26))
	restricted, setLocal := 0, 0
	for _, c := range cells {
		p, err := s.Pipeline(ctx, c.workload, c.cache, c.spm)
		if err != nil {
			t.Fatal(err)
		}
		casa, err := p.CASAAllocation(ctx)
		if err != nil {
			t.Fatal(err)
		}
		greedy, err := core.GreedyAllocate(ctx, p.Set, p.Graph, p.casaParams())
		if err != nil {
			t.Fatal(err)
		}
		sels := [][]bool{casa.InSPM, greedy.InSPM}
		for range randoms {
			sels = append(sels, randomSelection(rng, p))
		}
		sets := p.Cache.cacheConfig().Sets()
		for k, in := range sels {
			name := fmt.Sprintf("%s/%+v/%d/sel%d", c.workload, c.cache, c.spm, k)
			lay, err := layout.New(p.Set, in, layout.Options{Mode: layout.Copy, SPMSize: p.SPMSize})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cfg := memsim.Config{Cache: p.Cache.cacheConfig(), Cost: p.Cost}
			full, err := memsim.Run(p.Prog, lay, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := cfg
			ref.Reference = true
			want, err := memsim.Run(p.Prog, lay, ref)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Baseline = p.Baseline
			got, err := memsim.Run(p.Prog, lay, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameResult(want, full); err != nil {
				t.Errorf("%s: full walk vs reference:\n%v", name, err)
			}
			if err := sameResult(want, got); err != nil {
				t.Errorf("%s: restricted walk vs reference:\n%v", name, err)
			}
			if full.SetsWalked != sets {
				t.Errorf("%s: full walk walked %d of %d sets", name, full.SetsWalked, sets)
			}
			if c.cache.Policy == cache.Random {
				if got.SetsWalked != sets {
					t.Errorf("%s: random replacement walked %d of %d sets, want the full walk", name, got.SetsWalked, sets)
				}
				continue
			}
			setLocal++
			if got.SetsWalked < sets {
				restricted++
			}
		}
	}
	// Selections whose traces reach every set (adpcm's 8-set cache) take
	// the full walk; the oracle must still mostly exercise the other path.
	if 2*restricted < setLocal {
		t.Errorf("%d of %d selections took the restricted walk, want at least half", restricted, setLocal)
	}
	t.Logf("%d of %d selections took the restricted walk", restricted, setLocal)
	t.Run("fallbacks", func(t *testing.T) { checkFullWalkFallbacks(t, s) })
}

// checkFullWalkFallbacks: a second level, conflict tracking, a retained
// cache and a profiling run recorded for another cache, trace set or
// main base all take the full walk, with the full walk's result.
func checkFullWalkFallbacks(t *testing.T, s *Suite) {
	ctx := context.Background()
	p, err := s.Pipeline(ctx, "g721", DM(1024), 256)
	if err != nil {
		t.Fatal(err)
	}
	other, err := s.Pipeline(ctx, "g721", DM(1024), 512)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := p.CASAAllocation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	opt := layout.Options{Mode: layout.Copy, SPMSize: p.SPMSize}
	lay, err := layout.New(p.Set, alloc.InSPM, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.MainBase = layout.DefaultMainBase + 64
	shifted, err := layout.New(p.Set, alloc.InSPM, opt)
	if err != nil {
		t.Fatal(err)
	}
	l1 := p.Cache.cacheConfig()
	base := memsim.Config{Cache: l1, Cost: p.Cost, Baseline: p.Baseline}
	if r, err := memsim.Run(p.Prog, lay, base); err != nil || r.SetsWalked >= l1.Sets() {
		t.Fatalf("matching run: walked %v sets (err %v), want fewer than %d", r.SetsWalked, err, l1.Sets())
	}
	twoWay := cache.Config{SizeBytes: 1024, LineBytes: 16, Assoc: 2}
	cases := []struct {
		name string
		lay  *layout.Layout
		cfg  func(memsim.Config) memsim.Config
	}{
		{"l2", lay, func(c memsim.Config) memsim.Config {
			c.L2 = cache.Config{SizeBytes: 4096, LineBytes: 16, Assoc: 2}
			return c
		}},
		{"track-conflicts", lay, func(c memsim.Config) memsim.Config { c.TrackConflicts = true; return c }},
		{"keep-cache", lay, func(c memsim.Config) memsim.Config { c.KeepCache = true; return c }},
		{"other-cache", lay, func(c memsim.Config) memsim.Config { c.Cache = twoWay; return c }},
		{"other-trace-set", lay, func(c memsim.Config) memsim.Config { c.Baseline = other.Baseline; return c }},
		{"other-main-base", shifted, func(c memsim.Config) memsim.Config { return c }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg(base)
			got, err := memsim.Run(p.Prog, tc.lay, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if sets := cfg.Cache.Sets(); got.SetsWalked != sets {
				t.Errorf("walked %d of %d sets, want the full walk", got.SetsWalked, sets)
			}
			cfg.Baseline = nil
			want, err := memsim.Run(p.Prog, tc.lay, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want.Cache, got.Cache = nil, nil
			if err := sameResult(want, got); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestSimulateSpanReportsSetsWalked: the simulate span of a CASA run
// says how many cache sets it walked — fewer than the cache has on a
// direct-mapped cell, all of them under Random replacement.
func TestSimulateSpanReportsSetsWalked(t *testing.T) {
	for _, tc := range []struct {
		spec    CacheSpec
		partial bool
	}{
		{DM(1024), true},
		{CacheSpec{Size: 1024, Line: 16, Assoc: 2, Policy: cache.Random}, false},
	} {
		tr := obs.NewTracer()
		ctx := obs.WithTracer(context.Background(), tr)
		p, err := NewSuite().Pipeline(ctx, "g721", tc.spec, 256)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.RunCASA(ctx); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range tr.Roots() {
			r.Walk(func(sp *obs.Span) {
				if sp.Name != "simulate" || sp.Attrs["allocator"] != "casa" {
					return
				}
				found = true
				walked, sets := sp.Attrs["sets_walked"].(int), sp.Attrs["sets"].(int)
				if sets != tc.spec.cacheConfig().Sets() || (walked < sets) != tc.partial {
					t.Errorf("%+v: span says %d of %d sets walked", tc.spec, walked, sets)
				}
			})
		}
		if !found {
			t.Errorf("%+v: no simulate span for the CASA run", tc.spec)
		}
	}
}
