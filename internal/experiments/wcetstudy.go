package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/layout"
	"repro/internal/memsim"
	"repro/internal/wcet"
)

// WCETRow compares static worst-case fetch-cycle bounds for one
// configuration: cache-only layout vs. the CASA-allocated layout. The
// paper's introduction claims scratchpads "allow tighter bounds on WCET
// prediction of the system"; this study quantifies the claim — every
// scratchpad fetch is deterministic, while cacheable fetches must be
// assumed to miss.
type WCETRow struct {
	Workload string
	SPMSize  int
	// Static bounds (fetch cycles).
	CacheOnlyBound int64
	CASABound      int64
	// Observed cycles from simulation, for context (bound/observed is the
	// analysis pessimism).
	CacheOnlyObserved int64
	CASAObserved      int64
	// TighteningPct is the bound reduction CASA buys.
	TighteningPct float64
}

// WCETStudyConfig selects the configurations to bound.
type WCETStudyConfig struct {
	Rows []struct {
		Workload string
		Cache    CacheSpec
		SPMSize  int
	}
}

// DefaultWCETStudy bounds each benchmark at its Table-1 cache with a
// mid-sized scratchpad.
func DefaultWCETStudy() WCETStudyConfig {
	cfg := WCETStudyConfig{}
	add := func(w string, cache CacheSpec, spm int) {
		cfg.Rows = append(cfg.Rows, struct {
			Workload string
			Cache    CacheSpec
			SPMSize  int
		}{w, cache, spm})
	}
	add("adpcm", DM(128), 128)
	add("g721", DM(1024), 256)
	add("mpeg", DM(2048), 512)
	return cfg
}

// WCETStudy runs the study, one worker per configuration.
func WCETStudy(ctx context.Context, s *Suite, cfg WCETStudyConfig) ([]WCETRow, error) {
	return runCellsOrdered(ctx, s, naturalOrder(len(cfg.Rows)), func(ctx context.Context, i int) (WCETRow, error) {
		rc := cfg.Rows[i]
		p, err := s.Pipeline(ctx, rc.Workload, rc.Cache, rc.SPMSize)
		if err != nil {
			return WCETRow{}, err
		}
		return wcetRow(ctx, p)
	})
}

func wcetRow(ctx context.Context, p *Pipeline) (WCETRow, error) {
	timing := memsim.DefaultTiming()
	lineWords := int64((p.Cache.Line + 3) / 4)
	costs := wcet.Costs{
		HitCycles:  timing.CacheHit,
		MissCycles: timing.CacheHit + timing.MissSetup + timing.MissPerWord*lineWords,
		SPMCycles:  timing.SPM,
		EHit:       p.Cost.CacheHit,
		EMiss:      p.Cost.CacheMiss,
		ESPM:       p.Cost.SPMAccess,
		LineBytes:  p.Cache.Line,
	}

	plain, err := layout.New(p.Set, nil, layout.Options{})
	if err != nil {
		return WCETRow{}, err
	}
	baseBound, err := wcet.Analyze(p.Prog, plain, costs)
	if err != nil {
		return WCETRow{}, err
	}
	baseRun, err := p.RunCacheOnly(ctx)
	if err != nil {
		return WCETRow{}, err
	}

	alloc, err := p.CASAAllocation(ctx)
	if err != nil {
		return WCETRow{}, err
	}
	casaLay, err := layout.New(p.Set, alloc.InSPM, layout.Options{
		Mode: layout.Copy, SPMSize: p.SPMSize,
	})
	if err != nil {
		return WCETRow{}, err
	}
	casaBound, err := wcet.Analyze(p.Prog, casaLay, costs)
	if err != nil {
		return WCETRow{}, err
	}
	casaRun, err := p.RunCASA(ctx)
	if err != nil {
		return WCETRow{}, err
	}

	return WCETRow{
		Workload:          p.Workload,
		SPMSize:           p.SPMSize,
		CacheOnlyBound:    baseBound.Cycles,
		CASABound:         casaBound.Cycles,
		CacheOnlyObserved: baseRun.Result.Cycles,
		CASAObserved:      casaRun.Result.Cycles,
		TighteningPct:     100 * float64(baseBound.Cycles-casaBound.Cycles) / float64(baseBound.Cycles),
	}, nil
}

// WriteWCETStudy renders the study as a text table.
func WriteWCETStudy(w io.Writer, rows []WCETRow) {
	fmt.Fprintln(w, "WCET study: static fetch-cycle bounds, cache-only vs. CASA layout")
	fmt.Fprintf(w, "%-8s %8s %16s %16s %12s %16s %16s\n",
		"workload", "SPM(B)", "bound(cache)", "bound(CASA)", "tighter(%)",
		"observed(cache)", "observed(CASA)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %8d %16d %16d %12.1f %16d %16d\n",
			r.Workload, r.SPMSize, r.CacheOnlyBound, r.CASABound, r.TighteningPct,
			r.CacheOnlyObserved, r.CASAObserved)
	}
}
