package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/layout"
	"repro/internal/memsim"
	"repro/internal/placement"
)

// PlacementRow compares cache-conscious code placement ([10,14]-style
// reordering, no scratchpad) against CASA's scratchpad allocation for one
// configuration — how far does placement alone go?
type PlacementRow struct {
	Workload string
	SPMSize  int
	// Energies in µJ and misses for the four configurations.
	BaselineMicroJ  float64
	HotFirstMicroJ  float64
	ConflictMicroJ  float64
	CASAMicroJ      float64
	BaselineMisses  int64
	HotFirstMisses  int64
	ConflictMisses  int64
	CASAMisses      int64
	BestPlacementVs float64 // best placement's saving over baseline (%)
	CASAVs          float64 // CASA's saving over baseline (%)
}

// PlacementStudyConfig lists the configurations.
type PlacementStudyConfig struct {
	Rows []struct {
		Workload string
		Cache    CacheSpec
		SPMSize  int
	}
}

// DefaultPlacementStudy compares on each benchmark at its Table-1 cache.
func DefaultPlacementStudy() PlacementStudyConfig {
	cfg := PlacementStudyConfig{}
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

// PlacementStudy runs the comparison, one worker per configuration.
func PlacementStudy(ctx context.Context, s *Suite, cfg PlacementStudyConfig) ([]PlacementRow, error) {
	return runCellsOrdered(ctx, s, naturalOrder(len(cfg.Rows)), func(ctx context.Context, i int) (PlacementRow, error) {
		rc := cfg.Rows[i]
		p, err := s.Pipeline(ctx, rc.Workload, rc.Cache, rc.SPMSize)
		if err != nil {
			return PlacementRow{}, err
		}
		return placementRow(ctx, p)
	})
}

func placementRow(ctx context.Context, p *Pipeline) (PlacementRow, error) {
	base, err := p.RunCacheOnly(ctx)
	if err != nil {
		return PlacementRow{}, err
	}
	casa, err := p.RunCASA(ctx)
	if err != nil {
		return PlacementRow{}, err
	}
	shape := placement.CacheShape{
		Sets:      p.Cache.Size / (p.Cache.Line * p.Cache.Assoc),
		LineBytes: p.Cache.Line,
	}
	runOrdered := func(strategy placement.Strategy) (*memsim.Result, error) {
		order, err := placement.Order(p.Set, shape, strategy)
		if err != nil {
			return nil, err
		}
		lay, err := layout.NewOrdered(p.Set, order, layout.Options{})
		if err != nil {
			return nil, err
		}
		return memsim.Run(p.Prog, lay, memsim.Config{
			Cache: p.Cache.cacheConfig(),
			Cost:  p.Cost,
		})
	}
	hot, err := runOrdered(placement.HotFirst)
	if err != nil {
		return PlacementRow{}, err
	}
	conf, err := runOrdered(placement.ConflictAware)
	if err != nil {
		return PlacementRow{}, err
	}

	bestPlacement := hot.TotalEnergyMicroJ()
	if conf.TotalEnergyMicroJ() < bestPlacement {
		bestPlacement = conf.TotalEnergyMicroJ()
	}
	return PlacementRow{
		Workload:        p.Workload,
		SPMSize:         p.SPMSize,
		BaselineMicroJ:  base.EnergyMicroJ,
		HotFirstMicroJ:  hot.TotalEnergyMicroJ(),
		ConflictMicroJ:  conf.TotalEnergyMicroJ(),
		CASAMicroJ:      casa.EnergyMicroJ,
		BaselineMisses:  base.Result.CacheMisses,
		HotFirstMisses:  hot.CacheMisses,
		ConflictMisses:  conf.CacheMisses,
		CASAMisses:      casa.Result.CacheMisses,
		BestPlacementVs: 100 * (base.EnergyMicroJ - bestPlacement) / base.EnergyMicroJ,
		CASAVs:          100 * (base.EnergyMicroJ - casa.EnergyMicroJ) / base.EnergyMicroJ,
	}, nil
}

// WritePlacementStudy renders the study as a text table.
func WritePlacementStudy(w io.Writer, rows []PlacementRow) {
	fmt.Fprintln(w, "Placement study: cache-conscious reordering [10,14] vs. CASA's scratchpad")
	fmt.Fprintf(w, "%-10s %8s %12s %12s %14s %10s %14s %10s\n",
		"workload", "SPM(B)", "base(µJ)", "hot-1st(µJ)", "conflict(µJ)", "CASA(µJ)",
		"placement(%)", "CASA(%)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8d %12.2f %12.2f %14.2f %10.2f %14.1f %10.1f\n",
			r.Workload, r.SPMSize, r.BaselineMicroJ, r.HotFirstMicroJ, r.ConflictMicroJ,
			r.CASAMicroJ, r.BestPlacementVs, r.CASAVs)
	}
}
