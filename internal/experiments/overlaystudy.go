package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/energy"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/memsim"
	"repro/internal/overlay"
	"repro/internal/workload"
)

// OverlayRow compares static CASA against the overlay extension for one
// configuration. Overlay energy includes the modelled scratchpad reload
// cost.
type OverlayRow struct {
	Workload string
	SPMSize  int
	Phases   int
	// Energies in µJ.
	StaticMicroJ  float64
	OverlayMicroJ float64
	CopyMicroJ    float64
	// GainPct is the overlay's saving over static CASA (negative when the
	// reload cost outweighs the extra capacity).
	GainPct float64
}

// OverlayStudyConfig lists the configurations to compare.
type OverlayStudyConfig struct {
	Rows []struct {
		Program *ir.Program
		Cache   CacheSpec
		SPMSize int
	}
}

// DefaultOverlayStudy compares the two allocation disciplines on the
// two-pass batch workload (where overlay should win: two temporally
// disjoint hot working sets, each scratchpad-sized) and on mpeg (where a
// single hot phase dominates and overlay should roughly tie).
func DefaultOverlayStudy() (OverlayStudyConfig, error) {
	cfg := OverlayStudyConfig{}
	add := func(p *ir.Program, cache CacheSpec, spm int) {
		cfg.Rows = append(cfg.Rows, struct {
			Program *ir.Program
			Cache   CacheSpec
			SPMSize int
		}{p, cache, spm})
	}
	two, err := workload.TwoPass()
	if err != nil {
		return cfg, err
	}
	mpeg, err := workload.Shared("mpeg")
	if err != nil {
		return cfg, err
	}
	add(two, DM(256), 192)
	add(two, DM(256), 256)
	add(mpeg, DM(2048), 256)
	return cfg, nil
}

// OverlayStudy runs the comparison, one worker per configuration.
func OverlayStudy(ctx context.Context, s *Suite, cfg OverlayStudyConfig) ([]OverlayRow, error) {
	return runCellsOrdered(ctx, s, naturalOrder(len(cfg.Rows)), func(ctx context.Context, i int) (OverlayRow, error) {
		rc := cfg.Rows[i]
		return overlayRow(ctx, rc.Program, rc.Cache, rc.SPMSize)
	})
}

func overlayRow(ctx context.Context, prog *ir.Program, cacheSpec CacheSpec, spmSize int) (OverlayRow, error) {
	pipe, err := PrepareProgram(ctx, prog, cacheSpec, spmSize)
	if err != nil {
		return OverlayRow{}, err
	}
	static, err := pipe.RunCASA(ctx)
	if err != nil {
		return OverlayRow{}, err
	}

	phases, err := overlay.Discover(prog, pipe.Set)
	if err != nil {
		return OverlayRow{}, err
	}
	prm := overlay.Params{
		SPMSize:       spmSize,
		ESPHit:        pipe.Cost.SPMAccess,
		ECacheHit:     pipe.Cost.CacheHit,
		ECacheMiss:    pipe.Cost.CacheMiss,
		CopySetupNJ:   25,
		CopyPerWordNJ: energy.MainMemoryWord() + pipe.Cost.SPMAccess,
	}
	alloc, err := overlay.Allocate(pipe.Set, pipe.Graph, phases, prm)
	if err != nil {
		return OverlayRow{}, err
	}
	phaseVec, numImages := overlay.LayoutPhases(pipe.Set, alloc, phases)
	lay, err := layout.NewOverlay(pipe.Set, phaseVec, numImages, layout.Options{
		Mode: layout.Copy, SPMSize: spmSize,
	})
	if err != nil {
		return OverlayRow{}, err
	}
	res, err := memsim.Run(prog, lay, memsim.Config{
		Cache: pipe.Cache.cacheConfig(),
		Cost:  pipe.Cost,
	})
	if err != nil {
		return OverlayRow{}, err
	}
	copyMicroJ := alloc.CopyEnergyNJ / 1000
	overlayMicroJ := res.TotalEnergyMicroJ() + copyMicroJ
	return OverlayRow{
		Workload:      prog.Name,
		SPMSize:       spmSize,
		Phases:        phases.NumPhases(),
		StaticMicroJ:  static.EnergyMicroJ,
		OverlayMicroJ: overlayMicroJ,
		CopyMicroJ:    copyMicroJ,
		GainPct:       100 * (static.EnergyMicroJ - overlayMicroJ) / static.EnergyMicroJ,
	}, nil
}

// WriteOverlayStudy renders the study as a text table.
func WriteOverlayStudy(w io.Writer, rows []OverlayRow) {
	fmt.Fprintln(w, "Overlay study: static CASA vs. phased scratchpad reloading (future work, §7)")
	fmt.Fprintf(w, "%-10s %8s %8s %12s %13s %11s %9s\n",
		"workload", "SPM(B)", "phases", "static(µJ)", "overlay(µJ)", "copies(µJ)", "gain(%)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8d %8d %12.2f %13.2f %11.2f %9.1f\n",
			r.Workload, r.SPMSize, r.Phases, r.StaticMicroJ, r.OverlayMicroJ,
			r.CopyMicroJ, r.GainPct)
	}
}
