package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/layout"
)

// DataRow compares scratchpad-allocation disciplines once data objects
// enter the picture (the paper's §7 future work, "preloading of data").
// The architecture has no data cache (Figure 1 shows only an I-cache), so
// every off-scratchpad data access goes off-chip — which is why data
// placement is so profitable and why the joint allocation must weigh code
// traces against data objects for the same capacity.
//
// Energies are totals in µJ: measured instruction-side energy from the
// hierarchy simulation plus the analytic data-side energy.
type DataRow struct {
	Workload string
	SPMSize  int
	// CodeOnlyMicroJ places only code (classic CASA; all data off-chip).
	CodeOnlyMicroJ float64
	// DataOnlyMicroJ places only data (Steinke-style data knapsack; all
	// code cached).
	DataOnlyMicroJ float64
	// JointMicroJ optimizes both sides together.
	JointMicroJ float64
	// JointCodeBytes / JointDataBytes split the joint occupancy.
	JointCodeBytes int
	JointDataBytes int
	// GainVsBestSinglePct is the joint allocation's saving over the better
	// of the two single-sided disciplines.
	GainVsBestSinglePct float64
}

// DataStudyConfig lists the configurations to compare.
type DataStudyConfig struct {
	Rows []struct {
		Workload string
		Cache    CacheSpec
		SPMSize  int
	}
}

// DefaultDataStudy compares the disciplines on each benchmark at its
// Table-1 cache with a mid-size scratchpad.
func DefaultDataStudy() DataStudyConfig {
	cfg := DataStudyConfig{}
	add := func(w string, cache CacheSpec, spm int) {
		cfg.Rows = append(cfg.Rows, struct {
			Workload string
			Cache    CacheSpec
			SPMSize  int
		}{w, cache, spm})
	}
	add("adpcm", DM(128), 256)
	add("g721", DM(1024), 256)
	add("mpeg", DM(2048), 512)
	return cfg
}

// DataStudy runs the comparison, one worker per configuration.
func DataStudy(ctx context.Context, s *Suite, cfg DataStudyConfig) ([]DataRow, error) {
	return runCellsOrdered(ctx, s, naturalOrder(len(cfg.Rows)), func(ctx context.Context, i int) (DataRow, error) {
		rc := cfg.Rows[i]
		p, err := s.Pipeline(ctx, rc.Workload, rc.Cache, rc.SPMSize)
		if err != nil {
			return DataRow{}, err
		}
		return dataRow(ctx, p)
	})
}

func dataRow(ctx context.Context, p *Pipeline) (DataRow, error) {
	prm := core.DataParams{
		Params:    p.casaParams(),
		EMainData: energy.MainMemoryWord(),
	}
	data := p.Prog.Data
	accesses := core.DataAccessCounts(p.Prog, p.Prof)

	// (a) Code only: classic CASA; all data off-chip.
	codeOnly, err := p.RunCASA(ctx)
	if err != nil {
		return DataRow{}, err
	}
	noData := make([]bool, len(data))
	codeOnlyTotal := codeOnly.EnergyMicroJ + core.DataEnergy(data, accesses, noData, prm)/1000

	// (b) Data only: exact knapsack over data objects (each saves
	// accesses × (EMainData − ESPHit) per byte); code all cached.
	dataSel, err := core.DataOnlySelect(data, accesses, prm)
	if err != nil {
		return DataRow{}, err
	}
	cacheOnly, err := p.RunCacheOnly(ctx)
	if err != nil {
		return DataRow{}, err
	}
	dataOnlyTotal := cacheOnly.EnergyMicroJ + core.DataEnergy(data, accesses, dataSel, prm)/1000

	// (c) Joint ILP.
	joint, err := core.AllocateWithData(p.Set, p.Graph, data, accesses, prm)
	if err != nil {
		return DataRow{}, err
	}
	jointRun, err := p.RunSelection(ctx, "casa+data", joint.InSPM, layout.Copy)
	if err != nil {
		return DataRow{}, err
	}
	jointTotal := jointRun.EnergyMicroJ + core.DataEnergy(data, accesses, joint.DataInSPM, prm)/1000

	best := codeOnlyTotal
	if dataOnlyTotal < best {
		best = dataOnlyTotal
	}
	return DataRow{
		Workload:            p.Workload,
		SPMSize:             p.SPMSize,
		CodeOnlyMicroJ:      codeOnlyTotal,
		DataOnlyMicroJ:      dataOnlyTotal,
		JointMicroJ:         jointTotal,
		JointCodeBytes:      joint.CodeBytes,
		JointDataBytes:      joint.DataBytes,
		GainVsBestSinglePct: 100 * (best - jointTotal) / best,
	}, nil
}

// WriteDataStudy renders the study as a text table.
func WriteDataStudy(w io.Writer, rows []DataRow) {
	fmt.Fprintln(w, "Data study: code-only vs. data-only vs. joint scratchpad allocation (future work, §7)")
	fmt.Fprintf(w, "%-10s %8s %14s %14s %12s %14s %10s\n",
		"workload", "SPM(B)", "code-only(µJ)", "data-only(µJ)", "joint(µJ)", "split(code+data)", "gain(%)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8d %14.2f %14.2f %12.2f %10d+%-5d %8.1f\n",
			r.Workload, r.SPMSize, r.CodeOnlyMicroJ, r.DataOnlyMicroJ, r.JointMicroJ,
			r.JointCodeBytes, r.JointDataBytes, r.GainVsBestSinglePct)
	}
}
