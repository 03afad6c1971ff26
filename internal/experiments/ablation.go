package experiments

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/ilp"
	"repro/internal/layout"
)

// CopyVsMove quantifies the layout-perturbation effect the paper blames
// for Steinke's erratic results (§2): it evaluates the *same* CASA-optimal
// selection under copy semantics (main-memory image untouched) and move
// semantics (selected traces removed, remainder compacted and therefore
// re-mapped in the cache).
type CopyVsMove struct {
	CopyMicroJ float64
	MoveMicroJ float64
	CopyMisses int64
	MoveMisses int64
}

// AblateCopyVsMove runs the ablation on one pipeline.
func AblateCopyVsMove(ctx context.Context, p *Pipeline) (*CopyVsMove, error) {
	alloc, err := p.CASAAllocation(ctx)
	if err != nil {
		return nil, err
	}
	cp, err := p.RunSelection(ctx, "casa-copy", alloc.InSPM, layout.Copy)
	if err != nil {
		return nil, err
	}
	mv, err := p.RunSelection(ctx, "casa-move", alloc.InSPM, layout.Move)
	if err != nil {
		return nil, err
	}
	return &CopyVsMove{
		CopyMicroJ: cp.EnergyMicroJ,
		MoveMicroJ: mv.EnergyMicroJ,
		CopyMisses: cp.Result.CacheMisses,
		MoveMisses: mv.Result.CacheMisses,
	}, nil
}

// LinearizationAblation compares the paper's faithful linearization
// (constraints (13)–(15), binary L) against the tight single-constraint
// continuous-L variant.
//
// A reproduction finding: both reach the same optimum when allowed to,
// but the published constraints have a *much weaker LP relaxation* — (15)
// only bounds L ≥ (l_i + l_j − 1)/2 in the relaxation, half of the tight
// bound — so branch & bound over the faithful formulation explodes on
// larger conflict graphs. The commercial solver the paper used applies
// standard product-linearization strengthening automatically; our
// from-scratch solver exposes the difference. The faithful run therefore
// carries a node cap, and FaithfulStatus reports whether the optimum was
// proved (ilp.Optimal) or the cap returned the incumbent (ilp.Feasible).
type LinearizationAblation struct {
	TightEnergy    float64
	FaithfulEnergy float64
	TightStatus    ilp.Status
	FaithfulStatus ilp.Status
	TightNodes     int
	FaithfulNodes  int
	TightIters     int
	FaithfulIters  int
	TightTime      time.Duration
	FaithfulTime   time.Duration
}

// FaithfulNodeCap bounds the faithful formulation's branch & bound (see
// LinearizationAblation).
const FaithfulNodeCap = 20000

// AblateLinearization runs both formulations on one pipeline.
func AblateLinearization(ctx context.Context, p *Pipeline) (*LinearizationAblation, error) {
	out := &LinearizationAblation{}
	prm := p.casaParams()

	prm.Linearization = core.Tight
	t0 := time.Now()
	at, err := core.Allocate(ctx, p.Set, p.Graph, prm)
	if err != nil {
		return nil, err
	}
	out.TightTime = time.Since(t0)
	out.TightEnergy = at.PredictedEnergy
	out.TightStatus = at.Status
	out.TightNodes = at.Nodes
	out.TightIters = at.SimplexIters

	prm.Linearization = core.Faithful
	prm.Solver = ilp.Options{MaxNodes: FaithfulNodeCap}
	t0 = time.Now()
	af, err := core.Allocate(ctx, p.Set, p.Graph, prm)
	if err != nil {
		return nil, err
	}
	out.FaithfulTime = time.Since(t0)
	out.FaithfulEnergy = af.PredictedEnergy
	out.FaithfulStatus = af.Status
	out.FaithfulNodes = af.Nodes
	out.FaithfulIters = af.SimplexIters
	return out, nil
}

// GreedyVsILP compares the exact ILP allocation against the greedy
// heuristic over the same fine-grained energy model, both measured by full
// simulation.
type GreedyVsILP struct {
	ILPMicroJ    float64
	GreedyMicroJ float64
	// Predicted energies under the model (profiling counts).
	ILPPredicted    float64
	GreedyPredicted float64
}

// AblateGreedyVsILP runs the ablation on one pipeline.
func AblateGreedyVsILP(ctx context.Context, p *Pipeline) (*GreedyVsILP, error) {
	prm := p.casaParams()
	opt, err := p.CASAAllocation(ctx)
	if err != nil {
		return nil, err
	}
	gr, err := core.GreedyAllocate(ctx, p.Set, p.Graph, prm)
	if err != nil {
		return nil, err
	}
	optRun, err := p.RunSelection(ctx, "casa-ilp", opt.InSPM, layout.Copy)
	if err != nil {
		return nil, err
	}
	grRun, err := p.RunSelection(ctx, "casa-greedy", gr.InSPM, layout.Copy)
	if err != nil {
		return nil, err
	}
	return &GreedyVsILP{
		ILPMicroJ:       optRun.EnergyMicroJ,
		GreedyMicroJ:    grRun.EnergyMicroJ,
		ILPPredicted:    opt.PredictedEnergy,
		GreedyPredicted: gr.PredictedEnergy,
	}, nil
}

// AblationPipeline selects one pipeline configuration for an ablation.
type AblationPipeline struct {
	Workload string
	Cache    CacheSpec
	SPMSize  int
}

// AblationConfig selects the pipelines the design-choice ablations run on.
type AblationConfig struct {
	// Main drives the copy-vs-move and greedy-vs-ILP ablations.
	Main AblationPipeline
	// Linearization drives the linearization ablation; the faithful
	// formulation's weak relaxation makes large instances intractable for
	// a plain B&B (see LinearizationAblation), so it runs on the paper's
	// smallest benchmark.
	Linearization AblationPipeline
}

// DefaultAblations matches DESIGN.md: copy/greedy on mpeg (2 kB cache,
// 512 B scratchpad), linearization on adpcm (128 B cache and scratchpad).
func DefaultAblations() AblationConfig {
	return AblationConfig{
		Main:          AblationPipeline{Workload: "mpeg", Cache: DM(2048), SPMSize: 512},
		Linearization: AblationPipeline{Workload: "adpcm", Cache: DM(128), SPMSize: 128},
	}
}

// AblationSet bundles the three ablations' results.
type AblationSet struct {
	CopyMove      *CopyVsMove
	Linearization *LinearizationAblation
	GreedyILP     *GreedyVsILP
}

// Ablations runs the three design-choice ablations on the suite's worker
// pool (each ablation is one cell; they write disjoint fields).
func Ablations(ctx context.Context, s *Suite, cfg AblationConfig) (*AblationSet, error) {
	out := &AblationSet{}
	tasks := []func(ctx context.Context) error{
		func(ctx context.Context) error {
			p, err := s.Pipeline(ctx, cfg.Main.Workload, cfg.Main.Cache, cfg.Main.SPMSize)
			if err == nil {
				out.CopyMove, err = AblateCopyVsMove(ctx, p)
			}
			return err
		},
		func(ctx context.Context) error {
			p, err := s.Pipeline(ctx, cfg.Linearization.Workload, cfg.Linearization.Cache, cfg.Linearization.SPMSize)
			if err == nil {
				out.Linearization, err = AblateLinearization(ctx, p)
			}
			return err
		},
		func(ctx context.Context) error {
			p, err := s.Pipeline(ctx, cfg.Main.Workload, cfg.Main.Cache, cfg.Main.SPMSize)
			if err == nil {
				out.GreedyILP, err = AblateGreedyVsILP(ctx, p)
			}
			return err
		},
	}
	if _, err := runCellsOrdered(ctx, s, naturalOrder(len(tasks)), func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, tasks[i](ctx)
	}); err != nil {
		return nil, err
	}
	return out, nil
}
