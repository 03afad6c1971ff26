// Command experiments regenerates the evaluation of the CASA paper:
// Figure 4 (CASA vs. Steinke on mpeg), Figure 5 (CASA scratchpad vs.
// preloaded loop cache) and Table 1 (overall energy savings) — plus the
// extension studies (hierarchy sensitivity, WCET bounds, overlay, joint
// code+data allocation) and the design-choice ablations called out in
// DESIGN.md.
//
// Studies fan their experiment grids across a bounded worker pool; the
// row output is bit-identical at any worker count. Per-study wall-clock
// is reported on stderr so stdout stays clean for diffing.
//
// Observability: -report FILE writes one JSONL line per (study, round)
// carrying the span tree of every pipeline stage and the run's metric
// deltas; -repeat N re-runs the studies on the same suite so warm rounds
// expose the memo layers' hit rates; -trace streams solver and pipeline
// progress to stderr; -pprof ADDR serves net/http/pprof.
//
// Usage:
//
//	experiments [-workers N] [-solve-budget 30s]
//	            [-exp fig4|fig5|table1|sensitivity|wcet|overlay|data|placement|ablations|all]
//	            [-repeat N] [-report out.jsonl] [-report-deterministic]
//	            [-trace] [-pprof :6060]
//
// Robustness: -solve-budget D caps each CASA ILP solve at D of wall
// clock; an expired solve degrades to its best incumbent (or the greedy
// allocator) instead of failing the run, and every degraded cell is
// listed in the -report line with its cause and optimality gap.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/obs/slogx"
	"repro/internal/parallel"
)

type study struct {
	name string
	run  func(context.Context, *experiments.Suite, io.Writer) error
}

var studies = []study{
	{"fig4", runFig4},
	{"fig5", runFig5},
	{"table1", runTable1},
	{"sensitivity", runSensitivity},
	{"wcet", runWCET},
	{"overlay", runOverlay},
	{"data", runData},
	{"placement", runPlacement},
	{"ablations", runAblations},
}

func selectStudies(exp string) []study {
	var sel []study
	for _, st := range studies {
		if exp == "all" || exp == st.name {
			sel = append(sel, st)
		}
	}
	return sel
}

func main() {
	exp := flag.String("exp", "all", "experiment to run: fig4, fig5, table1, sensitivity, wcet, overlay, data, placement, ablations, all")
	workers := flag.Int("workers", 0,
		fmt.Sprintf("worker-pool width (0 = $%s, else NumCPU)", parallel.EnvWorkers))
	repeat := flag.Int("repeat", 1,
		"run the selected studies this many rounds on one shared suite; rounds after the first hit the memo layers and print nothing to stdout")
	reportPath := flag.String("report", "",
		"write a machine-readable JSONL run report (one line per study per round: span tree + metric deltas)")
	solveBudget := flag.Duration("solve-budget", 0,
		"wall-clock budget per CASA ILP solve (0 = unlimited); expired solves degrade to the incumbent or greedy fallback instead of failing")
	reportDet := flag.Bool("report-deterministic", false,
		"zero wall times and drop time-based metrics in the report, making warm rounds byte-stable (golden tests)")
	traceFlag := flag.Bool("trace", false,
		fmt.Sprintf("log pipeline and solver progress to stderr (same as %s=1)", obs.EnvTrace))
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
	logLevel := flag.String("log-level", "off", "structured-log level: debug, info, warn, error or off")
	flag.Parse()

	if *traceFlag {
		obs.EnableTrace(os.Stderr)
	}
	if _, err := slogx.Setup(os.Stderr, *logLevel); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: pprof:", err)
			}
		}()
	}

	sel := selectStudies(*exp)
	if len(sel) == 0 {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", *exp)
		os.Exit(1)
	}

	var report io.Writer
	if *reportPath != "" {
		f, err := os.Create(*reportPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		report = f
	}
	s := experiments.NewSuite().SetWorkers(*workers).SetSolveBudget(*solveBudget)
	err := runStudies(sel, s, *repeat, os.Stdout, os.Stderr, report, *reportDet)
	obs.MaybeDumpMetrics(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// runStudies runs each selected study repeat times on the shared suite.
// Round 1 writes its tables to stdout exactly as a plain run would;
// later rounds are silent (they exist to warm-hit the memo layers) but
// still produce report lines. With report non-nil every (study, round)
// appends one obs.Report in JSONL form.
func runStudies(sel []study, s *experiments.Suite, repeat int,
	stdout, timing, report io.Writer, deterministic bool) error {
	for round := 1; round <= repeat; round++ {
		out := stdout
		if round > 1 {
			out = io.Discard
		}
		for _, st := range sel {
			tr := obs.NewTracer()
			ctx := obs.WithTracer(context.Background(), tr)
			before := obs.Default.Snapshot()
			start := time.Now()
			runErr := st.run(ctx, s, out)
			wall := time.Since(start)
			if report != nil {
				if err := writeReport(report, st.name, round, s.Workers(), wall, tr, before, runErr, deterministic); err != nil {
					return err
				}
			}
			if runErr != nil {
				return runErr
			}
			if len(sel) > 1 {
				fmt.Fprintln(out)
			}
			fmt.Fprintf(timing, "# %s: %.2fs (%d workers)\n",
				st.name, wall.Seconds(), s.Workers())
		}
	}
	return nil
}

func writeReport(w io.Writer, name string, round, workers int, wall time.Duration,
	tr *obs.Tracer, before obs.Snapshot, runErr error, deterministic bool) error {
	rep := &obs.Report{
		Study:   name,
		Round:   round,
		Workers: workers,
		WallNS:  wall.Nanoseconds(),
		Spans:   tr.Roots(),
		Metrics: obs.Default.Delta(before),
	}
	rep.DegradedCells = collectDegraded(rep.Spans)
	if runErr != nil {
		rep.Error = runErr.Error()
		var ge *parallel.GridError
		if errors.As(runErr, &ge) {
			for _, ce := range ge.Failed {
				rep.FailedCells = append(rep.FailedCells,
					obs.FailedCell{Index: ce.Index, Err: ce.Err.Error()})
			}
		}
	}
	if deterministic {
		rep.Canonicalize()
	}
	return rep.WriteJSONL(w)
}

// collectDegraded walks a report's span forest and returns one entry per
// cell that consumed a degraded CASA allocation, deduplicated by cell
// index. The "degraded" attr carries the cause; "gap" and "fallback" the
// incumbent quality.
func collectDegraded(spans []*obs.Span) []obs.DegradedCell {
	var out []obs.DegradedCell
	seen := map[int]bool{}
	var walk func(sp *obs.Span, cell int)
	walk = func(sp *obs.Span, cell int) {
		if sp.Name == "cell" {
			if idx, ok := sp.Attrs["index"].(int); ok {
				cell = idx
			}
		}
		if reason, ok := sp.Attrs["degraded"]; ok && !seen[cell] {
			seen[cell] = true
			dc := obs.DegradedCell{Index: cell, Reason: fmt.Sprint(reason)}
			if g, ok := sp.Attrs["gap"].(float64); ok {
				dc.Gap = g
			}
			if _, ok := sp.Attrs["fallback"]; ok {
				dc.Fallback = true
			}
			out = append(out, dc)
		}
		for _, c := range sp.Children {
			walk(c, cell)
		}
	}
	for _, r := range spans {
		walk(r, -1)
	}
	return out
}

func runFig4(ctx context.Context, s *experiments.Suite, w io.Writer) error {
	cfg := experiments.DefaultFig4()
	rows, err := experiments.Fig4(ctx, s, cfg)
	if err != nil {
		return err
	}
	experiments.WriteFig4(w, cfg, rows)
	return nil
}

func runFig5(ctx context.Context, s *experiments.Suite, w io.Writer) error {
	cfg := experiments.DefaultFig5()
	rows, err := experiments.Fig5(ctx, s, cfg)
	if err != nil {
		return err
	}
	experiments.WriteFig5(w, cfg, rows)
	return nil
}

func runTable1(ctx context.Context, s *experiments.Suite, w io.Writer) error {
	rows, avgs, err := experiments.Table1(ctx, s, experiments.DefaultTable1())
	if err != nil {
		return err
	}
	experiments.WriteTable1(w, rows, avgs)
	return nil
}

func runSensitivity(ctx context.Context, s *experiments.Suite, w io.Writer) error {
	cfg := experiments.DefaultSensitivity()
	rows, err := experiments.Sensitivity(ctx, s, cfg)
	if err != nil {
		return err
	}
	experiments.WriteSensitivity(w, cfg, rows)
	return nil
}

func runWCET(ctx context.Context, s *experiments.Suite, w io.Writer) error {
	rows, err := experiments.WCETStudy(ctx, s, experiments.DefaultWCETStudy())
	if err != nil {
		return err
	}
	experiments.WriteWCETStudy(w, rows)
	return nil
}

func runOverlay(ctx context.Context, s *experiments.Suite, w io.Writer) error {
	cfg, err := experiments.DefaultOverlayStudy()
	if err != nil {
		return err
	}
	rows, err := experiments.OverlayStudy(ctx, s, cfg)
	if err != nil {
		return err
	}
	experiments.WriteOverlayStudy(w, rows)
	return nil
}

func runData(ctx context.Context, s *experiments.Suite, w io.Writer) error {
	rows, err := experiments.DataStudy(ctx, s, experiments.DefaultDataStudy())
	if err != nil {
		return err
	}
	experiments.WriteDataStudy(w, rows)
	return nil
}

func runPlacement(ctx context.Context, s *experiments.Suite, w io.Writer) error {
	rows, err := experiments.PlacementStudy(ctx, s, experiments.DefaultPlacementStudy())
	if err != nil {
		return err
	}
	experiments.WritePlacementStudy(w, rows)
	return nil
}

func runAblations(ctx context.Context, s *experiments.Suite, w io.Writer) error {
	cfg := experiments.DefaultAblations()
	abl, err := experiments.Ablations(ctx, s, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Ablations (copy/greedy: %s %s$/%dB SPM; linearization: %s %s$/%dB SPM)\n",
		cfg.Main.Workload, fmtBytes(cfg.Main.Cache.Size), cfg.Main.SPMSize,
		cfg.Linearization.Workload, fmtBytes(cfg.Linearization.Cache.Size), cfg.Linearization.SPMSize)

	cm := abl.CopyMove
	fmt.Fprintf(w, "  copy-vs-move:    copy %.2f µJ (%d misses)  move %.2f µJ (%d misses)\n",
		cm.CopyMicroJ, cm.CopyMisses, cm.MoveMicroJ, cm.MoveMisses)

	lin := abl.Linearization
	fmt.Fprintf(w, "  linearization:   tight %.2f nJ in %v (%v, %d nodes, %d iters)\n",
		lin.TightEnergy, lin.TightTime, lin.TightStatus, lin.TightNodes, lin.TightIters)
	fmt.Fprintf(w, "                   faithful %.2f nJ in %v (%v, %d nodes, %d iters)\n",
		lin.FaithfulEnergy, lin.FaithfulTime, lin.FaithfulStatus, lin.FaithfulNodes, lin.FaithfulIters)

	gi := abl.GreedyILP
	fmt.Fprintf(w, "  greedy-vs-ilp:   ilp %.2f µJ  greedy %.2f µJ (predicted %.2f vs %.2f nJ)\n",
		gi.ILPMicroJ, gi.GreedyMicroJ, gi.ILPPredicted, gi.GreedyPredicted)
	return nil
}

// fmtBytes renders a byte size the way the tables label caches: whole
// kilobytes as "2kB", everything else as plain bytes.
func fmtBytes(n int) string {
	if n >= 1024 && n%1024 == 0 {
		return fmt.Sprintf("%dkB", n/1024)
	}
	return fmt.Sprintf("%dB", n)
}
