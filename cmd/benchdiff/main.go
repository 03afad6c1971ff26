// Command benchdiff is the benchmark gate of CI. It has six modes:
//
//	benchdiff -ab BENCHMARK.json -baseline parent.jsonl -current change.jsonl
//	    judge paired perfbench runs of a parent and a change (written
//	    by scripts/bench.sh, one {"workload", "result"} object per line,
//	    the i-th line of a workload on each side forming pair i). For
//	    every workload × end-to-end metric of BENCHMARK.json it prints
//	    both medians and interquartile ranges and the pairs the change
//	    won, and it fails when the change median is worse than the
//	    parent median by more than the metric's bound (a share of the
//	    parent median), or when the change failed more operations than
//	    the parent. A metric whose parent IQR exceeds its bound cannot
//	    be told apart from noise: it prints as unresolved and does not
//	    fail
//
//	benchdiff -from-report report.jsonl -o BENCH_report.json
//	    aggregate a cmd/experiments -report JSONL file into a results
//	    file: the hit rate of every memo layer that counts *_hits_total
//	    / *_misses_total metric pairs, and the deterministic work
//	    counters (branch & bound nodes, simplex iterations, ...)
//
//	benchdiff -from-load load_report.json [-chaos] -o BENCH_server.json
//	    convert a cmd/casaload report into a results file carrying the
//	    server section: p99 latency, 5xx and error counts, plus the
//	    telemetry pair traced_requests_min / trace_store_drops taken
//	    from the server-side counter deltas. With -chaos the file
//	    additionally carries the chaos entries (deadline expiries,
//	    injected faults, oversized-body rejections, and the
//	    chaos_unexpected ceiling) that make an inert chaos run — one
//	    that injected nothing — a red build
//
//	benchdiff -validate FILE
//	    check an artifact parses: a JSON results file must contain only
//	    known sections; anything else is linted as a Prometheus/
//	    OpenMetrics text exposition (the CI loadtest job runs it on the
//	    scraped /metrics output)
//
//	benchdiff -refresh BENCH_baseline.json -from-report r1.jsonl,r2.jsonl,r3.jsonl
//	    rewrite the memo and counter sections of a committed baseline
//	    from report runs, which must agree exactly; the server section
//	    (hand-committed budgets, not measurements) is kept unchanged
//
//	benchdiff -baseline BENCH_baseline.json -current BENCH_report.json
//	    compare two results files and exit non-zero when any memo hit
//	    rate or work counter differs from its baseline at all, or any
//	    server entry exceeded its committed ceiling
//
// Memo hit rates and work counters are deterministic for a fixed
// experiment config, so they gate exactly: any change, up or down, is
// either a regression or a baseline that needs a deliberate refresh.
// Server values are committed ceilings (a p99 latency budget, zero 5xx),
// not measurements, so the comparison is current > baseline. Names
// ending in _min invert the sense: they are committed floors (a smoke
// run must trace at least this many requests), failing when current <
// baseline.
//
// A section missing entirely from the current file is skipped, so one
// baseline gates both a report-derived and a load-derived results file;
// the chaos_ entries of the server section form their own section,
// present only in -chaos conversions. Within a section the current file
// does carry, a baseline entry it lacks fails the gate. Entries only the
// current file carries are reported but do not fail.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/obs/promexport"
)

// Results is the JSON schema of a benchmark results file.
type Results struct {
	// MemoHitRate maps a memo layer (the metric prefix shared by its
	// *_hits_total / *_misses_total pair) to its hit rate in percent.
	MemoHitRate map[string]float64 `json:"memo_hit_rate,omitempty"`
	// Counters holds the work counters of counterGates summed across the
	// report.
	Counters map[string]float64 `json:"counters,omitempty"`
	// Server holds the casad load-test gate. In a baseline file the
	// values are committed ceilings (p99_ms latency budget, tolerated
	// http_5xx / errors counts) and _min floors; in a current file they
	// are the measured values from a casaload report.
	Server map[string]float64 `json:"server,omitempty"`
}

// counterGates lists the work counters the exact gate watches. Each is
// deterministic for a fixed experiment config: branch & bound nodes and
// simplex pivots (a weaker presolve or search), dense fallbacks and
// warm-cell hits, misses and basis installs (warm starts that stopped
// firing), and the simulated fetch stream (trace walks, block runs and
// cache-line segments, which move only when the recordings or the
// layouts do).
var counterGates = []string{
	"casa_ilp_nodes_total",
	"casa_ilp_branches_total",
	"casa_ilp_simplex_iters_total",
	"casa_ilp_dense_fallbacks_total",
	"casa_ilp_warm_cell_hits_total",
	"casa_ilp_warm_cell_misses_total",
	"casa_ilp_basis_reuse_total",
	"casa_sim_lines_total",
	"casa_sim_bulk_fetches_total",
	"casa_trace_replays_total",
}

func main() {
	ab := flag.String("ab", "", "judge paired perfbench runs (-baseline parent, -current change) against this BENCHMARK.json")
	fromReport := flag.String("from-report", "", "aggregate a cmd/experiments -report JSONL file (comma-separated list with -refresh)")
	fromLoad := flag.String("from-load", "", "convert a cmd/casaload report into a server-section results file")
	chaos := flag.Bool("chaos", false, "with -from-load: include the chaos entries (fault accounting, deadline expiries)")
	validate := flag.String("validate", "", "check that a results file parses and has only known sections")
	refresh := flag.String("refresh", "", "rewrite this baseline's memo and counter sections from -from-report inputs, keeping its server section")
	out := flag.String("o", "BENCH_report.json", "JSON output path for -from-report / -from-load")
	baseline := flag.String("baseline", "", "baseline results JSON (with -ab: the parent's runs)")
	current := flag.String("current", "", "current results JSON (with -ab: the change's runs)")
	flag.Parse()

	var err error
	switch {
	case *ab != "" && *baseline != "" && *current != "":
		err = runAB(*ab, *baseline, *current, os.Stdout)
	case *refresh != "":
		err = runRefresh(*refresh, *fromReport)
	case *fromReport != "":
		err = runFromReport(*fromReport, *out)
	case *fromLoad != "":
		err = runFromLoad(*fromLoad, *out, *chaos)
	case *validate != "":
		err = runValidate(*validate)
	case *baseline != "" && *current != "":
		err = runCompare(*baseline, *current)
	default:
		err = fmt.Errorf("need -ab with -baseline and -current, -refresh, -from-report, -from-load, -validate, or -baseline and -current (see -h)")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func writeResults(res Results, out string) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

// quantile returns the q-quantile of xs, interpolating linearly between
// the two nearest order statistics.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// iqr is the interquartile range of xs.
func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }

// spread is the interquartile range over the median: 0 for one sample.
func spread(xs []float64) float64 {
	med := quantile(xs, 0.5)
	if med == 0 {
		return 0
	}
	return iqr(xs) / med
}

// benchSpec is the slice of BENCHMARK.json the A/B gate reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// abRun is one line of an A/B runs file: a perfbench result tagged with
// its workload.
type abRun struct {
	Workload string `json:"workload"`
	Result   struct {
		Attempted int `json:"attempted"`
		Failed    int `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

func readABRuns(path string) (map[string][]abRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := make(map[string][]abRun)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r abRun
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		runs[r.Workload] = append(runs[r.Workload], r)
	}
	return runs, sc.Err()
}

func runAB(specPath, parentPath, changePath string, w io.Writer) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	parent, err := readABRuns(parentPath)
	if err != nil {
		return err
	}
	change, err := readABRuns(changePath)
	if err != nil {
		return err
	}
	failed, err := judgeAB(spec, parent, change, w)
	if err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d A/B check(s) failed: change %s vs parent %s", failed, changePath, parentPath)
	}
	fmt.Fprintln(w, "A/B: no end-to-end metric worse than its bound, no extra failed operations")
	return nil
}

// judgeAB prints the A/B table and returns how many checks failed. A
// workload of the spec without runs, unequal pair counts or a run
// lacking a metric is an error: the gate never passes on absent data.
func judgeAB(spec benchSpec, parent, change map[string][]abRun, w io.Writer) (int, error) {
	failed := 0
	fmt.Fprintf(w, "%-17s %-12s %12s %10s %12s %10s %8s %6s  %s\n",
		"workload", "metric", "parent p50", "IQR", "change p50", "IQR", "delta", "wins", "verdict")
	for _, wl := range spec.Workloads {
		p, c := parent[wl.Name], change[wl.Name]
		if len(p) == 0 || len(p) != len(c) {
			return failed, fmt.Errorf("workload %s: %d parent and %d change runs, want equal nonzero pair counts",
				wl.Name, len(p), len(c))
		}
		for _, m := range spec.EndToEnd {
			pv, cv := make([]float64, len(p)), make([]float64, len(c))
			for i := range p {
				pm, okP := p[i].Result.Metrics[m.Name]
				cm, okC := c[i].Result.Metrics[m.Name]
				if !okP || !okC {
					return failed, fmt.Errorf("workload %s pair %d: metric %s missing", wl.Name, i+1, m.Name)
				}
				pv[i], cv[i] = pm.Value, cm.Value
			}
			// sign turns "worse" into "larger" for either direction.
			sign := 1.0
			switch m.Better {
			case "lower":
			case "higher":
				sign = -1
			default:
				return failed, fmt.Errorf("metric %s: better is %q, want lower or higher", m.Name, m.Better)
			}
			wins := 0
			for i := range pv {
				if sign*(cv[i]-pv[i]) < 0 {
					wins++
				}
			}
			medP, medC := quantile(pv, 0.5), quantile(cv, 0.5)
			verdict := "ok"
			switch {
			case spread(pv) > m.Bound:
				verdict = "unresolved"
			case sign*(medC-medP) > m.Bound*medP:
				verdict = "WORSE"
				failed++
			}
			delta := 0.0
			if medP != 0 {
				delta = 100 * (medC - medP) / medP
			}
			fmt.Fprintf(w, "%-17s %-12s %12.4g %10.3g %12.4g %10.3g %+7.1f%% %3d/%-2d  %s\n",
				wl.Name, m.Name, medP, iqr(pv), medC, iqr(cv), delta, wins, len(pv), verdict)
		}
		var attP, attC, failP, failC int
		for i := range p {
			attP, failP = attP+p[i].Result.Attempted, failP+p[i].Result.Failed
			attC, failC = attC+c[i].Result.Attempted, failC+c[i].Result.Failed
		}
		verdict := "ok"
		if failC > failP {
			verdict = "MORE FAILED"
			failed++
		}
		fmt.Fprintf(w, "%-17s failed ops: parent %d of %d, change %d of %d  %s\n",
			wl.Name, failP, attP, failC, attC, verdict)
	}
	return failed, nil
}

func runFromReport(in, out string) error {
	res, err := reportResults(in)
	if err != nil {
		return err
	}
	return writeResults(res, out)
}

func reportResults(in string) (Results, error) {
	f, err := os.Open(in)
	if err != nil {
		return Results{}, err
	}
	defer f.Close()
	reps, err := obs.ReadReports(f)
	if err != nil {
		return Results{}, err
	}
	if len(reps) == 0 {
		return Results{}, fmt.Errorf("%s: no report lines found", in)
	}
	if err := checkDegraded(reps); err != nil {
		return Results{}, err
	}
	return aggregateReports(reps), nil
}

// runRefresh rewrites a committed baseline from fresh report runs in one
// step. reportPaths names one or more comma-separated report files;
// their memo rates and counters must agree exactly, since the gate
// compares them exactly. The server section of the existing baseline is
// preserved verbatim: those values are committed budgets.
func runRefresh(basePath, reportPaths string) error {
	if reportPaths == "" {
		return fmt.Errorf("-refresh needs -from-report report.jsonl[,report2.jsonl...]")
	}
	old, err := readResults(basePath)
	if err != nil {
		return err
	}
	paths := strings.Split(reportPaths, ",")
	var rep Results
	for i, path := range paths {
		sample, err := reportResults(path)
		if err != nil {
			return err
		}
		if i == 0 {
			rep = sample
			continue
		}
		if !maps.Equal(sample.Counters, rep.Counters) || !maps.Equal(sample.MemoHitRate, rep.MemoHitRate) {
			return fmt.Errorf("%s and %s disagree on a counter or memo rate; the exact gate needs runs that repeat", paths[0], path)
		}
	}
	merged := Results{MemoHitRate: rep.MemoHitRate, Counters: rep.Counters, Server: old.Server}
	if err := writeResults(merged, basePath); err != nil {
		return err
	}
	fmt.Printf("refreshed %s from %d report run(s) (%d memo, %d counter entries; server section kept)\n",
		basePath, len(paths), len(merged.MemoHitRate), len(merged.Counters))
	return nil
}

// loadReport is the slice of the cmd/casaload report schema the server
// gate consumes.
type loadReport struct {
	Requests        int                `json:"requests"`
	P99Ms           float64            `json:"p99_ms"`
	HTTP5xx         int                `json:"http_5xx"`
	Errors          int                `json:"errors"`
	ChaosRequests   int                `json:"chaos_requests"`
	ChaosUnexpected int                `json:"chaos_unexpected"`
	ServerMetrics   map[string]float64 `json:"server_metrics"`
}

// runFromLoad converts a casaload JSON report into a results file whose
// server section is compared against the committed ceilings (and _min
// floors) in the baseline.
func runFromLoad(in, out string, chaos bool) error {
	data, err := os.ReadFile(in)
	if err != nil {
		return err
	}
	var rep loadReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("%s: %w", in, err)
	}
	if rep.Requests == 0 {
		return fmt.Errorf("%s: report covers zero requests", in)
	}
	res := Results{Server: map[string]float64{
		"p99_ms":   rep.P99Ms,
		"http_5xx": float64(rep.HTTP5xx),
		"errors":   float64(rep.Errors),
		// Telemetry health rides the same gate: a smoke run that traced
		// nothing (sampling silently off) fails the floor, and dropped
		// must-keep traces mean the retention ring is undersized for the
		// failure volume — both regressions in observability, not load.
		"traced_requests_min": rep.ServerMetrics["casa_server_traced_requests_total"],
		"trace_store_drops":   rep.ServerMetrics["casa_server_trace_store_drops_total"],
	}}
	if chaos {
		if rep.ChaosRequests == 0 {
			return fmt.Errorf("%s: -chaos conversion of a report with zero chaos requests (was casaload run with -chaos?)", in)
		}
		// The chaos floors make an inert chaos run a red build: a run
		// that expired no deadlines, rejected no oversized bodies or
		// injected none of the daemon's scheduled faults proves the
		// chaos machinery is disconnected, not that the server is
		// robust. chaos_unexpected is a ceiling: any chaos request
		// answered outside its expected status set fails.
		res.Server["chaos_deadline_exceeded_min"] = rep.ServerMetrics["casa_server_deadline_exceeded_total"]
		res.Server["chaos_body_too_large_min"] = rep.ServerMetrics["casa_server_body_too_large_total"]
		res.Server["chaos_injected_min"] = rep.ServerMetrics["casa_faults_injected_total"]
		res.Server["chaos_unexpected"] = float64(rep.ChaosUnexpected)
	}
	return writeResults(res, out)
}

// runValidate checks an artifact parses: results JSON strictly, and
// everything else as a Prometheus text exposition — the fail-fast check
// scripts/bench.sh and the CI loadtest job run before trusting a file
// to gate anything.
func runValidate(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if first := firstNonSpace(data); first != '{' {
		if err := promexport.Lint(bytes.NewReader(data)); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Printf("%s: ok (valid Prometheus text exposition)\n", path)
		return nil
	}
	res, err := readResults(path)
	if err != nil {
		return err
	}
	if len(res.MemoHitRate)+len(res.Counters)+len(res.Server) == 0 {
		return fmt.Errorf("%s: no entries in any known section", path)
	}
	fmt.Printf("%s: ok (%d memo, %d counter, %d server entries)\n",
		path, len(res.MemoHitRate), len(res.Counters), len(res.Server))
	return nil
}

func firstNonSpace(data []byte) byte {
	for _, b := range data {
		switch b {
		case ' ', '\t', '\n', '\r':
			continue
		}
		return b
	}
	return 0
}

// checkDegraded fails the gate when any report carries degraded cells or
// the degraded/panic counters moved: a CI run must solve every cell to
// proven optimality, so a budget expiry or recovered panic sneaking into
// the benchmark lane would silently compare apples to incumbents.
func checkDegraded(reps []*obs.Report) error {
	var msgs []string
	for _, rep := range reps {
		for _, dc := range rep.DegradedCells {
			msgs = append(msgs, fmt.Sprintf("%s round %d cell %d: %s (gap %.4g, fallback %v)",
				rep.Study, rep.Round, dc.Index, dc.Reason, dc.Gap, dc.Fallback))
		}
		for _, name := range []string{"casa_solve_degraded_total", "casa_cell_panics_total", "casa_fallback_greedy_total"} {
			if v := rep.Metrics[name]; v > 0 && len(rep.DegradedCells) == 0 {
				msgs = append(msgs, fmt.Sprintf("%s round %d: %s = %g", rep.Study, rep.Round, name, v))
			}
		}
	}
	if len(msgs) > 0 {
		return fmt.Errorf("report contains degraded results; refusing to gate on them:\n  %s",
			strings.Join(msgs, "\n  "))
	}
	return nil
}

// aggregateReports folds a report stream into gateable scalars: the
// overall hit rate of every memo layer and the summed work counters.
func aggregateReports(reps []*obs.Report) Results {
	res := Results{
		MemoHitRate: make(map[string]float64),
		Counters:    make(map[string]float64),
	}
	metrics := make(map[string]float64)
	for _, rep := range reps {
		for name, v := range rep.Metrics {
			metrics[name] += v
		}
	}
	const hitSuffix, missSuffix = "_hits_total", "_misses_total"
	for name, hits := range metrics {
		if !strings.HasSuffix(name, hitSuffix) {
			continue
		}
		layer := strings.TrimSuffix(name, hitSuffix)
		misses := metrics[layer+missSuffix]
		if hits+misses > 0 {
			res.MemoHitRate[layer] = 100 * hits / (hits + misses)
		}
	}
	// Record every gated counter even when the report never incremented
	// it: an explicit zero in the baseline is what lets the gate catch
	// the counter reappearing (e.g. dense fallbacks coming back).
	for _, name := range counterGates {
		res.Counters[name] = metrics[name]
	}
	return res
}

// readResults parses a results file strictly: an unknown top-level
// section is an error with the known-section list, not silently-ignored
// JSON — a typo'd or old-format baseline must fail here with a clear
// message rather than as a gate that never fires.
func readResults(path string) (Results, error) {
	var res Results
	data, err := os.ReadFile(path)
	if err != nil {
		return res, fmt.Errorf("results file: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return res, fmt.Errorf("%s: %v (known sections: memo_hit_rate, counters, server)", path, err)
	}
	return res, nil
}

func runCompare(basePath, curPath string) error {
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	cur, err := readResults(curPath)
	if err != nil {
		return err
	}

	// exact fails on any difference: these values repeat run to run.
	exact := func(_ string, b, c float64) (float64, bool) { return c - b, c != b }
	// budget fails a committed ceiling exceeded or a _min floor missed.
	budget := func(name string, b, c float64) (float64, bool) {
		if strings.HasSuffix(name, "_min") {
			return c - b, c < b
		}
		return c - b, c > b
	}
	baseSrv, baseChaos := splitChaos(base.Server)
	curSrv, curChaos := splitChaos(cur.Server)
	regressed := compareSection("memo hit %", base.MemoHitRate, cur.MemoHitRate, exact) +
		compareSection("counter", base.Counters, cur.Counters, exact) +
		compareSection("server", baseSrv, curSrv, budget) +
		compareSection("chaos", baseChaos, curChaos, budget)
	if regressed > 0 {
		return fmt.Errorf("%d entr(ies) differ from %s or break its server budgets", regressed, basePath)
	}
	fmt.Println("no regressions: memo rates and counters equal, server budgets held")
	return nil
}

// splitChaos separates the chaos_ entries of a server section, which only
// a -from-load -chaos conversion produces, from the rest.
func splitChaos(m map[string]float64) (server, chaos map[string]float64) {
	server = make(map[string]float64, len(m))
	chaos = make(map[string]float64)
	for name, v := range m {
		if strings.HasPrefix(name, "chaos_") {
			chaos[name] = v
		} else {
			server[name] = v
		}
	}
	return server, chaos
}

// compareSection diffs one named map pair and returns the number of
// regressions. A section empty on either side is skipped entirely, so
// report-derived and load-derived results files share one baseline; a
// baseline entry missing from a section the current file does carry is
// a regression.
func compareSection(section string, base, cur map[string]float64,
	judge func(name string, b, c float64) (delta float64, bad bool)) int {
	if len(base) == 0 || len(cur) == 0 {
		return 0
	}
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	regressed := 0
	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			fmt.Printf("%-9s [%-10s] %-36s %18s → %18s\n", "MISSING", section, name, num(b), "absent")
			regressed++
			continue
		}
		delta, bad := judge(name, b, c)
		mark := "ok"
		if bad {
			mark = "REGRESSED"
			regressed++
		}
		fmt.Printf("%-9s [%-10s] %-36s %18s → %18s  (%+g)\n", mark, section, name, num(b), num(c), delta)
	}
	var extra []string
	for name := range cur {
		if _, ok := base[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Printf("%-9s [%-10s] %-36s new entry (no baseline)\n", "+", section, name)
	}
	return regressed
}

// num prints a value exactly: the exact gate must show the digit that
// differs.
func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
