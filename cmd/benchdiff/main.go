// Command benchdiff is the benchmark-regression gate of CI. It has five
// modes:
//
//	benchdiff -parse bench.txt -o BENCH_ci.json
//	    parse `go test -bench` text output into a JSON results file
//
//	benchdiff -from-report report.jsonl -o BENCH_report.json
//	    aggregate a cmd/experiments -report JSONL file into a results
//	    file: per-stage span time (summed over every span with that name),
//	    the hit rate of every memo layer that counts *_hits_total /
//	    *_misses_total metric pairs, and the deterministic solver work
//	    counters (branch & bound nodes, simplex iterations, ...)
//
//	benchdiff -from-load load_report.json [-chaos] -o BENCH_server.json
//	    convert a cmd/casaload report into a results file carrying the
//	    server section: p99 latency, 5xx and error counts, plus the
//	    telemetry pair traced_requests_min / trace_store_drops taken
//	    from the server-side counter deltas. With -chaos the section
//	    additionally carries the chaos floors (deadline expiries,
//	    injected faults, oversized-body rejections, and the
//	    chaos_unexpected ceiling) that make an inert chaos run — one
//	    that injected nothing — a red build
//
//	benchdiff -validate FILE
//	    check an artifact parses: a JSON results file must contain only
//	    known sections; anything else is linted as a Prometheus/
//	    OpenMetrics text exposition (the CI loadtest job runs it on the
//	    scraped /metrics output). scripts/bench.sh runs it before
//	    spending minutes on benchmarks so a stale or hand-mangled
//	    baseline fails fast with a clear message instead of a confusing
//	    gate failure later
//
//	benchdiff -refresh BENCH_baseline.json -parse bench.txt -from-report report.jsonl
//	    rewrite a committed baseline in one step: ns/op from the bench
//	    text, stage times / memo rates / counters from the report, and
//	    the server section carried over unchanged from the existing
//	    baseline (its values are hand-committed budgets, not
//	    measurements, so a refresh must never clobber them)
//
//	benchdiff -baseline BENCH_baseline.json -current BENCH_ci.json
//	          [-threshold 20] [-stage-threshold 20] [-hit-drop 5]
//	          [-counter-threshold 20]
//	    compare two results files and exit non-zero when any benchmark's
//	    wall-clock or stage time regressed by more than its threshold
//	    percent, any memo hit rate dropped by more than -hit-drop
//	    percentage points, any solver work counter grew by more than
//	    -counter-threshold percent (or, for the counterFloors set, fell
//	    below its baseline), or any server entry exceeded its committed
//	    ceiling
//
// The server section gates differently from the others: its baseline
// values are committed ceilings (a p99 latency budget, zero 5xx), not
// measurements, so the comparison is simply current > baseline — there
// is no tolerance percentage to argue about. Names ending in _min
// invert the sense: they are committed floors (a smoke run must trace
// at least this many requests), failing when current < baseline.
//
// Entries present in only one of the two files are reported but do not
// fail the gate (new benchmarks need a baseline refresh, not a red
// build), and a section missing entirely from one side is skipped — so a
// baseline carrying all sections still gates a current file built from
// `go test -bench` output alone. The GOMAXPROCS suffix
// (`BenchmarkFoo-8`) is stripped so results compare across machines.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/obs/promexport"
)

// Results is the JSON schema of a benchmark results file (v2: the
// report-derived sections ride alongside the classic ns/op map).
type Results struct {
	// NsPerOp maps benchmark name (GOMAXPROCS suffix stripped) to its
	// wall-clock per iteration.
	NsPerOp map[string]float64 `json:"ns_per_op,omitempty"`
	// StageNs maps pipeline stage name to the summed wall time (ns) of
	// every span with that name across the report. Inclusive of child
	// spans; baseline and current aggregate identically so the ratio is
	// still meaningful.
	StageNs map[string]float64 `json:"stage_ns,omitempty"`
	// MemoHitRate maps a memo layer (the metric prefix shared by its
	// *_hits_total / *_misses_total pair) to its hit rate in percent.
	MemoHitRate map[string]float64 `json:"memo_hit_rate,omitempty"`
	// Counters holds the solver work counters of counterGates (gated on
	// growth) and counterFloors (gated on shortfall) summed across the
	// report. Deterministic for a fixed experiment config, so growth
	// means the solver genuinely does more work per model — and a floor
	// counter falling means an incremental path stopped firing — not
	// machine noise.
	Counters map[string]float64 `json:"counters,omitempty"`
	// Server holds the casad load-test gate. In a baseline file the
	// values are committed ceilings (p99_ms latency budget, tolerated
	// http_5xx / errors counts); in a current file they are the measured
	// values from a casaload report. The gate fails when measured >
	// ceiling.
	Server map[string]float64 `json:"server,omitempty"`
}

// counterGates lists the metrics the counter gate watches. All are
// deterministic "work done" counters where an increase means the code
// got algorithmically worse: branch & bound explored more nodes, the
// simplex ran more pivots, the warm-start engine bailed to the dense
// fallback more often — or the line-granular simulator lost compression
// (more trace replays, bulk deliveries or line transitions per run
// means the engine is sliding back toward per-instruction dispatch).
var counterGates = []string{
	"casa_ilp_nodes_total",
	"casa_ilp_branches_total",
	"casa_ilp_simplex_iters_total",
	"casa_ilp_dense_fallbacks_total",
	"casa_ilp_warm_cell_misses_total",
	"casa_sim_lines_total",
	"casa_sim_bulk_fetches_total",
	"casa_trace_replays_total",
}

// counterFloors lists the metrics gated in the opposite direction:
// deterministic "incremental machinery engaged" counters where a DROP
// means a regression. A grid run whose warm-cell hits fall below the
// baseline is solving cells cold (the planner or transfer broke); a run
// with fewer basis installs starts neighbors' simplex from the crash
// basis. Both fail the gate even though the answers are still correct,
// because the speed the baseline timings promise comes from these
// paths firing.
var counterFloors = []string{
	"casa_ilp_warm_cell_hits_total",
	"casa_ilp_basis_reuse_total",
}

// stageFloorNS keeps sub-millisecond stages out of the stage-time gate:
// their wall time is dominated by scheduler jitter, not regressions.
const stageFloorNS = 5e6

func main() {
	parse := flag.String("parse", "", "parse `go test -bench` output from this file")
	fromReport := flag.String("from-report", "", "aggregate a cmd/experiments -report JSONL file")
	fromLoad := flag.String("from-load", "", "convert a cmd/casaload report into a server-section results file")
	chaos := flag.Bool("chaos", false, "with -from-load: include the chaos-mode floors (fault accounting, deadline expiries)")
	validate := flag.String("validate", "", "check that a results file parses and has only known sections")
	refresh := flag.String("refresh", "", "rewrite this baseline from -parse and -from-report inputs, keeping its server section")
	out := flag.String("o", "BENCH_ci.json", "JSON output path for -parse / -from-report / -from-load")
	baseline := flag.String("baseline", "", "baseline results JSON")
	current := flag.String("current", "", "current results JSON")
	threshold := flag.Float64("threshold", 20, "max allowed ns/op regression in percent")
	stageThreshold := flag.Float64("stage-threshold", 20, "max allowed stage-time regression in percent")
	hitDrop := flag.Float64("hit-drop", 5, "max allowed memo hit-rate drop in percentage points")
	counterThreshold := flag.Float64("counter-threshold", 20, "max allowed solver work-counter growth in percent")
	flag.Parse()

	var err error
	switch {
	case *refresh != "":
		err = runRefresh(*refresh, *parse, *fromReport)
	case *parse != "":
		err = runParse(*parse, *out)
	case *fromReport != "":
		err = runFromReport(*fromReport, *out)
	case *fromLoad != "":
		err = runFromLoad(*fromLoad, *out, *chaos)
	case *validate != "":
		err = runValidate(*validate)
	case *baseline != "" && *current != "":
		err = runCompare(*baseline, *current, *threshold, *stageThreshold, *hitDrop, *counterThreshold)
	default:
		err = fmt.Errorf("need -refresh, -parse, -from-report, -from-load, -validate, or -baseline and -current (see -h)")
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

func runParse(in, out string) error {
	res, err := parseBenchFile(in)
	if err != nil {
		return err
	}
	return writeResults(res, out)
}

func parseBenchFile(in string) (Results, error) {
	res := Results{NsPerOp: make(map[string]float64)}
	f, err := os.Open(in)
	if err != nil {
		return res, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, ns, ok := parseBenchLine(sc.Text())
		if !ok {
			continue
		}
		// Repeated samples (go test -count=N) fold to the slowest: a
		// baseline refreshed from several samples is then a conservative
		// ceiling, so a later single-sample gate run doesn't trip on the
		// scheduler jitter of sub-millisecond benchmarks.
		if ns > res.NsPerOp[name] {
			res.NsPerOp[name] = ns
		}
	}
	if err := sc.Err(); err != nil {
		return res, err
	}
	if len(res.NsPerOp) == 0 {
		return res, fmt.Errorf("%s: no benchmark lines found", in)
	}
	return res, nil
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

// runRefresh rewrites a committed baseline from fresh measurements in
// one step, so "refresh the baseline" is a single command instead of a
// hand-merge of three artifacts. The server section of the existing
// baseline is preserved verbatim: those values are committed budgets.
// reportPath may name several comma-separated report files; their stage
// times fold to the slowest sample, the same conservative-ceiling rule
// the bench parser applies — counters and memo rates are deterministic
// across samples, so only the wall times differ.
func runRefresh(basePath, benchTxt, reportPath string) error {
	if benchTxt == "" || reportPath == "" {
		return fmt.Errorf("-refresh needs both -parse bench.txt and -from-report report.jsonl")
	}
	old, err := readResults(basePath)
	if err != nil {
		return err
	}
	bench, err := parseBenchFile(benchTxt)
	if err != nil {
		return err
	}
	var rep Results
	for i, path := range strings.Split(reportPath, ",") {
		sample, err := reportResults(path)
		if err != nil {
			return err
		}
		if i == 0 {
			rep = sample
			continue
		}
		for name, v := range sample.StageNs {
			if v > rep.StageNs[name] {
				rep.StageNs[name] = v
			}
		}
	}
	merged := Results{
		NsPerOp:     bench.NsPerOp,
		StageNs:     rep.StageNs,
		MemoHitRate: rep.MemoHitRate,
		Counters:    rep.Counters,
		Server:      old.Server,
	}
	if err := writeResults(merged, basePath); err != nil {
		return err
	}
	fmt.Printf("refreshed %s (%d ns/op, %d stage, %d memo, %d counter entries; server section kept)\n",
		basePath, len(merged.NsPerOp), len(merged.StageNs), len(merged.MemoHitRate), len(merged.Counters))
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
	n := len(res.NsPerOp) + len(res.StageNs) + len(res.MemoHitRate) + len(res.Counters) + len(res.Server)
	if n == 0 {
		return fmt.Errorf("%s: no entries in any known section", path)
	}
	fmt.Printf("%s: ok (%d ns/op, %d stage, %d memo, %d counter, %d server entries)\n",
		path, len(res.NsPerOp), len(res.StageNs), len(res.MemoHitRate), len(res.Counters), len(res.Server))
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

// aggregateReports folds a report stream into gateable scalars: summed
// span time per stage name and the overall hit rate of every memo layer.
func aggregateReports(reps []*obs.Report) Results {
	res := Results{
		StageNs:     make(map[string]float64),
		MemoHitRate: make(map[string]float64),
		Counters:    make(map[string]float64),
	}
	metrics := make(map[string]float64)
	for _, rep := range reps {
		for _, root := range rep.Spans {
			root.Walk(func(s *obs.Span) {
				res.StageNs[s.Name] += float64(s.DurNS)
			})
		}
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
	for _, name := range counterFloors {
		res.Counters[name] = metrics[name]
	}
	return res
}

// parseBenchLine extracts (name, ns/op) from a `go test -bench` result
// line such as
//
//	BenchmarkFig4CASAvsSteinke-8   1   3990000000 ns/op
func parseBenchLine(line string) (string, float64, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", 0, false
	}
	// ns/op is always the value immediately before the "ns/op" unit.
	for i := 2; i < len(fields); i++ {
		if fields[i] != "ns/op" {
			continue
		}
		ns, err := strconv.ParseFloat(fields[i-1], 64)
		if err != nil {
			return "", 0, false
		}
		name := fields[0]
		if dash := strings.LastIndex(name, "-"); dash > 0 {
			if _, err := strconv.Atoi(name[dash+1:]); err == nil {
				name = name[:dash]
			}
		}
		return name, ns, true
	}
	return "", 0, false
}

// readResults parses a results file strictly: an unknown top-level
// section is an error with the known-section list, not silently-ignored
// JSON — a typo'd or future-format baseline must fail here with a clear
// message rather than as a gate that never fires (or a nil-map panic
// downstream).
func readResults(path string) (Results, error) {
	var res Results
	data, err := os.ReadFile(path)
	if err != nil {
		return res, fmt.Errorf("results file: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return res, fmt.Errorf("%s: %v (known sections: ns_per_op, stage_ns, memo_hit_rate, counters, server)", path, err)
	}
	return res, nil
}

func runCompare(basePath, curPath string, threshold, stageThreshold, hitDrop, counterThreshold float64) error {
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	cur, err := readResults(curPath)
	if err != nil {
		return err
	}

	regressed := 0
	regressed += compareSection("ns/op", base.NsPerOp, cur.NsPerOp,
		func(b, c float64) (float64, bool) {
			delta := 100 * (c - b) / b
			return delta, delta > threshold
		}, "%+.1f%%")
	regressed += compareSection("stage ns", base.StageNs, cur.StageNs,
		func(b, c float64) (float64, bool) {
			delta := 100 * (c - b) / b
			return delta, b >= stageFloorNS && delta > stageThreshold
		}, "%+.1f%%")
	regressed += compareSection("memo hit %", base.MemoHitRate, cur.MemoHitRate,
		func(b, c float64) (float64, bool) {
			drop := b - c
			return -drop, drop > hitDrop
		}, "%+.1fpp")
	baseCtr, baseCtrFloor := splitCounterSection(base.Counters)
	curCtr, curCtrFloor := splitCounterSection(cur.Counters)
	regressed += compareSection("counter", baseCtr, curCtr,
		func(b, c float64) (float64, bool) {
			// A zero baseline (e.g. no dense fallbacks) compares against 1
			// so any reappearance still registers as growth.
			delta := 100 * (c - b) / math.Max(b, 1)
			return delta, delta > counterThreshold
		}, "%+.1f%%")
	regressed += compareSection("counter min", baseCtrFloor, curCtrFloor,
		func(b, c float64) (float64, bool) {
			// Floor counters prove the incremental machinery engaged; any
			// shortfall vs the deterministic baseline fails (a cold grid —
			// zero warm hits — is a red build, not a slow green one).
			return c - b, c < b
		}, "%+.0f")
	baseCeil, baseFloor := splitServerSection(base.Server)
	curCeil, curFloor := splitServerSection(cur.Server)
	regressed += compareSection("server", baseCeil, curCeil,
		func(b, c float64) (float64, bool) {
			// Baseline values are committed ceilings: any excess fails,
			// with the headroom (negative = under budget) as the delta.
			return c - b, c > b
		}, "%+.1f")
	regressed += compareSection("server min", baseFloor, curFloor,
		func(b, c float64) (float64, bool) {
			// _min names are committed floors: falling short fails, with
			// the margin (positive = above the floor) as the delta.
			return c - b, c < b
		}, "%+.1f")

	if regressed > 0 {
		return fmt.Errorf("%d entr(ies) regressed beyond thresholds (ns/op %.0f%%, stage %.0f%%, hit drop %.0fpp, counters %.0f%%) vs %s",
			regressed, threshold, stageThreshold, hitDrop, counterThreshold, basePath)
	}
	fmt.Printf("no regressions beyond thresholds (ns/op %.0f%%, stage %.0f%%, hit drop %.0fpp, counters %.0f%%)\n",
		threshold, stageThreshold, hitDrop, counterThreshold)
	return nil
}

// splitCounterSection partitions a counters map into growth-gated
// entries and floor-gated entries (the counterFloors set). Counters in
// neither list — from a future or hand-edited baseline — gate as
// growth-limited, the conservative default.
func splitCounterSection(m map[string]float64) (ceil, floor map[string]float64) {
	ceil = make(map[string]float64, len(m))
	floor = make(map[string]float64)
	floors := make(map[string]bool, len(counterFloors))
	for _, name := range counterFloors {
		floors[name] = true
	}
	for name, v := range m {
		if floors[name] {
			floor[name] = v
		} else {
			ceil[name] = v
		}
	}
	return ceil, floor
}

// splitServerSection partitions a server map into ceiling-gated entries
// and floor-gated entries (names ending in _min).
func splitServerSection(m map[string]float64) (ceil, floor map[string]float64) {
	ceil = make(map[string]float64, len(m))
	floor = make(map[string]float64)
	for name, v := range m {
		if strings.HasSuffix(name, "_min") {
			floor[name] = v
		} else {
			ceil[name] = v
		}
	}
	return ceil, floor
}

// compareSection diffs one named map pair and returns the number of
// regressions. A section empty on either side is skipped entirely, so
// bench-only and report-only results files interoperate.
func compareSection(section string, base, cur map[string]float64,
	judge func(b, c float64) (delta float64, bad bool), deltaFmt string) int {
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
			fmt.Printf("?  [%-10s] %-36s missing from current run\n", section, name)
			continue
		}
		delta, bad := judge(b, c)
		mark := "ok"
		if bad {
			mark = "REGRESSED"
			regressed++
		}
		fmt.Printf("%-9s [%-10s] %-36s %14.0f → %14.0f  ("+deltaFmt+")\n",
			mark, section, name, b, c, delta)
	}
	for name := range cur {
		if _, ok := base[name]; !ok {
			fmt.Printf("+  [%-10s] %-36s new entry (no baseline)\n", section, name)
		}
	}
	return regressed
}
