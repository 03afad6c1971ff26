package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

func TestParseBenchLine(t *testing.T) {
	cases := []struct {
		line string
		name string
		ns   float64
		ok   bool
	}{
		{"BenchmarkFig4CASAvsSteinke-8   1   3990000000 ns/op", "BenchmarkFig4CASAvsSteinke", 3990000000, true},
		{"BenchmarkCacheAccess   	76345986	        15.61 ns/op", "BenchmarkCacheAccess", 15.61, true},
		{"BenchmarkAlloc-4  10  123 ns/op  456 B/op  7 allocs/op", "BenchmarkAlloc", 123, true},
		{"ok  	repro	12.3s", "", 0, false},
		{"PASS", "", 0, false},
		{"BenchmarkBroken  x  y ns/op", "", 0, false},
	}
	for _, c := range cases {
		name, ns, ok := parseBenchLine(c.line)
		if ok != c.ok || name != c.name || ns != c.ns {
			t.Errorf("parseBenchLine(%q) = (%q, %v, %v), want (%q, %v, %v)",
				c.line, name, ns, ok, c.name, c.ns, c.ok)
		}
	}
}

func TestParseAndCompare(t *testing.T) {
	dir := t.TempDir()
	benchTxt := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(benchTxt, []byte(`goos: linux
BenchmarkFast-8   100   1000 ns/op
BenchmarkSlow-8   1   2000000 ns/op
PASS
ok  	repro	3.0s
`), 0o644); err != nil {
		t.Fatal(err)
	}
	cur := filepath.Join(dir, "cur.json")
	if err := runParse(benchTxt, cur); err != nil {
		t.Fatalf("runParse: %v", err)
	}

	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Baseline equal to current: passes.
	same := write("same.json", `{"ns_per_op":{"BenchmarkFast":1000,"BenchmarkSlow":2000000}}`)
	if err := runCompare(same, cur, 20, 20, 5, 20); err != nil {
		t.Errorf("equal results failed the gate: %v", err)
	}

	// Current is >20% slower than this baseline: fails.
	faster := write("faster.json", `{"ns_per_op":{"BenchmarkFast":1000,"BenchmarkSlow":1000000}}`)
	if err := runCompare(faster, cur, 20, 20, 5, 20); err == nil {
		t.Error("2x regression passed a 20% gate")
	}

	// Within threshold: passes.
	if err := runCompare(faster, cur, 150, 20, 5, 20); err != nil {
		t.Errorf("regression within threshold failed: %v", err)
	}

	// Benchmarks missing from either side don't fail the gate.
	disjoint := write("disjoint.json", `{"ns_per_op":{"BenchmarkFast":1000,"BenchmarkGone":5}}`)
	if err := runCompare(disjoint, cur, 20, 20, 5, 20); err != nil {
		t.Errorf("missing/new benchmarks failed the gate: %v", err)
	}
}

// TestParseFoldsSamples: the gate's -parse folds repeated samples to
// their median, while -refresh keeps the slowest as a ceiling.
func TestParseFoldsSamples(t *testing.T) {
	dir := t.TempDir()
	benchTxt := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(benchTxt, []byte(`BenchmarkA-8   1   500 ns/op
BenchmarkA-8   1   100 ns/op
BenchmarkA-8   1   300 ns/op
BenchmarkA-8   1   200 ns/op
BenchmarkA-8   1   400 ns/op
BenchmarkB-8   1   7 ns/op
`), 0o644); err != nil {
		t.Fatal(err)
	}
	cur := filepath.Join(dir, "cur.json")
	if err := runParse(benchTxt, cur); err != nil {
		t.Fatal(err)
	}
	got, err := readResults(cur)
	if err != nil {
		t.Fatal(err)
	}
	if got.NsPerOp["BenchmarkA"] != 300 || got.NsPerOp["BenchmarkB"] != 7 {
		t.Errorf("medians = %v, want A:300 B:7", got.NsPerOp)
	}
	ceil, err := parseBenchFile(benchTxt)
	if err != nil {
		t.Fatal(err)
	}
	if ceil.NsPerOp["BenchmarkA"] != 500 {
		t.Errorf("refresh ceiling = %v, want the slowest sample 500", ceil.NsPerOp["BenchmarkA"])
	}
	// Quartiles 200 and 400 around a median of 300.
	if s := spread([]float64{500, 100, 300, 200, 400}); s != 200.0/300 {
		t.Errorf("spread = %v, want %v", s, 200.0/300)
	}
	if s := spread([]float64{7}); s != 0 {
		t.Errorf("one-sample spread = %v, want 0", s)
	}
}

func TestAggregateReports(t *testing.T) {
	reps := []*obs.Report{
		{
			Study: "fig4", Round: 1,
			Spans: []*obs.Span{{
				Name: "prepare", DurNS: 100,
				Children: []*obs.Span{{Name: "profile", DurNS: 60}},
			}},
			Metrics: obs.Snapshot{
				"casa_pipeline_memo_hits_total":   0,
				"casa_pipeline_memo_misses_total": 4,
			},
		},
		{
			Study: "fig4", Round: 2,
			Spans: []*obs.Span{{Name: "prepare", DurNS: 50}},
			Metrics: obs.Snapshot{
				"casa_pipeline_memo_hits_total": 12,
				"casa_sim_runs_total":           3, // no miss pair: not a rate
				"casa_ilp_nodes_total":          40,
				"casa_ilp_simplex_iters_total":  900,
				"casa_sim_lines_total":          7000,
				"casa_sim_bulk_fetches_total":   1200,
				"casa_trace_replays_total":      5,
			},
		},
	}
	res := aggregateReports(reps)
	if res.StageNs["prepare"] != 150 || res.StageNs["profile"] != 60 {
		t.Errorf("stage ns = %v, want prepare:150 profile:60", res.StageNs)
	}
	rate, ok := res.MemoHitRate["casa_pipeline_memo"]
	if !ok || rate != 75 {
		t.Errorf("memo hit rate = %v, want casa_pipeline_memo:75", res.MemoHitRate)
	}
	if _, ok := res.MemoHitRate["casa_sim_runs"]; ok {
		t.Errorf("unpaired counter produced a hit rate: %v", res.MemoHitRate)
	}
	if res.Counters["casa_ilp_nodes_total"] != 40 || res.Counters["casa_ilp_simplex_iters_total"] != 900 {
		t.Errorf("counters = %v, want nodes:40 iters:900", res.Counters)
	}
	if res.Counters["casa_sim_lines_total"] != 7000 ||
		res.Counters["casa_sim_bulk_fetches_total"] != 1200 ||
		res.Counters["casa_trace_replays_total"] != 5 {
		t.Errorf("sim counters = %v, want lines:7000 bulk:1200 replays:5", res.Counters)
	}
	if _, ok := res.Counters["casa_sim_runs_total"]; ok {
		t.Errorf("non-gated metric leaked into counters: %v", res.Counters)
	}
}

func TestCompareCounterSection(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	base := write("base.json",
		`{"counters":{"casa_ilp_nodes_total":1000,"casa_ilp_dense_fallbacks_total":0}}`)

	// Within threshold: passes.
	ok := write("ok.json", `{"counters":{"casa_ilp_nodes_total":1100,"casa_ilp_dense_fallbacks_total":0}}`)
	if err := runCompare(base, ok, 20, 20, 5, 20); err != nil {
		t.Errorf("10%% node growth failed a 20%% gate: %v", err)
	}

	// Node count up 50%: the solver is searching more — fails.
	worse := write("worse.json", `{"counters":{"casa_ilp_nodes_total":1500,"casa_ilp_dense_fallbacks_total":0}}`)
	if err := runCompare(base, worse, 20, 20, 5, 20); err == nil {
		t.Error("50% node-count growth passed a 20% gate")
	}

	// Dense fallbacks reappearing from a zero baseline: fails.
	fb := write("fb.json", `{"counters":{"casa_ilp_nodes_total":1000,"casa_ilp_dense_fallbacks_total":3}}`)
	if err := runCompare(base, fb, 20, 20, 5, 20); err == nil {
		t.Error("dense fallbacks from a zero baseline passed the gate")
	}

	// Fewer nodes is an improvement, never a regression.
	better := write("better.json", `{"counters":{"casa_ilp_nodes_total":400,"casa_ilp_dense_fallbacks_total":0}}`)
	if err := runCompare(base, better, 20, 20, 5, 20); err != nil {
		t.Errorf("node-count improvement failed the gate: %v", err)
	}
}

func TestCompareReportSections(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	base := write("base.json",
		`{"ns_per_op":{"BenchmarkX":100},"stage_ns":{"prepare":2e8,"layout":1e3},"memo_hit_rate":{"casa_pipeline_memo":75}}`)

	// Equal report-derived sections, no ns_per_op in current: gate passes
	// (the ns/op section is skipped, not failed).
	ok := write("ok.json", `{"stage_ns":{"prepare":2e8,"layout":1e3},"memo_hit_rate":{"casa_pipeline_memo":75}}`)
	if err := runCompare(base, ok, 20, 20, 5, 20); err != nil {
		t.Errorf("matching report sections failed the gate: %v", err)
	}

	// Stage time doubled: fails the stage gate.
	slow := write("slow.json", `{"stage_ns":{"prepare":4e8,"layout":1e3},"memo_hit_rate":{"casa_pipeline_memo":75}}`)
	if err := runCompare(base, slow, 20, 20, 5, 20); err == nil {
		t.Error("2x stage regression passed a 20% gate")
	}

	// Sub-floor stage doubled: jitter, not a regression.
	jitter := write("jitter.json", `{"stage_ns":{"prepare":2e8,"layout":2e3},"memo_hit_rate":{"casa_pipeline_memo":75}}`)
	if err := runCompare(base, jitter, 20, 20, 5, 20); err != nil {
		t.Errorf("sub-floor stage jitter failed the gate: %v", err)
	}

	// Hit rate dropped 10pp: fails the hit-rate gate.
	cold := write("cold.json", `{"stage_ns":{"prepare":2e8,"layout":1e3},"memo_hit_rate":{"casa_pipeline_memo":65}}`)
	if err := runCompare(base, cold, 20, 20, 5, 20); err == nil {
		t.Error("10pp hit-rate drop passed a 5pp gate")
	}

	// Hit rate improved: never a regression.
	warm := write("warm.json", `{"stage_ns":{"prepare":2e8,"layout":1e3},"memo_hit_rate":{"casa_pipeline_memo":90}}`)
	if err := runCompare(base, warm, 20, 20, 5, 20); err != nil {
		t.Errorf("hit-rate improvement failed the gate: %v", err)
	}
}

func TestFromReportEndToEnd(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "report.jsonl")
	lines := `{"study":"fig4","round":1,"workers":1,"wall_ns":0,"spans":[{"name":"prepare","dur_ns":100,"children":[{"name":"profile","dur_ns":60}]}],"metrics":{"casa_pipeline_memo_misses_total":2}}
{"study":"fig4","round":2,"workers":1,"wall_ns":0,"spans":[{"name":"cell","dur_ns":10}],"metrics":{"casa_pipeline_memo_hits_total":6}}
`
	if err := os.WriteFile(jsonl, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.json")
	if err := runFromReport(jsonl, out); err != nil {
		t.Fatalf("runFromReport: %v", err)
	}
	res, err := readResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if res.StageNs["prepare"] != 100 || res.StageNs["profile"] != 60 || res.StageNs["cell"] != 10 {
		t.Errorf("stage ns = %v", res.StageNs)
	}
	if res.MemoHitRate["casa_pipeline_memo"] != 75 {
		t.Errorf("hit rate = %v, want 75", res.MemoHitRate["casa_pipeline_memo"])
	}
	if len(res.NsPerOp) != 0 {
		t.Errorf("unexpected ns_per_op section: %v", res.NsPerOp)
	}
}

// TestFromReportRejectsDegraded: the CI gate must refuse to aggregate a
// report carrying degraded cells (or a moved degraded counter) — a
// budget-expired solve would make the benchmark numbers incomparable.
func TestFromReportRejectsDegraded(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.json")
	cases := map[string]string{
		"degraded-cells":   `{"study":"fig4","round":1,"degraded_cells":[{"index":2,"reason":"deadline","gap":0.1}]}` + "\n",
		"degraded-counter": `{"study":"fig4","round":1,"metrics":{"casa_solve_degraded_total":3}}` + "\n",
		"panic-counter":    `{"study":"fig4","round":1,"metrics":{"casa_cell_panics_total":1}}` + "\n",
	}
	for name, line := range cases {
		jsonl := filepath.Join(dir, name+".jsonl")
		if err := os.WriteFile(jsonl, []byte(line), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := runFromReport(jsonl, out); err == nil {
			t.Errorf("%s: degraded report passed the gate", name)
		}
	}
	clean := filepath.Join(dir, "clean.jsonl")
	if err := os.WriteFile(clean, []byte(`{"study":"fig4","round":1,"spans":[{"name":"cell","dur_ns":5}]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runFromReport(clean, out); err != nil {
		t.Errorf("clean report failed the gate: %v", err)
	}
}

// TestFromLoadServerGate: a casaload report converts into a server
// section carrying both the classic ceilings and the telemetry floor,
// and the compare gate enforces each with the right sense.
func TestFromLoadServerGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	load := write("load_report.json", `{"requests":500,"p99_ms":12.5,"http_5xx":0,"errors":0,
		"server_metrics":{"casa_server_traced_requests_total":500,
		                  "casa_server_trace_store_drops_total":0}}`)
	cur := filepath.Join(dir, "cur.json")
	if err := runFromLoad(load, cur, false); err != nil {
		t.Fatalf("runFromLoad: %v", err)
	}
	res, err := readResults(cur)
	if err != nil {
		t.Fatal(err)
	}
	if res.Server["p99_ms"] != 12.5 || res.Server["traced_requests_min"] != 500 ||
		res.Server["trace_store_drops"] != 0 {
		t.Fatalf("server section = %v", res.Server)
	}

	// Within every ceiling and above the floor: passes.
	base := write("base.json",
		`{"server":{"p99_ms":250,"http_5xx":0,"errors":0,"traced_requests_min":1,"trace_store_drops":0}}`)
	if err := runCompare(base, cur, 20, 20, 5, 20); err != nil {
		t.Errorf("healthy run failed the server gate: %v", err)
	}

	// Must-keep trace drops breach the ceiling.
	dropping := write("dropping.json",
		`{"server":{"p99_ms":12.5,"http_5xx":0,"errors":0,"traced_requests_min":500,"trace_store_drops":3}}`)
	if err := runCompare(base, dropping, 20, 20, 5, 20); err == nil {
		t.Error("trace-store drops passed the ceiling gate")
	}

	// Tracing silently off falls below the floor even though every
	// ceiling holds.
	untraced := write("untraced.json",
		`{"server":{"p99_ms":12.5,"http_5xx":0,"errors":0,"traced_requests_min":0,"trace_store_drops":0}}`)
	if err := runCompare(base, untraced, 20, 20, 5, 20); err == nil {
		t.Error("zero traced requests passed the floor gate")
	}

	// A report covering zero requests is a broken run, not a baseline.
	empty := write("empty.json", `{"requests":0}`)
	if err := runFromLoad(empty, cur, false); err == nil {
		t.Error("zero-request load report converted without error")
	}
}

// TestFromLoadChaosGate: -chaos adds the injection floors and the
// unexpected-outcome ceiling to the server section, refuses a report
// with no chaos traffic, and the compare gate turns red when a chaos
// run injected nothing.
func TestFromLoadChaosGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	load := write("chaos_report.json", `{"requests":500,"p99_ms":12.5,"http_5xx":0,"errors":0,
		"chaos_requests":20,"chaos_unexpected":0,
		"server_metrics":{"casa_server_traced_requests_total":500,
		                  "casa_server_trace_store_drops_total":0,
		                  "casa_server_deadline_exceeded_total":4,
		                  "casa_server_body_too_large_total":4,
		                  "casa_faults_injected_total":8}}`)
	cur := filepath.Join(dir, "cur.json")
	if err := runFromLoad(load, cur, true); err != nil {
		t.Fatalf("runFromLoad -chaos: %v", err)
	}
	res, err := readResults(cur)
	if err != nil {
		t.Fatal(err)
	}
	if res.Server["chaos_deadline_exceeded_min"] != 4 || res.Server["chaos_body_too_large_min"] != 4 ||
		res.Server["chaos_injected_min"] != 8 || res.Server["chaos_unexpected"] != 0 {
		t.Fatalf("chaos server section = %v", res.Server)
	}

	base := write("base.json", `{"server":{"p99_ms":250,"http_5xx":0,"errors":0,
		"traced_requests_min":1,"trace_store_drops":0,
		"chaos_deadline_exceeded_min":2,"chaos_body_too_large_min":2,
		"chaos_injected_min":2,"chaos_unexpected":0}}`)
	if err := runCompare(base, cur, 20, 20, 5, 20); err != nil {
		t.Errorf("healthy chaos run failed the gate: %v", err)
	}

	// A chaos run whose faults never fired falls below the floor.
	inert := write("inert.json", `{"requests":500,"p99_ms":12.5,"http_5xx":0,"errors":0,
		"chaos_requests":20,"chaos_unexpected":0,
		"server_metrics":{"casa_server_traced_requests_total":500,
		                  "casa_server_deadline_exceeded_total":4,
		                  "casa_server_body_too_large_total":4,
		                  "casa_faults_injected_total":0}}`)
	inertCur := filepath.Join(dir, "inert_cur.json")
	if err := runFromLoad(inert, inertCur, true); err != nil {
		t.Fatalf("runFromLoad -chaos (inert): %v", err)
	}
	if err := runCompare(base, inertCur, 20, 20, 5, 20); err == nil {
		t.Error("chaos run that injected nothing passed the floor gate")
	}

	// Chaos requests that answered outside their expected set breach
	// the ceiling.
	odd := write("odd.json", `{"requests":500,"p99_ms":12.5,"http_5xx":0,"errors":0,
		"chaos_requests":20,"chaos_unexpected":3,
		"server_metrics":{"casa_server_deadline_exceeded_total":4,
		                  "casa_server_body_too_large_total":4,
		                  "casa_faults_injected_total":8}}`)
	oddCur := filepath.Join(dir, "odd_cur.json")
	if err := runFromLoad(odd, oddCur, true); err != nil {
		t.Fatalf("runFromLoad -chaos (odd): %v", err)
	}
	if err := runCompare(base, oddCur, 20, 20, 5, 20); err == nil {
		t.Error("unexpected chaos outcomes passed the ceiling gate")
	}

	// -chaos on a report with no chaos traffic is a misconfigured run.
	plain := write("plain.json", `{"requests":500,"p99_ms":12.5}`)
	if err := runFromLoad(plain, cur, true); err == nil {
		t.Error("-chaos accepted a report with zero chaos requests")
	}
}

// TestValidateSniffsFormat: -validate accepts both artifact kinds the CI
// jobs feed it — results JSON and scraped Prometheus text — and rejects
// corrupt versions of each.
func TestValidateSniffsFormat(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	good := write("results.json", `{"server":{"p99_ms":250}}`)
	if err := runValidate(good); err != nil {
		t.Errorf("valid results file rejected: %v", err)
	}
	unknown := write("unknown.json", `{"latency":{"p99_ms":250}}`)
	if err := runValidate(unknown); err == nil {
		t.Error("results file with unknown section accepted")
	}

	prom := write("metrics.prom", "# TYPE casa_server_requests counter\n"+
		"casa_server_requests_total 41\n# EOF\n")
	if err := runValidate(prom); err != nil {
		t.Errorf("valid exposition rejected: %v", err)
	}
	truncated := write("truncated.prom", "# TYPE casa_server_requests counter\n"+
		"casa_server_requests_total 41\n")
	if err := runValidate(truncated); err == nil {
		t.Error("exposition without # EOF accepted")
	}
	garbage := write("garbage.txt", "not metrics at all\n")
	if err := runValidate(garbage); err == nil {
		t.Error("garbage text accepted")
	}
}
