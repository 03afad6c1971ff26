package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func writeFile(t *testing.T, dir, name, body string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAggregateReports(t *testing.T) {
	reps := []*obs.Report{
		{
			Study: "fig4", Round: 1,
			Spans: []*obs.Span{{Name: "prepare", DurNS: 100}},
			Metrics: obs.Snapshot{
				"casa_pipeline_memo_hits_total":   0,
				"casa_pipeline_memo_misses_total": 4,
			},
		},
		{
			Study: "fig4", Round: 2,
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
	if len(res.Counters) != len(counterGates) {
		t.Errorf("counters = %v, want an entry (zero if unset) for each of %v", res.Counters, counterGates)
	}
}

func TestCompareCounterSection(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.json",
		`{"counters":{"casa_ilp_nodes_total":1000,"casa_ilp_dense_fallbacks_total":0}}`)

	for _, tc := range []struct {
		name, body string
		pass       bool
	}{
		{"equal", `{"counters":{"casa_ilp_nodes_total":1000,"casa_ilp_dense_fallbacks_total":0}}`, true},
		{"more nodes", `{"counters":{"casa_ilp_nodes_total":1100,"casa_ilp_dense_fallbacks_total":0}}`, false},
		// Fewer nodes is still a change: the baseline needs a refresh.
		{"fewer nodes", `{"counters":{"casa_ilp_nodes_total":400,"casa_ilp_dense_fallbacks_total":0}}`, false},
		{"fallbacks reappear", `{"counters":{"casa_ilp_nodes_total":1000,"casa_ilp_dense_fallbacks_total":3}}`, false},
		{"entry missing", `{"counters":{"casa_ilp_nodes_total":1000}}`, false},
		{"new entry only", `{"counters":{"casa_ilp_nodes_total":1000,"casa_ilp_dense_fallbacks_total":0,"casa_new_total":5}}`, true},
	} {
		err := runCompare(base, writeFile(t, dir, "cur.json", tc.body))
		if (err == nil) != tc.pass {
			t.Errorf("%s: runCompare err = %v, want pass=%v", tc.name, err, tc.pass)
		}
	}
}

// TestCompareExactGate: a ±1 change to any counter of the committed
// baseline, or to any of its memo rates, fails the gate.
func TestCompareExactGate(t *testing.T) {
	dir := t.TempDir()
	base, err := readResults(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Counters) == 0 || len(base.MemoHitRate) == 0 {
		t.Fatalf("committed baseline lacks counters or memo rates: %+v", base)
	}
	basePath := filepath.Join(dir, "base.json")
	if err := writeResults(base, basePath); err != nil {
		t.Fatal(err)
	}
	same := Results{MemoHitRate: base.MemoHitRate, Counters: base.Counters}
	if err := runCompare(basePath, writeResultsFile(t, dir, same)); err != nil {
		t.Fatalf("baseline against itself failed: %v", err)
	}
	for _, section := range []map[string]float64{base.Counters, base.MemoHitRate} {
		for name, v := range section {
			for _, d := range []float64{-1, 1} {
				section[name] = v + d
				if err := runCompare(basePath, writeResultsFile(t, dir, same)); err == nil {
					t.Errorf("%s %+g passed the exact gate", name, d)
				}
				section[name] = v
			}
		}
	}
}

func writeResultsFile(t *testing.T, dir string, res Results) string {
	t.Helper()
	p := filepath.Join(dir, "cur.json")
	if err := writeResults(res, p); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCompareMissingEntryFails: a baseline entry absent from a section
// the current file carries fails the gate — a renamed memo metric or a
// dropped counter must not pass silently. A section absent from the
// current file as a whole is skipped.
func TestCompareMissingEntryFails(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.json", `{
		"memo_hit_rate":{"casa_pipeline_memo":75,"casa_stream_cache":95},
		"counters":{"casa_ilp_nodes_total":906,"casa_ilp_simplex_iters_total":6393},
		"server":{"p99_ms":250,"traced_requests_min":1,"chaos_injected_min":2,"chaos_unexpected":0}}`)
	for _, tc := range []struct {
		name, body string
		pass       bool
	}{
		{"report, all present", `{"memo_hit_rate":{"casa_pipeline_memo":75,"casa_stream_cache":95},
			"counters":{"casa_ilp_nodes_total":906,"casa_ilp_simplex_iters_total":6393}}`, true},
		{"memo rate renamed", `{"memo_hit_rate":{"casa_pipeline_memo":75,"casa_stream_memo":95},
			"counters":{"casa_ilp_nodes_total":906,"casa_ilp_simplex_iters_total":6393}}`, false},
		{"counter missing", `{"memo_hit_rate":{"casa_pipeline_memo":75,"casa_stream_cache":95},
			"counters":{"casa_ilp_simplex_iters_total":6393}}`, false},
		{"load without chaos", `{"server":{"p99_ms":12,"traced_requests_min":40}}`, true},
		{"server entry missing", `{"server":{"p99_ms":12}}`, false},
		{"chaos entry missing", `{"server":{"p99_ms":12,"traced_requests_min":40,"chaos_unexpected":0}}`, false},
	} {
		err := runCompare(base, writeFile(t, dir, "cur.json", tc.body))
		if (err == nil) != tc.pass {
			t.Errorf("%s: runCompare err = %v, want pass=%v", tc.name, err, tc.pass)
		}
	}
}

// TestCompareReportSections: memo hit rates gate exactly, in either
// direction, however small the move.
func TestCompareReportSections(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.json", `{"memo_hit_rate":{"casa_pipeline_memo":75}}`)
	for _, tc := range []struct {
		rate float64
		pass bool
	}{{75, true}, {65, false}, {90, false}, {74.99, false}} {
		cur := writeFile(t, dir, "cur.json", fmt.Sprintf(`{"memo_hit_rate":{"casa_pipeline_memo":%g}}`, tc.rate))
		if err := runCompare(base, cur); (err == nil) != tc.pass {
			t.Errorf("hit rate %g: runCompare err = %v, want pass=%v", tc.rate, err, tc.pass)
		}
	}
}

// TestRefreshNeedsRepeatingRuns: -refresh writes the memo and counter
// sections from report runs that agree exactly, keeps the server
// budgets, and refuses runs that disagree.
func TestRefreshNeedsRepeatingRuns(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.json", `{"counters":{"casa_ilp_nodes_total":1},"server":{"p99_ms":250}}`)
	r1 := writeFile(t, dir, "r1.jsonl", `{"study":"fig4","round":1,"metrics":{"casa_ilp_nodes_total":902,"casa_profile_memo_hits_total":9,"casa_profile_memo_misses_total":2}}`+"\n")
	r2 := writeFile(t, dir, "r2.jsonl", `{"study":"fig4","round":1,"metrics":{"casa_ilp_nodes_total":902,"casa_profile_memo_hits_total":9,"casa_profile_memo_misses_total":2}}`+"\n")
	r3 := writeFile(t, dir, "r3.jsonl", `{"study":"fig4","round":1,"metrics":{"casa_ilp_nodes_total":903}}`+"\n")
	if err := runRefresh(base, r1+","+r2); err != nil {
		t.Fatalf("refresh from agreeing runs: %v", err)
	}
	got, err := readResults(base)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters["casa_ilp_nodes_total"] != 902 || got.Server["p99_ms"] != 250 ||
		got.MemoHitRate["casa_profile_memo"] != 100*9.0/11 {
		t.Errorf("refreshed baseline = %+v", got)
	}
	if err := runRefresh(base, r1+","+r3); err == nil {
		t.Error("refresh accepted runs whose counters disagree")
	}
}

// abLines renders perfbench-style A/B run lines for one workload, one
// line per value, with every end-to-end metric set to base except the
// one under test.
func abLines(workload, metric string, values []float64, failed int) string {
	var sb strings.Builder
	for _, v := range values {
		metrics := map[string]map[string]float64{}
		for _, m := range []string{"setup_s", "op_ms_p50", "ops_per_s"} {
			metrics[m] = map[string]float64{"value": 100}
		}
		metrics[metric] = map[string]float64{"value": v}
		line, _ := json.Marshal(map[string]any{"workload": workload, "result": map[string]any{
			"correct": failed == 0, "attempted": 50, "failed": failed, "metrics": metrics}})
		sb.Write(line)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestJudgeAB(t *testing.T) {
	spec := `{"workloads":[{"name":"fig4-grid"}],"end_to_end":[
		{"name":"setup_s","better":"lower","bound":0.25},
		{"name":"op_ms_p50","better":"lower","bound":0.25},
		{"name":"ops_per_s","better":"higher","bound":0.25}]}`
	for _, tc := range []struct {
		name           string
		metric         string
		parent, change []float64
		failedP        int
		failedC        int
		wantErr        bool
		wantVerdict    string
		wantWins       string // pairs the change won, counted in the metric's direction
	}{
		{name: "regression beyond bound", metric: "op_ms_p50",
			parent: []float64{100, 101, 99, 100}, change: []float64{140, 139, 141, 140},
			wantErr: true, wantVerdict: "WORSE", wantWins: " 0/4 "},
		{name: "regression within bound", metric: "op_ms_p50",
			parent: []float64{100, 101, 99, 100}, change: []float64{120, 119, 121, 120},
			wantVerdict: "ok", wantWins: " 0/4 "},
		{name: "improvement", metric: "op_ms_p50",
			parent: []float64{100, 101, 99, 100}, change: []float64{50, 51, 49, 50},
			wantVerdict: "ok", wantWins: " 4/4 "},
		{name: "mixed pairs", metric: "op_ms_p50",
			parent: []float64{100, 100, 100, 100}, change: []float64{90, 110, 95, 105},
			wantVerdict: "ok", wantWins: " 2/4 "},
		{name: "noisy parent is unresolved", metric: "op_ms_p50",
			parent: []float64{60, 100, 140, 200}, change: []float64{200, 210, 220, 230},
			wantVerdict: "unresolved", wantWins: " 0/4 "},
		{name: "higher-is-better drop fails", metric: "ops_per_s",
			parent: []float64{100, 101, 99, 100}, change: []float64{60, 61, 59, 60},
			wantErr: true, wantVerdict: "WORSE", wantWins: " 0/4 "},
		{name: "higher-is-better rise passes", metric: "ops_per_s",
			parent: []float64{100, 101, 99, 100}, change: []float64{160, 161, 159, 160},
			wantVerdict: "ok", wantWins: " 4/4 "},
		{name: "higher-is-better mixed pairs", metric: "ops_per_s",
			parent: []float64{100, 100, 100, 100}, change: []float64{110, 90, 120, 95},
			wantVerdict: "ok", wantWins: " 2/4 "},
		{name: "more failed operations", metric: "op_ms_p50",
			parent: []float64{100, 100}, change: []float64{100, 100}, failedC: 1,
			wantErr: true, wantVerdict: "MORE FAILED"},
		{name: "as many failed operations", metric: "op_ms_p50",
			parent: []float64{100, 100}, change: []float64{100, 100}, failedP: 1, failedC: 1,
			wantVerdict: "ok"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			specPath := writeFile(t, dir, "BENCHMARK.json", spec)
			p := writeFile(t, dir, "parent.jsonl", abLines("fig4-grid", tc.metric, tc.parent, tc.failedP))
			c := writeFile(t, dir, "change.jsonl", abLines("fig4-grid", tc.metric, tc.change, tc.failedC))
			var out strings.Builder
			err := runAB(specPath, p, c, &out)
			if (err != nil) != tc.wantErr {
				t.Fatalf("runAB err = %v, want error %v\n%s", err, tc.wantErr, out.String())
			}
			key := " " + tc.metric + " "
			if tc.wantVerdict == "MORE FAILED" {
				key = "failed ops"
			}
			row := ""
			for _, line := range strings.Split(out.String(), "\n") {
				if strings.Contains(line, key) {
					row = line
					break
				}
			}
			if !strings.HasSuffix(row, tc.wantVerdict) || !strings.Contains(row, tc.wantWins) {
				t.Errorf("row %q, want verdict %s and wins %q\n%s", row, tc.wantVerdict, tc.wantWins, out.String())
			}
		})
	}
}

// TestJudgeABRejectsAbsentData: a workload without runs, unequal pair
// counts or a run lacking a metric is an error, never a pass.
func TestJudgeABRejectsAbsentData(t *testing.T) {
	dir := t.TempDir()
	spec := writeFile(t, dir, "BENCHMARK.json", `{"workloads":[{"name":"fig4-grid"},{"name":"serve-mix"}],
		"end_to_end":[{"name":"op_ms_p50","better":"lower","bound":0.25}]}`)
	two := writeFile(t, dir, "two.jsonl", abLines("fig4-grid", "op_ms_p50", []float64{1, 1}, 0)+
		abLines("serve-mix", "op_ms_p50", []float64{1, 1}, 0))
	cases := map[string]string{
		"workload absent": abLines("fig4-grid", "op_ms_p50", []float64{1, 1}, 0),
		"pair missing": abLines("fig4-grid", "op_ms_p50", []float64{1, 1}, 0) +
			abLines("serve-mix", "op_ms_p50", []float64{1}, 0),
		"metric absent": abLines("fig4-grid", "op_ms_p50", []float64{1, 1}, 0) +
			strings.ReplaceAll(abLines("serve-mix", "op_ms_p50", []float64{1, 1}, 0), "op_ms_p50", "op_ms_p51"),
	}
	for name, body := range cases {
		if err := runAB(spec, two, writeFile(t, dir, "change.jsonl", body), io.Discard); err == nil {
			t.Errorf("%s: runAB passed", name)
		}
	}
	if err := runAB(spec, two, two, io.Discard); err != nil {
		t.Errorf("identical runs failed: %v", err)
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
	if res.MemoHitRate["casa_pipeline_memo"] != 75 {
		t.Errorf("hit rate = %v, want 75", res.MemoHitRate["casa_pipeline_memo"])
	}
	if len(res.Server) != 0 {
		t.Errorf("unexpected server section: %v", res.Server)
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
	if err := runCompare(base, cur); err != nil {
		t.Errorf("healthy run failed the server gate: %v", err)
	}

	// Must-keep trace drops breach the ceiling.
	dropping := write("dropping.json",
		`{"server":{"p99_ms":12.5,"http_5xx":0,"errors":0,"traced_requests_min":500,"trace_store_drops":3}}`)
	if err := runCompare(base, dropping); err == nil {
		t.Error("trace-store drops passed the ceiling gate")
	}

	// Tracing silently off falls below the floor even though every
	// ceiling holds.
	untraced := write("untraced.json",
		`{"server":{"p99_ms":12.5,"http_5xx":0,"errors":0,"traced_requests_min":0,"trace_store_drops":0}}`)
	if err := runCompare(base, untraced); err == nil {
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
	if err := runCompare(base, cur); err != nil {
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
	if err := runCompare(base, inertCur); err == nil {
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
	if err := runCompare(base, oddCur); err == nil {
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
