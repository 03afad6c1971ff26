package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/obs"
)

// TestReportGoldenStability runs fig4 three rounds on one suite with the
// deterministic report hook. Rounds 2 and 3 both execute against fully
// warmed memo layers, so after Canonicalize zeroes the wall times their
// JSONL lines must be byte-identical — the property the golden CI check
// relies on.
func TestReportGoldenStability(t *testing.T) {
	sel := selectStudies("fig4")
	if len(sel) != 1 {
		t.Fatalf("selectStudies(fig4) = %d studies, want 1", len(sel))
	}
	var buf bytes.Buffer
	s := experiments.NewSuite().SetWorkers(1)
	if err := runStudies(sel, s, 3, io.Discard, io.Discard, &buf, true); err != nil {
		t.Fatalf("runStudies: %v", err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d report lines, want 3", len(lines))
	}
	round2 := strings.Replace(lines[1], `"round":2`, `"round":3`, 1)
	if round2 == lines[1] {
		t.Fatalf("round field not found in %q", lines[1])
	}
	if round2 != lines[2] {
		t.Errorf("warm rounds differ:\nround 2: %s\nround 3: %s", lines[1], lines[2])
	}
}

// TestReportStagesAndMemoHits checks the acceptance criterion: a fig4
// report holds a span tree with at least 6 distinct stage names, and the
// second (warm) round records pipeline memo hits.
func TestReportStagesAndMemoHits(t *testing.T) {
	sel := selectStudies("fig4")
	var buf bytes.Buffer
	s := experiments.NewSuite().SetWorkers(2)
	if err := runStudies(sel, s, 2, io.Discard, io.Discard, &buf, false); err != nil {
		t.Fatalf("runStudies: %v", err)
	}
	reps, err := obs.ReadReports(&buf)
	if err != nil {
		t.Fatalf("ReadReports: %v", err)
	}
	if len(reps) != 2 {
		t.Fatalf("got %d reports, want 2", len(reps))
	}

	names := make(map[string]bool)
	for _, rep := range reps {
		for _, n := range obs.StageNames(rep.Spans) {
			names[n] = true
		}
	}
	if len(names) < 6 {
		t.Errorf("span tree has %d distinct stage names (%v), want >= 6", len(names), names)
	}
	for _, want := range []string{"prepare", "profile", "conflict-graph", "cell", "allocate", "simulate"} {
		if !names[want] {
			t.Errorf("stage %q missing from span tree (have %v)", want, names)
		}
	}

	warm := reps[1]
	if warm.Round != 2 {
		t.Fatalf("second report is round %d, want 2", warm.Round)
	}
	if hits := warm.Metrics["casa_pipeline_memo_hits_total"]; hits <= 0 {
		t.Errorf("warm round pipeline memo hits = %v, want > 0 (metrics: %v)", hits, warm.Metrics)
	}
	if miss := warm.Metrics["casa_pipeline_memo_misses_total"]; miss != 0 {
		t.Errorf("warm round pipeline memo misses = %v, want 0", miss)
	}
	if reps[0].Metrics["casa_pipeline_memo_misses_total"] <= 0 {
		t.Errorf("cold round recorded no pipeline memo misses (metrics: %v)", reps[0].Metrics)
	}
}

// TestSelectStudies pins the study registry names the CLI accepts.
func TestSelectStudies(t *testing.T) {
	if got := len(selectStudies("all")); got != len(studies) {
		t.Errorf("all selects %d studies, want %d", got, len(studies))
	}
	if sel := selectStudies("wat"); sel != nil {
		t.Errorf("unknown study selected %v", sel)
	}
}

// TestSolveBudgetDegradedReport: a tiny solve budget forces every cell's
// ILP into the anytime path, and the run report must list each degraded
// cell with its cause — while the study itself still completes with rows.
func TestSolveBudgetDegradedReport(t *testing.T) {
	sel := selectStudies("fig4")
	var buf bytes.Buffer
	s := experiments.NewSuite().SetWorkers(2).SetSolveBudget(1) // 1ns: expires instantly
	if err := runStudies(sel, s, 1, io.Discard, io.Discard, &buf, false); err != nil {
		t.Fatalf("runStudies under budget: %v", err)
	}
	reps, err := obs.ReadReports(&buf)
	if err != nil {
		t.Fatalf("ReadReports: %v", err)
	}
	if len(reps) != 1 {
		t.Fatalf("got %d reports, want 1", len(reps))
	}
	rep := reps[0]
	if len(rep.DegradedCells) == 0 {
		t.Fatal("no degraded cells in report despite 1ns solve budget")
	}
	for _, dc := range rep.DegradedCells {
		if dc.Reason == "" {
			t.Errorf("degraded cell %d has no reason", dc.Index)
		}
		if dc.Index < 0 {
			t.Errorf("degraded span outside any cell (index %d)", dc.Index)
		}
	}
	if rep.Metrics["casa_solve_degraded_total"] <= 0 {
		t.Error("casa_solve_degraded_total did not move")
	}
}

// TestChaosReportListsFailedCells: an injected cell panic fails the
// study, and the report line written before the error propagates must
// list the losing cell with its cause so the failure is auditable.
func TestChaosReportListsFailedCells(t *testing.T) {
	plan, err := fault.Parse("cell-panic:1")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	fault.Set(plan)
	defer fault.Set(nil)

	sel := selectStudies("fig4")
	var buf bytes.Buffer
	s := experiments.NewSuite().SetWorkers(1)
	runErr := runStudies(sel, s, 1, io.Discard, io.Discard, &buf, false)
	if runErr == nil {
		t.Fatal("runStudies under cell-panic:1 succeeded, want grid error")
	}
	reps, err := obs.ReadReports(&buf)
	if err != nil {
		t.Fatalf("ReadReports: %v", err)
	}
	if len(reps) != 1 {
		t.Fatalf("got %d reports, want 1 (the line must be written before the error propagates)", len(reps))
	}
	rep := reps[0]
	if rep.Error == "" {
		t.Error("report carries no study error")
	}
	if len(rep.FailedCells) != 1 {
		t.Fatalf("FailedCells = %+v, want exactly one", rep.FailedCells)
	}
	fc := rep.FailedCells[0]
	// cell-panic:1 fires at the first cell *executed*; the warm planner
	// runs fig4 largest-scratchpad-first, so that is grid index 3.
	if fc.Index != 3 || !strings.Contains(fc.Err, "cell-panic") {
		t.Errorf("failed cell = %+v, want index 3 (first executed under warm order) with a cell-panic cause", fc)
	}
	if rep.Metrics["casa_cell_panics_total"] != 1 {
		t.Errorf("casa_cell_panics_total = %v, want 1", rep.Metrics["casa_cell_panics_total"])
	}
	if rep.Metrics["casa_faults_injected_total"] != 1 {
		t.Errorf("casa_faults_injected_total = %v, want 1", rep.Metrics["casa_faults_injected_total"])
	}
}

// TestCollectDegradedDedupesPerCell: two degraded spans under one cell
// (the solve span and the memo-annotation span) yield one entry.
func TestCollectDegradedDedupes(t *testing.T) {
	cell := &obs.Span{Name: "cell", Attrs: map[string]any{"index": 3}}
	cell.Children = []*obs.Span{
		{Name: "ilp-solve", Attrs: map[string]any{"degraded": "deadline", "gap": 0.25}},
		{Name: "degraded-allocation", Attrs: map[string]any{"degraded": "deadline", "gap": 0.25, "fallback": "greedy"}},
	}
	got := collectDegraded([]*obs.Span{{Name: "study", Children: []*obs.Span{cell}}})
	if len(got) != 1 {
		t.Fatalf("collectDegraded returned %d entries, want 1", len(got))
	}
	dc := got[0]
	if dc.Index != 3 || dc.Reason != "deadline" || dc.Gap != 0.25 {
		t.Errorf("entry = %+v", dc)
	}
}
