package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// FailedCell records one experiment cell that failed, so run reports
// never lose the losing cells.
type FailedCell struct {
	// Index is the cell's grid index.
	Index int `json:"index"`
	// Err is the cell's error text.
	Err string `json:"error,omitempty"`
}

// DegradedCell records one experiment cell whose CASA solve degraded —
// it hit its wall-clock budget, was cancelled, or fell back to the
// greedy allocator — so run reports carry every non-optimal result with
// its cause.
type DegradedCell struct {
	// Index is the cell's grid index (-1 when the degradation happened
	// outside any cell).
	Index int `json:"index"`
	// Reason is the degradation cause ("deadline", "canceled",
	// "node-limit", "fault:solver-deadline", ...).
	Reason string `json:"reason"`
	// Gap is the relative optimality gap of the incumbent (0 when
	// unknown).
	Gap float64 `json:"gap,omitempty"`
	// Fallback marks cells served by the greedy fallback because the
	// solver produced no incumbent.
	Fallback bool `json:"fallback,omitempty"`
}

// Report is one machine-readable run record — one JSON line of a
// -report file. A study emits one Report per repeat round.
type Report struct {
	// Study is the study name ("fig4", "table1", ...).
	Study string `json:"study"`
	// Round is the in-process repeat round (0-based).
	Round int `json:"round"`
	// Workers is the worker-pool width the study ran at.
	Workers int `json:"workers"`
	// WallNS is the study's wall time in nanoseconds.
	WallNS int64 `json:"wall_ns"`
	// Error is the study's failure, if any.
	Error string `json:"error,omitempty"`
	// FailedCells lists the failing cells of the study's
	// grids (empty on success).
	FailedCells []FailedCell `json:"failed_cells,omitempty"`
	// DegradedCells lists cells whose CASA solve returned a degraded
	// (anytime or fallback) result instead of a proven optimum.
	DegradedCells []DegradedCell `json:"degraded_cells,omitempty"`
	// Spans is the study's span forest.
	Spans []*Span `json:"spans,omitempty"`
	// Metrics is the study's metric delta: counter movement during the
	// run plus absolute gauge values at its end.
	Metrics Snapshot `json:"metrics,omitempty"`
}

// Canonicalize zeroes every nondeterministic field — timestamps,
// durations, allocation counts, and any metric whose name marks it as
// time-based (containing "_ns") — so reports of a fixed-seed run are
// byte-stable. It is the -report-deterministic test hook.
func (r *Report) Canonicalize() {
	r.WallNS = 0
	for _, s := range r.Spans {
		s.Walk(func(sp *Span) {
			sp.StartUnixNS = 0
			sp.DurNS = 0
			sp.AllocBytes = 0
		})
	}
	for name := range r.Metrics {
		if strings.Contains(name, "_ns") {
			delete(r.Metrics, name)
		}
	}
}

// WriteJSONL appends the report to w as one JSON line. Map keys (attrs,
// metrics) marshal in sorted order, so equal reports produce equal
// bytes.
func (r *Report) WriteJSONL(w io.Writer) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// ReadReports parses a JSONL report stream.
func ReadReports(rd io.Reader) ([]*Report, error) {
	var out []*Report
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		r := &Report{}
		if err := json.Unmarshal([]byte(line), r); err != nil {
			return nil, fmt.Errorf("obs: report line %d: %w", len(out)+1, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
