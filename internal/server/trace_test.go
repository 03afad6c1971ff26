package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
)

func httptestServer(t *testing.T) *httptest.Server {
	t.Helper()
	return httptestServerFor(t, New(testConfig()))
}

func httptestServerFor(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	return httptest.NewServer(s.Handler())
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp
}

func TestRequestIDPropagation(t *testing.T) {
	ts := httptestServer(t)
	defer ts.Close()

	// A well-formed inbound ID is honored and echoed.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/allocate", strings.NewReader(adpcmBody(512)))
	req.Header.Set("X-Request-Id", "client-id.42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "client-id.42" {
		t.Fatalf("inbound request ID not echoed: %q", got)
	}

	// A hostile one (header injection material) is replaced.
	req, _ = http.NewRequest("POST", ts.URL+"/v1/allocate", strings.NewReader(adpcmBody(512)))
	req.Header.Set("X-Request-Id", `evil"id with spaces`)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := resp.Header.Get("X-Request-Id")
	if got == "" || strings.ContainsAny(got, "\" ") {
		t.Fatalf("unsafe request ID not replaced: %q", got)
	}

	// No inbound ID: one is generated, distinct per request.
	ids := map[string]bool{}
	for i := 0; i < 3; i++ {
		r2, _ := http.Post(ts.URL+"/v1/allocate", "application/json", strings.NewReader(adpcmBody(512)))
		r2.Body.Close()
		id := r2.Header.Get("X-Request-Id")
		if id == "" || ids[id] {
			t.Fatalf("generated ID missing or repeated: %q", id)
		}
		ids[id] = true
	}
}

func TestTraceEndpointsAndSpanTree(t *testing.T) {
	ts := httptestServer(t)
	defer ts.Close()

	// A cold solve: its trace lands in the store (slowest-N — the first
	// request is by definition among the slowest).
	req, _ := http.NewRequest("POST", ts.URL+"/v1/allocate", strings.NewReader(adpcmBody(512)))
	req.Header.Set("X-Request-Id", "trace-me-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("allocate: HTTP %d", resp.StatusCode)
	}

	var idx []obs.TraceSummary
	getJSON(t, ts.URL+"/debug/traces", &idx)
	found := false
	for _, row := range idx {
		if row.ID == "trace-me-1" {
			found = true
			if row.Outcome != "ok" || row.Tier != "exact" {
				t.Fatalf("index row: %+v", row)
			}
		}
	}
	if !found {
		t.Fatalf("cold request not in trace index: %+v", idx)
	}

	var tr obs.RequestTrace
	getJSON(t, ts.URL+"/debug/traces/trace-me-1", &tr)
	if tr.ID != "trace-me-1" || len(tr.Spans) == 0 {
		t.Fatalf("trace body: %+v", tr)
	}
	// The span tree must cover the whole path: request envelope,
	// cache lookup, singleflight, admission, and the pipeline stages
	// down to the solve.
	names := map[string]bool{}
	for _, root := range tr.Spans {
		root.Walk(func(sp *obs.Span) { names[sp.Name] = true })
	}
	for _, want := range []string{
		"request", "result-cache", "singleflight", "serve", "admission",
		"resolve-program", "prepare", "baseline-sim", "allocate", "simulate",
	} {
		if !names[want] {
			t.Fatalf("span %q missing from trace; have %v", want, names)
		}
	}
	if tr.Spans[0].Attrs["request_id"] != "trace-me-1" {
		t.Fatalf("root span attrs: %+v", tr.Spans[0].Attrs)
	}

	// A repeat of the same request is a cache hit, visible as outcome
	// "cached" with a hit=true result-cache span when retained.
	req2, _ := http.NewRequest("POST", ts.URL+"/v1/allocate", strings.NewReader(adpcmBody(512)))
	req2.Header.Set("X-Request-Id", "trace-me-2")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	var tr2 obs.RequestTrace
	getJSON(t, ts.URL+"/debug/traces/trace-me-2", &tr2)
	if tr2.Outcome != "cached" {
		t.Fatalf("repeat request outcome = %q, want cached", tr2.Outcome)
	}

	// Unknown IDs 404.
	r404, err := http.Get(ts.URL + "/debug/traces/no-such-trace")
	if err != nil {
		t.Fatal(err)
	}
	r404.Body.Close()
	if r404.StatusCode != http.StatusNotFound {
		t.Fatalf("missing trace: HTTP %d, want 404", r404.StatusCode)
	}
}

func TestTraceRetainsShedAndDegraded(t *testing.T) {
	defer fault.Set(nil)
	ts := httptestServer(t)
	defer ts.Close()

	// Forced overload: the request is shed with 503 and its trace is in
	// the must-keep class.
	fault.Set(fault.NewPlan().Always(fault.ServerOverload))
	req, _ := http.NewRequest("POST", ts.URL+"/v1/allocate", strings.NewReader(adpcmBody(512)))
	req.Header.Set("X-Request-Id", "shed-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	fault.Set(nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded request: HTTP %d, want 503", resp.StatusCode)
	}
	var tr obs.RequestTrace
	getJSON(t, ts.URL+"/debug/traces/shed-1", &tr)
	if tr.Outcome != "shed" || tr.Status != 503 {
		t.Fatalf("shed trace: %+v", tr)
	}
	var idx []obs.TraceSummary
	getJSON(t, ts.URL+"/debug/traces", &idx)
	for _, row := range idx {
		if row.ID == "shed-1" && row.Kept != "must-keep" {
			t.Fatalf("shed trace in class %q, want must-keep", row.Kept)
		}
	}
}

func TestTraceSamplingDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.TraceSample = -1 // explicit off
	s := New(cfg)
	ts := httptestServerFor(t, s)
	defer ts.Close()

	for i := 0; i < 4; i++ {
		body := fmt.Sprintf(`{"workload":"adpcm","hierarchy":{"cache_bytes":1024,"spm_bytes":%d}}`, 256+64*i)
		resp, err := http.Post(ts.URL+"/v1/allocate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("allocate: HTTP %d", resp.StatusCode)
		}
		// Request IDs are still assigned with tracing off.
		if resp.Header.Get("X-Request-Id") == "" {
			t.Fatal("no request ID with tracing disabled")
		}
	}
	if n := s.traces.Len(); n != 0 {
		t.Fatalf("tracing disabled but %d traces retained", n)
	}
}

func TestTraceEveryFrom(t *testing.T) {
	cases := []struct {
		rate float64
		want int64
	}{
		{-1, 0}, {0, 1}, {1, 1}, {2, 1}, {0.5, 2}, {0.1, 10}, {0.001, 1000},
	}
	for _, tc := range cases {
		if got := traceEveryFrom(tc.rate); got != tc.want {
			t.Fatalf("traceEveryFrom(%g) = %d, want %d", tc.rate, got, tc.want)
		}
	}
}
