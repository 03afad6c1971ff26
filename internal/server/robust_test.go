package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
)

// postWithDeadline is postJSON with an X-Deadline-Ms header attached.
func postWithDeadline(t *testing.T, url, body, deadlineMS string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/allocate", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderDeadline, deadlineMS)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

// TestDeadlineClampsBudget pins the propagation contract: without the
// header a solve gets its tier's full budget; with X-Deadline-Ms the
// budget handed to the solver is clamped to the remaining client time
// minus the margin — never the tier's static budget.
func TestDeadlineClampsBudget(t *testing.T) {
	cfg := testConfig() // ExactBudget 5s
	s := New(cfg)
	var mu sync.Mutex
	var budgets []time.Duration
	s.testHookBudget = func(tier string, budget time.Duration) {
		mu.Lock()
		budgets = append(budgets, budget)
		mu.Unlock()
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	allocate(t, ts.URL, adpcmBody(224))
	resp, data := postWithDeadline(t, ts.URL, adpcmBody(240), "2000")
	if resp.StatusCode != 200 {
		t.Fatalf("deadline-bearing request: HTTP %d: %s", resp.StatusCode, data)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(budgets) != 2 {
		t.Fatalf("%d solves, want 2 (budgets %v)", len(budgets), budgets)
	}
	if budgets[0] != cfg.ExactBudget {
		t.Errorf("deadline-free solve budget = %v, want the full tier budget %v", budgets[0], cfg.ExactBudget)
	}
	if budgets[1] <= 0 || budgets[1] >= cfg.ExactBudget {
		t.Errorf("deadline-clamped budget = %v, want in (0, %v)", budgets[1], cfg.ExactBudget)
	}
	if budgets[1] > 2*time.Second {
		t.Errorf("clamped budget %v exceeds the 2000ms client deadline", budgets[1])
	}
}

// TestDeadlineHeaderValidation: a malformed or non-positive deadline is
// a 400, not a silently unbounded wait.
func TestDeadlineHeaderValidation(t *testing.T) {
	ts := httptest.NewServer(New(testConfig()).Handler())
	defer ts.Close()
	for _, raw := range []string{"banana", "-5", "0"} {
		resp, data := postWithDeadline(t, ts.URL, adpcmBody(128), raw)
		if resp.StatusCode != 400 {
			t.Errorf("X-Deadline-Ms %q: HTTP %d, want 400: %s", raw, resp.StatusCode, data)
		}
	}
}

// TestDeadlineExpiredIs504 drives the short-deadline path end to end: a
// deadline below the margin must be answered with an immediate clean
// 504 — no admission slot, no solve — counted by the deadline counter
// and retained by the trace store as a must-keep "deadline" outcome.
func TestDeadlineExpiredIs504(t *testing.T) {
	ts := httptest.NewServer(New(testConfig()).Handler())
	defer ts.Close()

	exceeded0 := mDeadlineExceeded.Value()
	solves0 := mSolves.Value()
	resp, data := postWithDeadline(t, ts.URL, adpcmBody(176), "1")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("HTTP %d, want 504: %s", resp.StatusCode, data)
	}
	var e ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil || !strings.Contains(e.Error, "deadline") {
		t.Fatalf("504 body not a structured deadline error: %s", data)
	}
	if got := mDeadlineExceeded.Value() - exceeded0; got != 1 {
		t.Errorf("deadline counter moved by %d, want 1", got)
	}
	if got := mSolves.Value() - solves0; got != 0 {
		t.Errorf("expired request consumed %d solves, want 0", got)
	}

	// The expiry is a must-keep trace outcome.
	idx, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Body.Close()
	var rows []map[string]any
	if err := json.NewDecoder(idx.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rows {
		if r["outcome"] == "deadline" {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no retained trace with outcome %q: %v", "deadline", rows)
	}
}

// TestOversizedBodyIs413: a body past the MaxBytesReader cap gets a
// structured 413 and moves the dedicated counter — it is never buffered
// or answered 400 as if the JSON were merely malformed.
func TestOversizedBodyIs413(t *testing.T) {
	ts := httptest.NewServer(New(testConfig()).Handler())
	defer ts.Close()

	big0 := mBodyTooLarge.Value()
	// maxProgramBytes 256 KiB + 64 KiB envelope headroom; 400 KiB
	// of program is past the cap.
	huge := strings.Repeat("; padding line\\n", (400<<10)/16)
	body := `{"program":"` + huge + `","hierarchy":{"cache_bytes":1024,"spm_bytes":128}}`
	resp, data := postJSON(t, ts.URL, body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("HTTP %d, want 413: %.200s", resp.StatusCode, data)
	}
	var e ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil || !strings.Contains(e.Error, "limit") {
		t.Fatalf("413 body not structured: %s", data)
	}
	if got := mBodyTooLarge.Value() - big0; got != 1 {
		t.Errorf("body-too-large counter moved by %d, want 1", got)
	}
}

// TestSlowLorisBodyTimeout: a client that sends headers and then
// dribbles (here: abandons) its body must get a 408 when the
// per-request read deadline expires — the handler goroutine is released
// in bodyReadTimeout, not held for the listener-wide readTimeout.
func TestSlowLorisBodyTimeout(t *testing.T) {
	s := New(testConfig())
	s.bodyReadTimeout = 150 * time.Millisecond
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	slow0 := mSlowClients.Value()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	head := fmt.Sprintf("POST /v1/allocate HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: 1000\r\n\r\n",
		ts.Listener.Addr())
	if _, err := conn.Write([]byte(head + `{"workload":`)); err != nil {
		t.Fatal(err)
	}
	// Send nothing more; the server's body deadline must fire.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	status, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("no response to the stalled upload: %v", err)
	}
	if !strings.Contains(status, "408") {
		t.Fatalf("status line %q, want 408", strings.TrimSpace(status))
	}
	if got := mSlowClients.Value() - slow0; got != 1 {
		t.Errorf("slow-client counter moved by %d, want 1", got)
	}
}

// TestEndpointMethodGuards: every read-only endpoint answers non-GET
// with a structured 405 + Allow header, and /debug/traces/{id} answers
// an unknown ID with a structured 404.
func TestEndpointMethodGuards(t *testing.T) {
	ts := httptest.NewServer(New(testConfig()).Handler())
	defer ts.Close()

	for _, path := range []string{"/healthz", "/metrics", "/metrics.json", "/debug/traces", "/debug/traces/x", "/debug/vars"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorResponse
		derr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: HTTP %d, want 405", path, resp.StatusCode)
		}
		if resp.Header.Get("Allow") != http.MethodGet {
			t.Errorf("POST %s: Allow = %q, want GET", path, resp.Header.Get("Allow"))
		}
		if derr != nil || e.Error == "" {
			t.Errorf("POST %s: body not a structured error", path)
		}
	}

	resp, err := http.Get(ts.URL + "/debug/traces/no-such-trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace id: HTTP %d, want 404", resp.StatusCode)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "no-such-trace") {
		t.Fatalf("404 body not a structured error naming the id: %+v", e)
	}
}

// TestDrainWaitsForStalledLeader is the graceful-drain chaos scenario:
// a coalesced leader solve is held in flight while server-stall-read
// faults slow the read path, a drain starts, and every follower must
// still receive a complete response — never a hang, never a torn body.
func TestDrainWaitsForStalledLeader(t *testing.T) {
	fault.Set(fault.NewPlan().Always(fault.ServerStallRead))
	defer fault.Set(nil)

	s := New(testConfig())
	s.stallDelay = 50 * time.Millisecond
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var hookOnce sync.Once
	s.testHookSolving = func(key, tier string) {
		hookOnce.Do(func() {
			entered <- struct{}{}
			<-release
		})
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const followers = 3
	results := make(chan *Response, followers+1)
	errs := make(chan error, followers+1)
	fire := func() {
		resp, data := postJSON(t, ts.URL, adpcmBody(208))
		if resp.StatusCode != 200 {
			errs <- fmt.Errorf("HTTP %d: %s", resp.StatusCode, data)
			return
		}
		var out Response
		if err := json.Unmarshal(data, &out); err != nil {
			errs <- fmt.Errorf("torn response: %v: %s", err, data)
			return
		}
		results <- &out
	}
	go fire()
	<-entered // leader holds its solve
	for i := 0; i < followers; i++ {
		go fire()
	}
	// Let the followers clear the stalled read and park in singleflight.
	time.Sleep(300 * time.Millisecond)

	// Start the drain while the coalesced solve is still in flight.
	qresp, err := http.Post(ts.URL+"/quitquitquit", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// New work is refused cleanly mid-drain.
	resp, _ := postJSON(t, ts.URL, adpcmBody(209))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mid-drain request: HTTP %d, want 503", resp.StatusCode)
	}

	close(release)
	for i := 0; i < followers+1; i++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case r := <-results:
			if r.Key == "" || r.Allocator == "" {
				t.Fatalf("incomplete response delivered during drain: %+v", r)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("request hung across the drain")
		}
	}
}

// TestWatchdogShedsInPriorityOrder drives maybeShed synchronously with
// an unreachably small soft limit: every shed level must fire, in
// priority order, emptying the interned programs and warm donors and
// halving the result cache.
func TestWatchdogShedsInPriorityOrder(t *testing.T) {
	cfg := testConfig()
	cfg.MemSoftLimitBytes = 1 // any live heap is over
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	allocate(t, ts.URL, adpcmBody(128))
	allocate(t, ts.URL, adpcmBody(192))
	custom := fmt.Sprintf(`{"program":%q,"hierarchy":{"cache_bytes":1024,"spm_bytes":128}}`, tinyProgram)
	allocate(t, ts.URL, custom)
	if s.cache.len() == 0 || s.programs.len() == 0 || s.warm.Len() == 0 {
		t.Fatalf("setup: cache %d, programs %d, warm %d — need all nonzero",
			s.cache.len(), s.programs.len(), s.warm.Len())
	}
	cache0 := s.cache.len()

	shed0 := mMemShed.Value()
	names := s.maybeShed()
	want := []string{"result-cache", "interned-programs", "warm-donors"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("shed levels %v, want %v", names, want)
	}
	if got := mMemShed.Value() - shed0; got != 3 {
		t.Errorf("shed counter moved by %d, want 3", got)
	}
	// shed(0.5) rounds per shard, so with a handful of entries the drop
	// is "about half": strictly fewer than before, not necessarily
	// exactly cache0/2.
	if got := s.cache.len(); got >= cache0 {
		t.Errorf("cache len after shed = %d, want fewer than %d", got, cache0)
	}
	if s.programs.len() != 0 {
		t.Errorf("interned programs survived the shed: %d", s.programs.len())
	}
	if s.warm.Len() != 0 {
		t.Errorf("warm donors survived the shed: %d", s.warm.Len())
	}

	// The server keeps serving — shed state is an optimization, not a
	// correctness dependency.
	allocate(t, ts.URL, adpcmBody(128))

	// Unarmed watchdog never sheds.
	cfg2 := testConfig()
	s2 := New(cfg2)
	if names := s2.maybeShed(); names != nil {
		t.Errorf("disarmed watchdog shed %v", names)
	}
}

// TestSnapshotRoundTrip is the crash-recovery golden test: a fresh
// server restored from another server's snapshot must answer the same
// request identically (modulo per-delivery fields) straight from the
// restored cache — zero new solves — and warm-start the first
// neighboring solve from a restored donor.
func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")

	a := New(testConfig())
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()
	first := allocate(t, tsA.URL, adpcmBody(128))
	saves0 := mSnapSaves.Value()
	if err := a.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if mSnapSaves.Value() != saves0+1 {
		t.Error("snapshot save not counted")
	}

	b := New(testConfig())
	n, err := b.RestoreSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 {
		t.Fatalf("restored %d entries, want at least a cache entry and a warm donor", n)
	}
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()

	solves0 := mSolves.Value()
	got := allocate(t, tsB.URL, adpcmBody(128))
	if !got.Cached {
		t.Fatal("restored server recomputed instead of serving from the restored cache")
	}
	if d := mSolves.Value() - solves0; d != 0 {
		t.Fatalf("restored server ran %d solves for a snapshotted key, want 0", d)
	}
	gc, fc := *got, *first
	gc.Cached, fc.Cached = false, false
	gc.Coalesced, fc.Coalesced = false, false
	gc.ElapsedMS, fc.ElapsedMS = 0, 0
	if !reflect.DeepEqual(gc, fc) {
		t.Fatalf("restored answer differs from the original:\nrestored %+v\noriginal %+v", gc, fc)
	}

	// A single-parameter neighbor must warm-start from the restored
	// donor on its very first solve.
	warm0 := mWarmSolves.Value()
	allocate(t, tsB.URL, adpcmBody(192))
	if mWarmSolves.Value() != warm0+1 {
		t.Fatal("first neighbor solve after restore was not warm-started")
	}
}

// TestSnapshotRestoreGuards pins the defensive half of the format: a
// missing file is a cold start, torn or wrong-version files are errors,
// and degraded / keyless / unknown-workload / stale entries are dropped
// rather than trusted.
func TestSnapshotRestoreGuards(t *testing.T) {
	dir := t.TempDir()
	s := New(testConfig())

	if n, err := s.RestoreSnapshot(filepath.Join(dir, "missing.json")); n != 0 || err != nil {
		t.Fatalf("missing snapshot: (%d, %v), want (0, nil)", n, err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RestoreSnapshot(bad); err == nil {
		t.Fatal("wrong-version snapshot restored without error")
	}
	torn := filepath.Join(dir, "torn.json")
	if err := os.WriteFile(torn, []byte(`{"version":1,"cache":[`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RestoreSnapshot(torn); err == nil {
		t.Fatal("torn snapshot restored without error")
	}

	snap := snapshotFile{
		Version: snapshotVersion,
		Cache: []snapCacheEntry{
			{Key: "k1", Response: &Response{Degraded: true}}, // degraded: never resurrected
			{Key: "", Response: &Response{}},                 // keyless
		},
		Warm: []experiments.WarmDonor{
			{Workload: "no-such-workload", CacheBytes: 1024, SPMBytes: 128, InSPM: []bool{true}},
			{Workload: "adpcm", CacheBytes: 1024, SPMBytes: 128, InSPM: []bool{true}}, // wrong selection length
		},
	}
	data, err := json.Marshal(&snap)
	if err != nil {
		t.Fatal(err)
	}
	junk := filepath.Join(dir, "junk.json")
	if err := os.WriteFile(junk, data, 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := s.RestoreSnapshot(junk)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("restored %d untrustworthy entries, want 0", n)
	}
	if s.cache.len() != 0 || s.warm.Len() != 0 {
		t.Fatalf("junk entries landed: cache %d, warm %d", s.cache.len(), s.warm.Len())
	}
}
