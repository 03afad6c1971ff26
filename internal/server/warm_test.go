package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestWarmSolvesAcrossRequests drives the cross-request warm path: the
// second request differs from the first only in scratchpad size, so it
// must be served with a transferred cutoff (counted by
// casa_server_warm_solves_total) and still return the same answer a
// cold server gives.
func TestWarmSolvesAcrossRequests(t *testing.T) {
	ts := httptest.NewServer(New(testConfig()).Handler())
	defer ts.Close()

	warmed := obs.GetCounter("casa_server_warm_solves_total")
	base := warmed.Value()

	first := allocate(t, ts.URL, adpcmBody(128))
	if got := warmed.Value(); got != base {
		t.Fatalf("first request (no donor) warmed: counter %d, want %d", got, base)
	}
	second := allocate(t, ts.URL, adpcmBody(192))
	if got := warmed.Value(); got != base+1 {
		t.Fatalf("second request (single-parameter neighbor) counter = %d, want %d", got, base+1)
	}

	// Same answers as a cold server.
	cold := httptest.NewServer(New(testConfig()).Handler())
	defer cold.Close()
	coldFirst := allocate(t, cold.URL, adpcmBody(128))
	coldSecond := allocate(t, cold.URL, adpcmBody(192))
	for _, pair := range []struct {
		name       string
		warm, cold *Response
	}{{"spm=128", first, coldFirst}, {"spm=192", second, coldSecond}} {
		if pair.warm.EnergyMicroJ != pair.cold.EnergyMicroJ ||
			pair.warm.PlacedTraces != pair.cold.PlacedTraces ||
			pair.warm.UsedBytes != pair.cold.UsedBytes {
			t.Errorf("%s: warm answer diverged from cold: warm %+v cold %+v",
				pair.name, pair.warm, pair.cold)
		}
	}
}

// TestWarmCacheGeometryNeighborAcrossRequests drives the warm path
// where the neighbor differs in cache geometry, not scratchpad size
// (TestWarmSolvesAcrossRequests covers that one): the donor's selection
// still transfers to a cutoff, so the second request must be counted as
// warm — the test is not passing vacuously on a cold solve — and its
// response must be identical to a cold server's golden answer.
func TestWarmCacheGeometryNeighborAcrossRequests(t *testing.T) {
	ts := httptest.NewServer(New(testConfig()).Handler())
	defer ts.Close()

	warmed := obs.GetCounter("casa_server_warm_solves_total")
	warmBase := warmed.Value()

	body := func(cacheBytes int) string {
		return fmt.Sprintf(`{"workload":"adpcm","hierarchy":{"cache_bytes":%d,"spm_bytes":128}}`, cacheBytes)
	}
	allocate(t, ts.URL, body(1024))
	warm := allocate(t, ts.URL, body(512))
	if got := warmed.Value(); got != warmBase+1 {
		t.Fatalf("cache-geometry neighbor not served warm: counter = %d, want %d", got, warmBase+1)
	}

	cold := httptest.NewServer(New(testConfig()).Handler())
	defer cold.Close()
	golden := allocate(t, cold.URL, body(512))
	if warm.EnergyMicroJ != golden.EnergyMicroJ ||
		warm.BaselineMicroJ != golden.BaselineMicroJ ||
		warm.EnergySavingPct != golden.EnergySavingPct ||
		warm.PlacedTraces != golden.PlacedTraces ||
		warm.UsedBytes != golden.UsedBytes ||
		warm.Degraded != golden.Degraded {
		t.Errorf("warm answer diverged from cold golden:\nwarm %+v\ncold %+v", warm, golden)
	}
}

// TestWarmDonorsReleasedWithProgram: a custom program's warm donors go
// when the intern table lets the program go, by eviction or by the
// watchdog's shedAll. A re-parsed program is a new instance its old
// donors can never serve, so a donor that outlived its intern entry
// would only pin the old program and its trace set.
func TestWarmDonorsReleasedWithProgram(t *testing.T) {
	cfg := testConfig()
	cfg.MaxPrograms = 2
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	srcs := make([]string, 4)
	for i := range srcs {
		srcs[i] = strings.Replace(tinyProgram, "64", fmt.Sprint(40+8*i), 1)
	}
	// Round-robin over four programs with room for two: every request
	// evicts one program and re-parses another. The scratchpad size moves
	// each round so no request is a result-cache hit.
	for round := 0; round < 10; round++ {
		for _, src := range srcs {
			body, _ := json.Marshal(map[string]any{
				"program":   src,
				"hierarchy": map[string]int{"cache_bytes": 512, "spm_bytes": 64 + 16*round},
			})
			allocate(t, ts.URL, string(body))
			if d, p := s.warm.Len(), s.programs.len(); d > p {
				t.Fatalf("round %d: %d warm donors outlive their programs (%d interned)", round, d, p)
			}
		}
	}
	if d := s.warm.Len(); d != 2 {
		t.Fatalf("%d warm donors after the cycle, want one per interned program (2)", d)
	}
	if n := s.programs.shedAll(); n != 2 {
		t.Fatalf("shedAll released %d programs, want 2", n)
	}
	if d := s.warm.Len(); d != 0 {
		t.Fatalf("%d warm donors outlive shedAll", d)
	}
}
