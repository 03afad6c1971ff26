package main

import (
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// TestServeLifecycle boots the daemon on an ephemeral port, allocates
// through it, and drains it via /quitquitquit — the same lifecycle the
// CI loadtest job drives from the outside.
func TestServeLifecycle(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + l.Addr().String()
	done := make(chan error, 1)
	go func() {
		done <- serveListener(server.Config{MaxInflight: 4, DrainTimeout: 10 * time.Second}, l)
	}()

	// The listener is already bound, so requests cannot race the boot.
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var hs struct {
		Status      string `json:"status"`
		MaxInflight int    `json:"max_inflight"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hs.Status != "ok" || hs.MaxInflight != 4 {
		t.Fatalf("healthz = %+v, want ok with max_inflight 4", hs)
	}

	resp, err = http.Post(url+"/v1/allocate", "application/json",
		strings.NewReader(`{"workload":"adpcm","hierarchy":{"cache_bytes":1024,"spm_bytes":128}}`))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Allocator    string  `json:"allocator"`
		EnergyMicroJ float64 `json:"energy_uj"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || out.Allocator != "casa" || out.EnergyMicroJ <= 0 {
		t.Fatalf("allocate: HTTP %d %+v", resp.StatusCode, out)
	}

	resp, err = http.Post(url+"/quitquitquit", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited with %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after /quitquitquit")
	}
}

func TestServeBadAddress(t *testing.T) {
	if err := serve(server.Config{}, "256.256.256.256:1"); err == nil {
		t.Fatal("serve on a nonsense address did not fail")
	}
}

func TestTraceSampleConfig(t *testing.T) {
	cases := []struct{ flag, want float64 }{
		{1, 1},     // default: trace everything
		{0, -1},    // flag 0 → explicit off
		{-1, -1},   // below the range: off too
		{0.5, 0.5}, // passthrough
	}
	for _, tc := range cases {
		if got := traceSampleConfig(tc.flag); got != tc.want {
			t.Fatalf("traceSampleConfig(%g) = %g, want %g", tc.flag, got, tc.want)
		}
	}
}
