package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ir"
)

// TestStressShardedCache hammers one shardedCache from many goroutines
// with a key space larger than the capacity, so gets, puts, LRU updates
// and evictions all race. Run under -race (the CI test-race job does);
// the assertions are sanity bounds, the detector is the real check.
func TestStressShardedCache(t *testing.T) {
	c := newShardedCache(64, 4)
	const workers = 8
	const opsPerWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				// 32-hex-char keys like the real request hash, 256 of
				// them — 4× the capacity, forcing constant eviction.
				key := fmt.Sprintf("%032x", (w*opsPerWorker+i)%256)
				if r, ok := c.get(key); ok {
					if r.Key != key {
						t.Errorf("cache returned %q for key %q", r.Key, key)
						return
					}
				} else {
					c.put(key, &Response{Key: key})
				}
			}
		}(w)
	}
	wg.Wait()
	if n := c.len(); n > 64 {
		t.Fatalf("cache holds %d entries, capacity 64", n)
	}
}

// TestStressInternTable interns a handful of distinct program texts far
// more often than the table holds, racing parse, hit and evict paths.
func TestStressInternTable(t *testing.T) {
	tab := newInternTable(2, func(*ir.Program) {})
	srcs := make([]string, 5)
	for i := range srcs {
		// Same shape, different loop counts — distinct hashes.
		srcs[i] = strings.Replace(tinyProgram, "64", fmt.Sprint(40+8*i), 1)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				src := srcs[(w+i)%len(srcs)]
				if _, _, err := tab.program(src); err != nil {
					t.Errorf("parse: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := tab.len(); n > 2 {
		t.Fatalf("intern table holds %d programs, capacity 2", n)
	}
}

// TestStressServer drives the whole serving path — admission controller,
// singleflight, result cache, pipeline memo layers, and the intern
// table's evictions releasing warm donors while solves record them —
// with concurrent mixed traffic. Every response must be a 200 or a
// well-formed 503; the race detector watches the rest.
func TestStressServer(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	cfg := testConfig()
	cfg.MaxInflight = 4 // small cap so rejection and greedy paths race too
	cfg.CacheEntries = 16
	ts := httptest.NewServer(New(cfg).Handler())
	defer ts.Close()

	// One more custom program than the intern table holds.
	custom := make([]string, cfg.MaxPrograms+1)
	for i := range custom {
		src := strings.Replace(tinyProgram, "64", fmt.Sprint(40+8*i), 1)
		custom[i] = fmt.Sprintf(`{"program":%q,"hierarchy":{"cache_bytes":512,"spm_bytes":64}}`, src)
	}

	const workers = 16
	const perWorker = 25
	var ok, shed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// 8 distinct adpcm keys: plenty of duplicates in flight at
				// once. Every third request is a custom program instead.
				body := adpcmBody(64 + 16*((w+i)%8))
				if i%3 == 2 {
					body = custom[(w+i)%len(custom)]
				}
				resp, err := http.Post(ts.URL+"/v1/allocate", "application/json",
					strings.NewReader(body))
				if err != nil {
					t.Errorf("POST: %v", err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusServiceUnavailable:
					shed.Add(1)
				default:
					t.Errorf("unexpected HTTP %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	if ok.Load() == 0 {
		t.Fatal("no request succeeded under load")
	}
	t.Logf("stress: %d ok, %d shed (503)", ok.Load(), shed.Load())
}
