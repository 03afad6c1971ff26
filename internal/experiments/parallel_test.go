package experiments

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// renderFig4 runs Figure 4 on a fresh suite at the given worker count and
// returns the rendered table.
func renderFig4(t *testing.T, workers int) string {
	t.Helper()
	cfg := DefaultFig4()
	rows, err := Fig4(context.Background(), NewSuite().SetWorkers(workers), cfg)
	if err != nil {
		t.Fatalf("Fig4 (%d workers): %v", workers, err)
	}
	var sb strings.Builder
	WriteFig4(&sb, cfg, rows)
	return sb.String()
}

func renderTable1(t *testing.T, workers int) string {
	t.Helper()
	rows, avgs, err := Table1(context.Background(), NewSuite().SetWorkers(workers), DefaultTable1())
	if err != nil {
		t.Fatalf("Table1 (%d workers): %v", workers, err)
	}
	var sb strings.Builder
	WriteTable1(&sb, rows, avgs)
	return sb.String()
}

// TestParallelMatchesSerialGolden is the acceptance check for the worker
// pool: the rendered Figure 4 and Table 1 must be byte-identical no
// matter how many workers evaluate the grid. Under the race detector the
// sweep shrinks to one parallel width and Figure 4 only — the full sweep
// runs uninstrumented (simulation under -race is ~15x slower and the
// grids are minutes of work).
func TestParallelMatchesSerialGolden(t *testing.T) {
	counts := []int{2, 4, 7}
	if raceEnabled {
		counts = []int{4}
	}
	serialFig4 := renderFig4(t, 1)
	var serialTable1 string
	if !raceEnabled {
		serialTable1 = renderTable1(t, 1)
	}
	for _, workers := range counts {
		if got := renderFig4(t, workers); got != serialFig4 {
			t.Errorf("Fig4 output at %d workers differs from serial:\n%s\nvs\n%s",
				workers, got, serialFig4)
		}
		if raceEnabled {
			continue
		}
		if got := renderTable1(t, workers); got != serialTable1 {
			t.Errorf("Table1 output at %d workers differs from serial:\n%s\nvs\n%s",
				workers, got, serialTable1)
		}
	}
}

// TestSuiteConcurrentStudies drives two studies over one shared Suite
// from concurrent goroutines; under -race this stresses the pipeline
// singleflight and the outcome memos. It uses the small adpcm benchmark —
// the contention pattern, not the workload size, is what's under test.
func TestSuiteConcurrentStudies(t *testing.T) {
	fig4 := Fig4Config{Workload: "adpcm", Cache: DM(128), SPMSizes: []int{64, 128, 256}}
	fig5 := Fig5Config{Workload: "adpcm", Cache: DM(128), Sizes: []int{64, 128, 256}}
	s := NewSuite().SetWorkers(4)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Fig4(context.Background(), s, fig4); err != nil {
				t.Errorf("Fig4: %v", err)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Fig5(context.Background(), s, fig5); err != nil {
				t.Errorf("Fig5: %v", err)
			}
		}()
	}
	wg.Wait()
}

// TestParallelSpeedup checks the ≥2× wall-clock win at 4 workers on the
// mpeg grid. It needs real parallel hardware, so it skips on small hosts
// (CI containers with 1–2 CPUs cannot exhibit the speedup). Both timed
// runs follow a warm-up run, so they see the same process-wide memos and
// the pool itself is what differs.
func TestParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need ≥4 CPUs for a meaningful speedup measurement, have %d", runtime.NumCPU())
	}

	cfg := DefaultFig4()
	run := func(workers int) time.Duration {
		start := time.Now()
		if _, err := Fig4(context.Background(), NewSuite().SetWorkers(workers), cfg); err != nil {
			t.Fatalf("Fig4 (%d workers): %v", workers, err)
		}
		return time.Since(start)
	}
	run(1) // warm the process-wide sim memos so both timed runs see them
	serial := run(1)
	parallel := run(4)
	speedup := float64(serial) / float64(parallel)
	t.Logf("serial %v, 4 workers %v → %.2fx", serial, parallel, speedup)
	if speedup < 2 {
		t.Errorf("speedup %.2fx at 4 workers, want ≥2x", speedup)
	}
}
