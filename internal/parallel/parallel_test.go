package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(7); got != 7 {
		t.Errorf("explicit request ignored: %d", got)
	}
	t.Setenv(EnvWorkers, "3")
	if got := Workers(0); got != 3 {
		t.Errorf("env not honored: %d", got)
	}
	if got := Workers(2); got != 2 {
		t.Errorf("explicit request must beat env: %d", got)
	}
	t.Setenv(EnvWorkers, "junk")
	if got := Workers(0); got < 1 {
		t.Errorf("fallback worker count %d < 1", got)
	}
	t.Setenv(EnvWorkers, "-4")
	if got := Workers(0); got < 1 {
		t.Errorf("negative env accepted: %d", got)
	}
}

// TestMapDeterministicOrdering: results land in input order for every
// worker count, including counts far above the grid size.
func TestMapDeterministicOrdering(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 2, 3, 7, n, 4 * n} {
		got, err := Map(context.Background(), n, workers, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestFirstErrorPropagation: a failing cell surfaces its error, identifies
// its index, and cancels the cells behind it. Every cell after the
// failing one holds its worker until the cancellation lands, so no
// worker can drain the grid first however the scheduler runs them;
// cells before it never block, so the failing cell always runs.
func TestFirstErrorPropagation(t *testing.T) {
	sentinel := errors.New("cell exploded")
	var ran atomic.Int64
	_, err := Map(context.Background(), 1000, 2, func(ctx context.Context, i int) (int, error) {
		ran.Add(1)
		switch {
		case i == 3:
			return 0, sentinel
		case i > 3:
			<-ctx.Done()
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("error lost: %v", err)
	}
	var ce *CellError
	if !errors.As(err, &ce) || ce.Index != 3 {
		t.Fatalf("cell index not reported: %v", err)
	}
	if n := ran.Load(); n == 1000 {
		t.Error("failure did not cancel the remaining grid")
	}
}

// TestGridErrorRecordsLosingCells: a failure must surface as a typed
// *GridError that names every failing cell and every cell the
// cancellation skipped — the full grid is accounted for. Cells after
// the failing one block until the cancellation lands (as in
// TestFirstErrorPropagation), so a tail is always left to skip.
func TestGridErrorRecordsLosingCells(t *testing.T) {
	const n = 500
	sentinel := errors.New("boom")
	err := ForEach(context.Background(), n, 2, func(ctx context.Context, i int) error {
		switch {
		case i == 7:
			return fmt.Errorf("cell payload: %w", sentinel)
		case i > 7:
			<-ctx.Done()
		}
		return nil
	})
	var ge *GridError
	if !errors.As(err, &ge) {
		t.Fatalf("want *GridError, got %T: %v", err, err)
	}
	if ge.N != n {
		t.Errorf("grid size %d, want %d", ge.N, n)
	}
	if len(ge.Failed) == 0 || ge.Failed[0].Index != 7 {
		t.Fatalf("failing cell not first: %+v", ge.Failed)
	}
	if !errors.Is(err, sentinel) {
		t.Error("wrapped sentinel lost through GridError")
	}
	// Every cell is either ok, failed or listed as skipped; with 2
	// workers and 500 cells the cancellation must skip a tail.
	if len(ge.Skipped) == 0 {
		t.Error("cancelled cells vanished: no skipped indices recorded")
	}
	for k := 1; k < len(ge.Skipped); k++ {
		if ge.Skipped[k] <= ge.Skipped[k-1] {
			t.Fatalf("skipped indices not ascending: %v", ge.Skipped)
		}
	}
	for _, i := range ge.Skipped {
		if i == 7 {
			t.Error("failed cell double-counted as skipped")
		}
	}
}

// TestErrorAggregationOrdersByIndex: when several cells fail before
// cancellation lands, the joined error lists them in ascending index
// order regardless of completion order.
func TestErrorAggregationOrdersByIndex(t *testing.T) {
	var gate atomic.Int64
	err := ForEach(context.Background(), 2, 2, func(_ context.Context, i int) error {
		// Both cells fail; the higher index finishes first.
		if i == 0 {
			for gate.Load() == 0 {
				time.Sleep(time.Millisecond)
			}
		} else {
			defer gate.Store(1)
		}
		return fmt.Errorf("boom %d", i)
	})
	if err == nil {
		t.Fatal("errors swallowed")
	}
	var ge *GridError
	if !errors.As(err, &ge) {
		t.Fatalf("want *GridError, got %T", err)
	}
	if len(ge.Failed) != 2 || ge.Failed[0].Index != 0 || ge.Failed[1].Index != 1 {
		t.Fatalf("failures not in ascending index order: %+v", ge.Failed)
	}
	var ce *CellError
	if !errors.As(err, &ce) || ce.Index != 0 {
		t.Fatalf("lowest-index error not first: %v", err)
	}
}

// TestCancellationMidGrid: canceling the caller's context stops the pool
// from claiming further cells and returns the context's error.
func TestCancellationMidGrid(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForEach(ctx, 10000, 2, func(ctx context.Context, i int) error {
		if ran.Add(1) == 5 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := ran.Load(); n == 10000 {
		t.Error("cancellation did not stop the grid")
	}
}

// TestForEachEmptyGrid: an empty grid is a no-op, even with a canceled
// context only reporting the context state.
func TestForEachEmptyGrid(t *testing.T) {
	if err := ForEach(context.Background(), 0, 4, func(context.Context, int) error {
		t.Fatal("fn called for empty grid")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPoolBoundsConcurrency: no more than the requested number of workers
// run simultaneously.
func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	err := ForEach(context.Background(), 200, workers, func(_ context.Context, i int) error {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(50 * time.Microsecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent workers, requested %d", p, workers)
	}
}

// TestMapRaceStress hammers a shared-nothing grid with many goroutines;
// meaningful under -race.
func TestMapRaceStress(t *testing.T) {
	for round := 0; round < 8; round++ {
		out, err := Map(context.Background(), 256, 16, func(_ context.Context, i int) (int, error) {
			return i + round, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if out[255] != 255+round {
			t.Fatalf("round %d: bad tail %d", round, out[255])
		}
	}
}
