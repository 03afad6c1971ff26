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

// TestMapDeterministicOrdering: MapAll's results land in input order for
// every worker count, including counts far above the grid size.
func TestMapDeterministicOrdering(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 2, 3, 7, n, 4 * n} {
		got, err := MapAll(context.Background(), n, workers, func(_ context.Context, i int) (int, error) {
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

// TestErrorAggregationOrdersByIndex: when several cells fail, the joined
// error lists them in ascending index order regardless of completion
// order.
func TestErrorAggregationOrdersByIndex(t *testing.T) {
	var gate atomic.Int64
	_, err := MapAll(context.Background(), 2, 2, func(_ context.Context, i int) (int, error) {
		// Both cells fail; the higher index finishes first.
		if i == 0 {
			for gate.Load() == 0 {
				time.Sleep(time.Millisecond)
			}
		} else {
			defer gate.Store(1)
		}
		return 0, fmt.Errorf("boom %d", i)
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
	_, err := MapAll(ctx, 10000, 2, func(ctx context.Context, i int) (int, error) {
		if ran.Add(1) == 5 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := ran.Load(); n == 10000 {
		t.Error("cancellation did not stop the grid")
	}
}

// TestMapAllEmptyGrid: an empty grid is a no-op, even with a canceled
// context only reporting the context state.
func TestMapAllEmptyGrid(t *testing.T) {
	out, err := MapAll(context.Background(), 0, 4, func(context.Context, int) (int, error) {
		t.Fatal("fn called for empty grid")
		return 0, nil
	})
	if err != nil || len(out) != 0 {
		t.Fatalf("empty grid: out=%v err=%v", out, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MapAll(ctx, 0, 4, func(context.Context, int) (int, error) {
		t.Fatal("fn called for empty grid")
		return 0, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled empty grid: want context.Canceled, got %v", err)
	}
}

// TestPoolBoundsConcurrency: no more than the requested number of workers
// run simultaneously.
func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	_, err := MapAll(context.Background(), 200, workers, func(_ context.Context, i int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(50 * time.Microsecond)
		cur.Add(-1)
		return i, nil
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
		out, err := MapAll(context.Background(), 256, 16, func(_ context.Context, i int) (int, error) {
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
