package parallel

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
)

func TestWorkersWarnsOnInvalidEnv(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	obs.SetWarnWriter(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	}))
	defer obs.SetWarnWriter(nil)

	t.Setenv(EnvWorkers, "not-a-number")
	if got := Workers(0); got < 1 {
		t.Fatalf("fallback worker count %d < 1", got)
	}
	Workers(0) // the same bad value warns only once
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, EnvWorkers) || !strings.Contains(out, "not-a-number") {
		t.Fatalf("warning missing or unspecific: %q", out)
	}
	if n := strings.Count(out, "warning"); n != 1 {
		t.Fatalf("warned %d times for one bad value, want 1 (output %q)", n, out)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestCellPanicBecomesCellError(t *testing.T) {
	_, err := MapAll(context.Background(), 4, 2, func(ctx context.Context, i int) (int, error) {
		if i == 2 {
			panic("poisoned cell")
		}
		return i, nil
	})
	var ge *GridError
	if !errors.As(err, &ge) {
		t.Fatalf("panic did not surface as *GridError: %v", err)
	}
	if len(ge.Failed) != 1 || ge.Failed[0].Index != 2 {
		t.Fatalf("failed cells = %+v, want exactly cell 2", ge.Failed)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("cell failure is not a *PanicError: %v", ge.Failed[0].Err)
	}
	if fmt.Sprint(pe.Value) != "poisoned cell" {
		t.Errorf("panic value = %v", pe.Value)
	}
	if !bytes.Contains(pe.Stack, []byte("parallel")) {
		t.Error("PanicError carries no stack trace")
	}
}

func TestMapAllRunsEveryCell(t *testing.T) {
	var ran [8]bool
	_, err := MapAll(context.Background(), 8, 3, func(ctx context.Context, i int) (int, error) {
		ran[i] = true
		if i%3 == 0 {
			return 0, fmt.Errorf("cell %d broke", i)
		}
		return i, nil
	})
	var ge *GridError
	if !errors.As(err, &ge) {
		t.Fatalf("want *GridError, got %v", err)
	}
	if len(ge.Failed) != 3 {
		t.Fatalf("failed=%d, want 3", len(ge.Failed))
	}
	for i, r := range ran {
		if !r {
			t.Errorf("cell %d never ran despite keep-going mode", i)
		}
	}
}

func TestMapAllKeepsPartialResults(t *testing.T) {
	sentinel := errors.New("boom")
	out, err := MapAll(context.Background(), 6, 2, func(ctx context.Context, i int) (int, error) {
		if i == 1 || i == 4 {
			return 0, fmt.Errorf("cell payload: %w", sentinel)
		}
		return i * 10, nil
	})
	var ge *GridError
	if !errors.As(err, &ge) {
		t.Fatalf("want *GridError, got %v", err)
	}
	if ge.N != 6 {
		t.Errorf("grid size %d, want 6", ge.N)
	}
	if !errors.Is(err, sentinel) {
		t.Error("wrapped sentinel lost through GridError")
	}
	if len(out) != 6 {
		t.Fatalf("partial results discarded: %v", out)
	}
	for _, i := range []int{0, 2, 3, 5} {
		if out[i] != i*10 {
			t.Errorf("surviving cell %d = %d, want %d", i, out[i], i*10)
		}
	}
	failed := map[int]bool{}
	for _, ce := range ge.Failed {
		failed[ce.Index] = true
	}
	if !failed[1] || !failed[4] || len(failed) != 2 {
		t.Errorf("failed set = %v, want {1,4}", failed)
	}
}

func TestInjectedCellPanic(t *testing.T) {
	fault.Set(fault.NewPlan().On(fault.CellPanic, 2))
	defer fault.Set(nil)
	// Serial (one worker) so hit order equals cell order.
	_, err := MapAll(context.Background(), 3, 1, func(ctx context.Context, i int) (int, error) { return i, nil })
	var ge *GridError
	if !errors.As(err, &ge) {
		t.Fatalf("injected panic not reported: %v", err)
	}
	if len(ge.Failed) != 1 || ge.Failed[0].Index != 1 {
		t.Fatalf("failed cells = %+v, want exactly cell 1 (2nd hit)", ge.Failed)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("injected failure is not a *PanicError: %v", ge.Failed[0].Err)
	}
}
