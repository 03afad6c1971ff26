// Package parallel provides the bounded worker pool underneath the
// experiment engine. Every experiment cell of the evaluation — one
// (workload × cache configuration × scratchpad size) point — is
// deterministic and independent of every other cell, so regenerating a
// figure is an embarrassingly parallel grid. MapAll fans a grid of cells
// out across a fixed number of workers while keeping the properties the
// experiments rely on:
//
//   - Deterministic ordering: result i of cell i lands in slot i, so
//     output rows are byte-identical to a serial run regardless of the
//     worker count or scheduling.
//   - Keep-going failures: a failing cell does not cancel its siblings;
//     every cell runs, the surviving results come back, and the
//     returned *GridError lists every failing cell in ascending index
//     order — losing cells are recorded, never silently dropped.
//   - Context cancellation: canceling the caller's context stops workers
//     from claiming new cells and surfaces the context error.
//   - Panic containment: a panic inside a cell is recovered into a
//     *PanicError (with the stack) and reported as that cell's failure,
//     so one poisoned cell cannot take down the process.
//
// The worker count defaults to runtime.NumCPU, can be overridden
// per-call, and can be pinned globally through the CASA_WORKERS
// environment variable (useful for CI and for serial golden runs).
//
// The pool reports into the default metrics registry: grid and cell
// counters (casa_pool_grids_total, casa_pool_cells_{ok,failed,
// skipped}_total), the busy-time counter casa_pool_busy_ns_total for
// utilization, and the casa_pool_width / casa_pool_queue_depth gauges.
package parallel

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// EnvWorkers is the environment variable that pins the default worker
// count (a positive integer). It is consulted only when the caller does
// not request an explicit count.
const EnvWorkers = "CASA_WORKERS"

// warnedWorkers remembers the CASA_WORKERS values already warned about,
// so a grid of thousands of cells complains once, not per resolution.
var warnedWorkers sync.Map

// Workers resolves a requested worker count: an explicit positive request
// wins, then a positive CASA_WORKERS value, then runtime.NumCPU. An
// unusable CASA_WORKERS value (not a positive integer) is reported once
// through obs.Warnf and explicitly falls back to runtime.NumCPU.
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	if v := os.Getenv(EnvWorkers); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
		if _, dup := warnedWorkers.LoadOrStore(v, true); !dup {
			obs.Warnf("ignoring %s=%q (want a positive integer); using %d workers",
				EnvWorkers, v, runtime.NumCPU())
		}
	}
	return runtime.NumCPU()
}

// Pool metrics, resolved once.
var (
	mGrids        = obs.GetCounter("casa_pool_grids_total")
	mCellsOK      = obs.GetCounter("casa_pool_cells_ok_total")
	mCellsFailed  = obs.GetCounter("casa_pool_cells_failed_total")
	mCellsSkipped = obs.GetCounter("casa_pool_cells_skipped_total")
	mBusyNS       = obs.GetCounter("casa_pool_busy_ns_total")
	mWidth        = obs.GetGauge("casa_pool_width")
	mQueueDepth   = obs.GetGauge("casa_pool_queue_depth")
	mCellNS       = obs.GetHistogram("casa_pool_cell_ns")
	mCellPanics   = obs.GetCounter("casa_cell_panics_total")
)

// PanicError is a cell panic converted into an error by the pool's
// per-cell recovery, with the panicking goroutine's stack captured at
// recovery time. It surfaces inside a *CellError, so a poisoned cell is
// reported like any other cell failure instead of killing the process.
type PanicError struct {
	// Value is the value passed to panic().
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("cell panicked: %v", e.Value) }

// runCell executes one cell with panic containment: a panic inside fn
// (or injected through the cell-panic fault point) is recovered into a
// *PanicError and counted, never propagated.
func runCell[T any](ctx context.Context, i int, fn func(ctx context.Context, i int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			mCellPanics.Inc()
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if fault.Hit(fault.CellPanic) {
		panic(fmt.Sprintf("injected %s fault at cell %d", fault.CellPanic, i))
	}
	return fn(ctx, i)
}

// CellError is one cell's failure, tagged with its grid index.
type CellError struct {
	// Index is the grid index the error occurred at.
	Index int
	// Err is the cell's error.
	Err error
}

func (e *CellError) Error() string { return fmt.Sprintf("cell %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying error to errors.Is / errors.As.
func (e *CellError) Unwrap() error { return e.Err }

// GridError is the typed aggregate error of a grid run: every failing
// cell in ascending index order. MapAll returns it (as error) whenever
// at least one cell fails.
type GridError struct {
	// N is the grid size.
	N int
	// Failed lists failing cells in ascending index order.
	Failed []*CellError
}

func (e *GridError) Error() string {
	msg := fmt.Sprintf("%d of %d cells failed", len(e.Failed), e.N)
	if len(e.Failed) > 0 {
		msg += fmt.Sprintf(" (first: %v)", e.Failed[0])
	}
	return msg
}

// Unwrap exposes every cell failure, so errors.Is finds the underlying
// sentinel and errors.As extracts a *CellError.
func (e *GridError) Unwrap() []error {
	errs := make([]error, len(e.Failed))
	for i, ce := range e.Failed {
		errs[i] = ce
	}
	return errs
}

// Per-cell outcome slots; each is written by exactly one worker (the
// cell's claimant) before wg.Wait and read only afterwards.
type cellState struct {
	status cellStatus
	err    error
}

type cellStatus uint8

const (
	cellSkipped cellStatus = iota // never ran (default for unclaimed cells)
	cellOK
	cellFailed
)

// MapAll runs fn over every index of an n-cell grid on a pool of at
// most `workers` goroutines (resolved through Workers) and returns the
// results in input order: out[i] is fn's result for cell i, independent
// of worker count and scheduling. Every cell runs to completion unless
// the caller's context is canceled, in which case unclaimed cells are
// skipped and the context's error is returned. Otherwise, when any cell
// fails, the partial results come back alongside a *GridError carrying
// every failure in ascending index order (slots of failed cells hold
// T's zero value).
func MapAll[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n <= 0 {
		return out, ctx.Err()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	mGrids.Inc()
	mWidth.Set(int64(w))
	mQueueDepth.Add(int64(n))

	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		cells = make([]cellState, n)
	)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				mQueueDepth.Add(-1)
				if ctx.Err() != nil {
					// Drain the remaining cells so every one has a
					// recorded outcome instead of vanishing.
					continue
				}
				start := time.Now()
				v, err := runCell(ctx, i, fn)
				busy := time.Since(start).Nanoseconds()
				mBusyNS.Add(busy)
				mCellNS.Observe(busy)
				if err != nil {
					cells[i] = cellState{status: cellFailed, err: err}
					continue
				}
				out[i] = v
				cells[i] = cellState{status: cellOK}
			}
		}()
	}
	wg.Wait()

	var ge *GridError
	for i := range cells {
		switch cells[i].status {
		case cellOK:
			mCellsOK.Inc()
		case cellFailed:
			mCellsFailed.Inc()
			if ge == nil {
				ge = &GridError{N: n}
			}
			ge.Failed = append(ge.Failed, &CellError{Index: i, Err: cells[i].err})
		case cellSkipped:
			mCellsSkipped.Inc()
		}
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	if ge == nil {
		return out, nil
	}
	return out, ge
}
