package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// End-to-end deadline propagation (DESIGN.md §14). A client that only
// has 200ms left before its own SLO expires gains nothing from a 5s
// exact solve it will never read; it sends the time it is still willing
// to wait in the X-Deadline-Ms header and the server bounds everything
// downstream with it:
//
//   - the admission tier's solve budget is clamped to the remaining
//     time (minus deadlineMargin for simulation and encoding), so
//     ilp.Solve's anytime machinery returns its best incumbent inside
//     the client's window instead of the tier's static budget;
//   - the detached compute context carries the deadline, so the
//     non-anytime pipeline stages (trace formation, simulation) are cut
//     off too and the client gets a clean 504 instead of a wasted solve;
//   - a request that arrives with (almost) no time left is answered 504
//     immediately, before it consumes an admission slot.
//
// Without the header the per-tier budgets act as the server-side
// defaults, exactly as before. Deadline expiries are counted by
// casa_server_deadline_exceeded_total, classified as the "deadline"
// outcome (must-keep in the trace store) and annotated on the request
// root and admission spans.

// HeaderDeadline is the request header naming the client's remaining
// time budget in milliseconds.
const HeaderDeadline = "X-Deadline-Ms"

var mDeadlineExceeded = obs.GetCounter("casa_server_deadline_exceeded_total")

// errDeadlineExceeded is the 504-class answer for a request whose
// deadline expired before (or while) the server could produce a result.
func deadlineExceededErr(remaining time.Duration) error {
	return &httpError{
		code: http.StatusGatewayTimeout,
		msg:  fmt.Sprintf("deadline exceeded: %.1fms remaining of the client budget", float64(remaining.Nanoseconds())/1e6),
	}
}

// parseDeadline reads X-Deadline-Ms relative to the request's arrival
// time. The zero time means no client deadline. A malformed or
// non-positive value is a client error: silently ignoring it would turn
// a typo into an unbounded wait, the opposite of what the client asked
// for.
func parseDeadline(r *http.Request, start time.Time) (time.Time, error) {
	raw := r.Header.Get(HeaderDeadline)
	if raw == "" {
		return time.Time{}, nil
	}
	ms, err := strconv.ParseFloat(raw, 64)
	if err != nil || ms <= 0 {
		return time.Time{}, badRequestf("bad %s %q: want a positive number of milliseconds", HeaderDeadline, raw)
	}
	return start.Add(time.Duration(ms * float64(time.Millisecond))), nil
}

// clampBudget bounds a tier's solve budget by the time remaining until
// the client deadline, reserving margin for the non-solve work
// (simulation, response encoding) that follows. ok is false when the
// deadline leaves no usable time at all — the caller should answer 504
// rather than start work it cannot finish.
func clampBudget(tierBudget time.Duration, deadline time.Time, margin time.Duration, now time.Time) (time.Duration, bool) {
	if deadline.IsZero() {
		return tierBudget, true
	}
	remaining := deadline.Sub(now) - margin
	if remaining <= 0 {
		return 0, false
	}
	if tierBudget == 0 || remaining < tierBudget {
		return remaining, true
	}
	return tierBudget, true
}

// isDeadlineErr reports whether err is a deadline expiry from any layer
// of the compute path — the context the pipeline ran under, or an
// httpError already classified as 504.
func isDeadlineErr(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var he *httpError
	return errors.As(err, &he) && he.code == http.StatusGatewayTimeout
}
