package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/slogx"
)

// Telemetry metrics, resolved once.
var (
	mTraced     = obs.GetCounter("casa_server_traced_requests_total")
	mTraceKept  = obs.GetCounter("casa_server_traces_retained_total")
	mTraceDrops = obs.GetCounter("casa_server_trace_store_drops_total")

	// Per-tier occupancy: how many solves are currently running in each
	// admission tier. Unlike the tier_*_total counters these move both
	// ways, so a scrape shows where the in-flight work sits right now.
	mInflightExact   = obs.GetGauge("casa_server_inflight_exact")
	mInflightBounded = obs.GetGauge("casa_server_inflight_bounded")
	mInflightGreedy  = obs.GetGauge("casa_server_inflight_greedy")

	mTraceStoreSize = obs.GetGauge("casa_server_trace_store_size")
	mInterned       = obs.GetGauge("casa_server_interned_programs")
)

func tierGauge(tier string) *obs.Gauge {
	switch tier {
	case tierExact:
		return mInflightExact
	case tierBounded:
		return mInflightBounded
	default:
		return mInflightGreedy
	}
}

// Request outcome classes (RequestTrace.Outcome, access-log field).
const (
	outcomeOK          = "ok"
	outcomeCached      = "cached"
	outcomeCoalesced   = "coalesced"
	outcomeDegraded    = "degraded"
	outcomeShed        = "shed"
	outcomeDeadline    = "deadline"
	outcomeClientError = "client-error"
	outcomeError       = "error"
)

// bootID makes generated request IDs unique across restarts, so an ID
// quoted from an old log never resolves to the wrong trace.
var bootID = func() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "casad"
	}
	return hex.EncodeToString(b[:])
}()

var reqSeq atomic.Int64

func newRequestID() string {
	return bootID + "-" + leftPad(strconv.FormatInt(reqSeq.Add(1), 10), 7)
}

func leftPad(s string, n int) string {
	for len(s) < n {
		s = "0" + s
	}
	return s
}

// requestIDFrom returns the inbound X-Request-Id when it is safe to
// echo (bounded length, no header-splitting or log-forging characters),
// otherwise a generated ID.
func requestIDFrom(r *http.Request) string {
	id := r.Header.Get("X-Request-Id")
	if id == "" || len(id) > 128 {
		return newRequestID()
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return newRequestID()
		}
	}
	return id
}

// traceEveryFrom converts a sampling rate into the modulus the handler
// checks: 0 = never trace, 1 = always, N = 1-in-N. A zero rate means
// unset and traces every request (tracing is cheap: one tracer
// allocation plus a handful of spans per request); a negative rate
// disables tracing.
func traceEveryFrom(rate float64) int64 {
	switch {
	case rate == 0 || rate >= 1:
		return 1
	case rate < 0:
		return 0
	default:
		return int64(1/rate + 0.5)
	}
}

// reqRecord accumulates one request's identity and fate between
// beginRequest and finishRequest. The handler mutates it as the request
// progresses; finishRequest turns it into the trace offered to the
// store and the access-log line.
type reqRecord struct {
	id      string
	start   time.Time
	tracer  *obs.Tracer
	root    *obs.Span
	status  int
	outcome string
	tier    string
	reason  string
}

// beginRequest assigns the request its ID and, when sampled, a tracer
// whose "request" root span the rest of the handler parents under. The
// returned context carries both and derives from the request's own.
func (s *Server) beginRequest(r *http.Request) (*reqRecord, context.Context) {
	rec := &reqRecord{
		id:      requestIDFrom(r),
		start:   time.Now(),
		status:  http.StatusOK,
		outcome: outcomeOK,
	}
	ctx := slogx.With(r.Context(), s.logger.With("request_id", rec.id))
	if s.sampleTrace() {
		rec.tracer = obs.NewTracer()
		ctx = obs.WithTracer(ctx, rec.tracer)
		ctx, rec.root = obs.StartSpan(ctx, "request")
		rec.root.SetAttr("request_id", rec.id)
	}
	return rec, ctx
}

func (s *Server) sampleTrace() bool {
	switch s.traceEvery {
	case 0:
		return false
	case 1:
		return true
	}
	return (s.traceSeq.Add(1)-1)%s.traceEvery == 0
}

// finishRequest closes the request's root span, offers the trace for
// retention, records latency (with an exemplar pointing at the trace
// when it was retained, so /metrics buckets link to /debug/traces), and
// emits the access log line — errors, sheds and degraded answers
// always, healthy requests 1-in-AccessLogEvery.
func (s *Server) finishRequest(rec *reqRecord) {
	durNS := time.Since(rec.start).Nanoseconds()
	kept := false
	if rec.tracer != nil {
		rec.root.SetAttr("status", rec.status)
		rec.root.SetAttr("outcome", rec.outcome)
		if rec.tier != "" {
			rec.root.SetAttr("tier", rec.tier)
		}
		if rec.reason != "" {
			rec.root.SetAttr("reason", rec.reason)
		}
		rec.root.End()
		mTraced.Inc()
		var dropped bool
		kept, dropped = s.traces.Offer(&obs.RequestTrace{
			ID:          rec.id,
			StartUnixNS: rec.start.UnixNano(),
			DurNS:       durNS,
			Status:      rec.status,
			Outcome:     rec.outcome,
			Tier:        rec.tier,
			Reason:      rec.reason,
			Spans:       rec.tracer.Roots(),
		})
		if kept {
			mTraceKept.Inc()
		}
		if dropped {
			mTraceDrops.Inc()
		}
	}
	if kept {
		mLatency.ObserveWithExemplar(durNS, rec.id)
	} else {
		mLatency.Observe(durNS)
	}

	interesting := rec.outcome == outcomeDegraded || rec.outcome == outcomeShed ||
		rec.outcome == outcomeDeadline || rec.outcome == outcomeError
	if !interesting && !s.accessSample.Allow() {
		return
	}
	l := s.logger.With(
		"request_id", rec.id,
		"status", rec.status,
		"outcome", rec.outcome,
		"dur_ms", float64(durNS)/1e6,
	)
	if rec.tier != "" {
		l = l.With("tier", rec.tier)
	}
	if rec.reason != "" {
		l = l.With("reason", rec.reason)
	}
	if interesting {
		l.Warn("allocate")
	} else {
		l.Info("allocate")
	}
}

// failRequest classifies err onto the record and writes the error
// response. Outcomes: 503 = shed, 504 = deadline (the client's clock
// expired, counted separately), other 5xx = error, 4xx = client mistake
// (which the trace store deliberately does not must-keep).
func (s *Server) failRequest(rec *reqRecord, w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var he *httpError
	if errors.As(err, &he) {
		code = he.code
	}
	rec.status = code
	rec.reason = err.Error()
	switch {
	case code == http.StatusServiceUnavailable:
		rec.outcome = outcomeShed
	case code == http.StatusGatewayTimeout:
		rec.outcome = outcomeDeadline
		mDeadlineExceeded.Inc()
	case code >= 500:
		rec.outcome = outcomeError
	default:
		rec.outcome = outcomeClientError
	}
	writeError(w, err)
}
