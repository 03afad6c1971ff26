// Package server implements casad, the CASA allocation service: a
// long-running HTTP daemon that accepts allocation requests (program +
// memory hierarchy, JSON) and answers with the chosen scratchpad
// allocation and its simulated energy/cycle estimates.
//
// The serving path is engineered for heavy concurrent traffic:
//
//   - a sharded LRU result cache answers repeats without touching the
//     pipeline (one mutex per shard, so handlers do not serialize);
//   - a singleflight group coalesces concurrent identical requests into
//     one solve — followers wait for the leader's result instead of
//     burning a core each;
//   - an admission controller bounds concurrent solves and picks a
//     solve-budget tier from the instantaneous load: exact solves while
//     capacity is plentiful, budgeted anytime solves (PR 4) under
//     pressure, a straight greedy allocation near saturation, and a 503
//     beyond the hard cap. Degraded answers carry a Degraded flag and
//     are never cached, so quality recovers as soon as load does.
//
// Every request is traced end to end: it gets a request ID (inbound
// X-Request-Id or generated), a span tree covering admission, cache
// lookup, singleflight role and every pipeline stage, and a tail-sampled
// retention policy keeps the traces worth looking at — all failures and
// degraded answers, the slowest N, and a thin sample of normal traffic
// (DESIGN.md §12).
//
// Endpoints: POST /v1/allocate, GET /healthz, GET /metrics
// (Prometheus/OpenMetrics text with exemplars), GET /metrics.json (flat
// JSON snapshot of the internal/obs registry), GET /debug/traces
// (retained-trace index), GET /debug/traces/{id} (full span tree), GET
// /debug/vars (expvar) and POST /quitquitquit (graceful shutdown: stop
// accepting, drain in-flight solves). DESIGN.md §11 describes the
// architecture.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/obs/promexport"
	"repro/internal/obs/slogx"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Serving metrics, resolved once.
var (
	mRequests     = obs.GetCounter("casa_server_requests_total")
	mOK           = obs.GetCounter("casa_server_ok_total")
	mBadRequests  = obs.GetCounter("casa_server_bad_requests_total")
	mServerErrors = obs.GetCounter("casa_server_errors_total")
	mRejected     = obs.GetCounter("casa_server_rejected_total")
	mSingleflight = obs.GetCounter("casa_server_singleflight_hits_total")
	mSolves       = obs.GetCounter("casa_server_solves_total")
	mDegraded     = obs.GetCounter("casa_server_degraded_total")
	mTierExact    = obs.GetCounter("casa_server_tier_exact_total")
	mTierBounded  = obs.GetCounter("casa_server_tier_bounded_total")
	mTierGreedy   = obs.GetCounter("casa_server_tier_greedy_total")
	mInflight     = obs.GetGauge("casa_server_inflight")
	mLatency      = obs.GetHistogram("casa_server_request_ns")
	// mWarmSolves counts solves seeded with a cutoff transferred from a
	// previously solved neighboring configuration (experiments.WarmStore).
	mWarmSolves = obs.GetCounter("casa_server_warm_solves_total")
)

// Fixed serving limits and timings.
const (
	// maxProgramBytes, maxSPMBytes and maxCacheBytes bound request
	// sizes: program source, scratchpad and I-cache capacity.
	maxProgramBytes = 256 << 10
	maxSPMBytes     = 1 << 20
	maxCacheBytes   = 4 << 20

	// readTimeout, writeTimeout and idleTimeout harden the listener
	// against stalled and parked connections: a connection that cannot
	// deliver a request, consume a response or carry another request
	// within these bounds is closed instead of pinning a file
	// descriptor forever.
	readTimeout  = 30 * time.Second
	writeTimeout = 60 * time.Second
	idleTimeout  = 2 * time.Minute

	// deadlineMargin is the slice of a client deadline (X-Deadline-Ms)
	// reserved for non-solve work — simulation, transfer valuation,
	// response encoding. The solve budget is clamped to the remaining
	// time minus this margin.
	deadlineMargin = 20 * time.Millisecond

	// slowChunkDelay is the pause between trickled response chunks of
	// the injected server-slow-client fault.
	slowChunkDelay = 20 * time.Millisecond

	// memCheckEvery is the memory watchdog's heap sampling period.
	memCheckEvery = 10 * time.Second

	// traceKeepCap and traceSampleCap size the trace store's must-keep
	// ring and random-sample ring.
	traceKeepCap   = 256
	traceSampleCap = 64

	// accessLogEvery samples healthy-request access logs 1-in-N;
	// failures, sheds and degraded answers always log.
	accessLogEvery = 16

	// defaultBodyReadTimeout bounds reading one request body. It is the
	// slow-loris guard: a client dribbling its upload gets a structured
	// 408 when the per-request read deadline expires, rather than
	// holding a handler goroutine for the full readTimeout budget.
	defaultBodyReadTimeout = 10 * time.Second
	// defaultStallDelay is how long the injected server-stall-read
	// fault holds a body read.
	defaultStallDelay = 250 * time.Millisecond
)

// Config tunes the server. The zero value is usable: withDefaults fills
// every field.
type Config struct {
	// MaxInflight is the hard admission cap on concurrent solves
	// (default 4×GOMAXPROCS). Coalesced duplicates and cache hits do
	// not consume slots; beyond the cap requests get 503.
	MaxInflight int
	// ExactBudget bounds a solve in the exact tier (load ≤ 1/2 of
	// MaxInflight; default 5s). Zero budgets are replaced by the
	// default: an unbounded solve inside a request handler would let
	// one pathological model wedge a worker forever.
	ExactBudget time.Duration
	// BoundedBudget bounds a solve in the bounded tier (load ≤ 3/4;
	// default 150ms) — the anytime solver returns its best incumbent.
	BoundedBudget time.Duration
	// CacheEntries is the total result-cache capacity (default 4096),
	// split over CacheShards shards (default 16).
	CacheEntries int
	CacheShards  int
	// MaxPrograms bounds the interned custom-program table (default 64);
	// eviction releases the program's sim memo entries.
	MaxPrograms int
	// DrainTimeout bounds graceful shutdown (default 30s).
	DrainTimeout time.Duration

	// MemSoftLimitBytes arms the memory-pressure watchdog: when the
	// sampled heap exceeds it, the server sheds LRU state in priority
	// order (result cache → interned programs and their sim memos →
	// warm donors) before the kernel's OOM killer gets a say. Zero
	// disables the watchdog, which samples every memCheckEvery.
	MemSoftLimitBytes uint64

	// SnapshotPath, when set, makes warm state crash-safe: the result
	// cache and the warm donor store are persisted there every
	// SnapshotEvery (default 30s) and on graceful shutdown, and restored
	// on boot — so a restarted daemon serves identical answers warm
	// instead of re-earning its incumbents from live traffic (snapshot.go).
	SnapshotPath  string
	SnapshotEvery time.Duration

	// TraceSample sets the request-tracing rate: 0 (unset) and ≥1
	// trace every request, a value in (0,1) samples roughly that
	// fraction of requests and a negative value disables tracing.
	TraceSample float64
	// TraceSlowCap sizes the trace store's slowest-N heap (default 64;
	// the must-keep and random-sample rings hold traceKeepCap and
	// traceSampleCap). TraceSampleEvery is the systematic-sample stride
	// (default 64: 1 in 64 healthy requests).
	TraceSlowCap     int
	TraceSampleEvery int
	// Logger receives structured request logs (nil: discard).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.ExactBudget <= 0 {
		c.ExactBudget = 5 * time.Second
	}
	if c.BoundedBudget <= 0 {
		c.BoundedBudget = 150 * time.Millisecond
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	if c.MaxPrograms <= 0 {
		c.MaxPrograms = 64
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 30 * time.Second
	}
	if c.TraceSlowCap <= 0 {
		c.TraceSlowCap = 64
	}
	if c.TraceSampleEvery <= 0 {
		c.TraceSampleEvery = 64
	}
	if c.Logger == nil {
		c.Logger = slogx.Discard()
	}
	return c
}

// Tier names (Response.Tier).
const (
	tierExact   = "exact"
	tierBounded = "bounded"
	tierGreedy  = "greedy"
)

// Server is the allocation service. Create with New; it is safe for
// concurrent use.
type Server struct {
	cfg          Config
	mux          *http.ServeMux
	cache        *shardedCache
	programs     *internTable
	flight       flightGroup
	inflight     atomic.Int64
	draining     atomic.Bool
	start        time.Time
	httpSrv      *http.Server
	traces       *obs.TraceStore
	traceEvery   int64 // 0 = never trace, 1 = always, N = 1-in-N
	traceSeq     atomic.Int64
	logger       *slog.Logger
	accessSample *slogx.Sampler

	// warm transfers solved selections between single-parameter-apart
	// hierarchies of the same program (DESIGN.md §13).
	warm experiments.WarmStore

	// stop tears down the background goroutines (memory watchdog,
	// snapshotter) exactly once, on Shutdown.
	stop     chan struct{}
	stopOnce sync.Once

	// testHookSolving, when set, is called by a solve leader after it
	// acquired its admission slot and chose a tier, before any pipeline
	// work. Tests use it to hold solves in flight deterministically.
	// testHookBudget additionally reports the effective (deadline-
	// clamped) solve budget the tier ended up with.
	testHookSolving func(key, tier string)
	testHookBudget  func(tier string, budget time.Duration)
	// bodyReadTimeout (defaultBodyReadTimeout) bounds one request-body
	// read and stallDelay (defaultStallDelay) is the injected
	// server-stall-read pause; tests shorten them to keep chaos runs
	// fast.
	bodyReadTimeout time.Duration
	stallDelay      time.Duration
}

// New returns a ready-to-serve Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:          cfg,
		cache:        newShardedCache(cfg.CacheEntries, cfg.CacheShards),
		start:        time.Now(),
		traces:       obs.NewTraceStore(traceKeepCap, cfg.TraceSlowCap, traceSampleCap, cfg.TraceSampleEvery),
		traceEvery:   traceEveryFrom(cfg.TraceSample),
		logger:       cfg.Logger,
		accessSample: slogx.NewSampler(accessLogEvery),
		stop:         make(chan struct{}),

		bodyReadTimeout: defaultBodyReadTimeout,
		stallDelay:      defaultStallDelay,
	}
	s.programs = newInternTable(cfg.MaxPrograms, s.releaseProgram)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/allocate", s.handleAllocate)
	mux.HandleFunc("/healthz", getOnly(s.handleHealthz))
	mux.HandleFunc("/metrics", getOnly(s.handlePromMetrics))
	mux.HandleFunc("/metrics.json", getOnly(s.handleMetricsJSON))
	mux.HandleFunc("/debug/traces", getOnly(s.handleTraceIndex))
	mux.HandleFunc("/debug/traces/", getOnly(s.handleTraceGet))
	mux.Handle("/debug/vars", getOnly(expvar.Handler().ServeHTTP))
	mux.HandleFunc("/quitquitquit", s.handleQuit)
	s.mux = mux
	return s
}

// getOnly guards a read-only endpoint: anything but GET (or HEAD, which
// net/http answers from the GET handler) gets a structured 405 with an
// Allow header instead of a confusing handler-specific failure.
func getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", http.MethodGet)
			writeError(w, &httpError{code: http.StatusMethodNotAllowed, msg: "GET only"})
			return
		}
		h(w, r)
	}
}

// Handler returns the server's HTTP handler (httptest-friendly).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown. It owns the underlying
// http.Server so Shutdown can drain it; the network-level timeouts are
// the first line of chaos resistance — a stalled, parked or abandoned
// connection is closed by the kernel-visible deadlines below before it
// can pin server state.
func (s *Server) Serve(l net.Listener) error {
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	s.startBackground()
	err := s.httpSrv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// startBackground restores the warm-state snapshot (synchronously, so
// the listener never serves cold answers a restore was about to warm)
// and launches the memory watchdog and the periodic snapshotter when
// their configs arm them. Serve is called once; tests drive the
// underlying steps directly.
func (s *Server) startBackground() {
	if s.cfg.MemSoftLimitBytes > 0 {
		go s.watchMemory()
	}
	if s.cfg.SnapshotPath != "" {
		if n, err := s.RestoreSnapshot(s.cfg.SnapshotPath); err != nil {
			s.logger.Warn("snapshot restore failed; serving cold", "path", s.cfg.SnapshotPath, "err", err)
		} else if n > 0 {
			s.logger.Info("snapshot restored", "path", s.cfg.SnapshotPath, "entries", n)
		}
		go s.snapshotLoop()
	}
}

// ListenAndServe is Serve on a fresh TCP listener.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown drains the server: new allocation requests are refused with
// 503 immediately, in-flight solves run to completion (bounded by ctx),
// then the listener closes. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.stopOnce.Do(func() { close(s.stop) })
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	// A final snapshot after the drain captures everything the run
	// learned; a kill -9 instead falls back to the last periodic one.
	if s.cfg.SnapshotPath != "" {
		if serr := s.SaveSnapshot(s.cfg.SnapshotPath); serr != nil {
			s.logger.Warn("snapshot on shutdown failed", "err", serr)
		}
	}
	return err
}

// Draining reports whether a graceful shutdown has started.
func (s *Server) Draining() bool { return s.draining.Load() }

// httpError carries a status code through the compute path so handler
// plumbing can map pipeline failures to the right class: client mistakes
// (unparseable program, impossible hierarchy) are 4xx, everything else
// 5xx.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

var errOverloaded = &httpError{code: http.StatusServiceUnavailable, msg: "overloaded: solve capacity exhausted"}
var errDraining = &httpError{code: http.StatusServiceUnavailable, msg: "draining: server is shutting down"}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var he *httpError
	if errors.As(err, &he) {
		code = he.code
	}
	switch {
	case code == http.StatusServiceUnavailable:
		mRejected.Inc()
	case code >= 500:
		mServerErrors.Inc()
	default:
		mBadRequests.Inc()
	}
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

// handleAllocate is POST /v1/allocate: decode → validate → result cache
// → singleflight → admission/tier → pipeline, with a span around each
// decision so the retained trace explains where the request's time and
// outcome came from.
func (s *Server) handleAllocate(w http.ResponseWriter, r *http.Request) {
	mRequests.Inc()
	rec, ctx := s.beginRequest(r)
	defer s.finishRequest(rec)
	w.Header().Set("X-Request-Id", rec.id)

	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.failRequest(rec, w, &httpError{code: http.StatusMethodNotAllowed, msg: "POST only"})
		return
	}
	if s.draining.Load() {
		s.failRequest(rec, w, errDraining)
		return
	}
	deadline, err := parseDeadline(r, rec.start)
	if err != nil {
		s.failRequest(rec, w, err)
		return
	}
	if !deadline.IsZero() {
		rec.root.SetAttr("deadline_ms", float64(time.Until(deadline).Nanoseconds())/1e6)
	}
	req, err := s.readRequest(w, r)
	if err != nil {
		s.failRequest(rec, w, err)
		return
	}
	req.normalize()
	if err := req.validate(); err != nil {
		s.failRequest(rec, w, badRequestf("%v", err))
		return
	}
	key := req.key()
	rec.root.SetAttr("key", key)
	if req.Workload != "" {
		rec.root.SetAttr("workload", req.Workload)
	}

	_, csp := obs.StartSpan(ctx, "result-cache")
	var cached *Response
	hit := false
	if !fault.Hit(fault.ServerCacheMiss) {
		cached, hit = s.cache.get(key)
	} else {
		mCacheMisses.Inc()
	}
	csp.SetAttr("hit", hit)
	csp.End()
	if hit {
		rec.outcome = outcomeCached
		rec.tier = cached.Tier
		s.deliver(w, cached, true, false, rec.start)
		return
	}

	var resp *Response
	var shared bool
	if deadline.IsZero() {
		fctx, fsp := obs.StartSpan(ctx, "singleflight")
		var leaderID string
		resp, err, shared, leaderID = s.flight.do(key, rec.id, func() (*Response, error) {
			return s.compute(fctx, &req, key, time.Time{})
		})
		if shared {
			mSingleflight.Inc()
			fsp.SetAttr("role", "follower")
			fsp.SetAttr("leader_request_id", leaderID)
		} else {
			fsp.SetAttr("role", "leader")
		}
		fsp.End()
	} else {
		// A deadline makes the request latency-sensitive: coalescing it
		// onto a leader with a different (or no) time budget would couple
		// unrelated deadlines, so deadline-bearing requests solve
		// independently, each bounded by its own remaining time. Refuse
		// outright when the budget is already spent — an admission slot
		// gains a dead request nothing.
		if _, ok := clampBudget(0, deadline, deadlineMargin, time.Now()); !ok {
			s.failRequest(rec, w, deadlineExceededErr(time.Until(deadline)))
			return
		}
		resp, err = s.compute(ctx, &req, key, deadline)
	}
	if err != nil {
		if isDeadlineErr(err) {
			err = deadlineExceededErr(time.Until(deadline))
		}
		s.failRequest(rec, w, err)
		return
	}
	rec.tier = resp.Tier
	switch {
	case resp.Degraded:
		rec.outcome = outcomeDegraded
		rec.reason = resp.DegradedReason
	case shared:
		rec.outcome = outcomeCoalesced
	}
	s.deliver(w, resp, false, shared, rec.start)
}

// deliver stamps the per-delivery fields on a copy of the (shared,
// immutable) response and writes it. The two response-side fault points
// fire here, after the solve succeeded: a computed answer the client
// never receives is exactly the failure mode they emulate.
func (s *Server) deliver(w http.ResponseWriter, resp *Response, cached, coalesced bool, start time.Time) {
	out := *resp
	out.Cached = cached
	out.Coalesced = coalesced
	out.ElapsedMS = float64(time.Since(start).Nanoseconds()) / 1e6
	mOK.Inc()
	if fault.Hit(fault.ServerConnReset) {
		s.resetConn(w)
		return
	}
	if fault.Hit(fault.ServerSlowClient) {
		s.writeSlowly(w, &out)
		return
	}
	writeJSON(w, http.StatusOK, &out)
}

// tierFor maps the instantaneous in-flight count (this request included)
// to an admission tier and its solve budget.
func (s *Server) tierFor(n int64) (string, time.Duration) {
	max := int64(s.cfg.MaxInflight)
	switch {
	case max <= 1 || n <= max/2:
		return tierExact, s.cfg.ExactBudget
	case n <= (3*max)/4:
		return tierBounded, s.cfg.BoundedBudget
	default:
		return tierGreedy, 0
	}
}

// compute runs the allocation pipeline for one admitted request. A
// deadline-free request is always executed by a singleflight leader, so
// the admission counter tracks genuinely distinct concurrent solves; a
// deadline-bearing request runs uncoalesced with the deadline bounding
// both the pipeline context and the solve budget.
func (s *Server) compute(rctx context.Context, req *Request, key string, deadline time.Time) (*Response, error) {
	// The pipeline runs on a background-derived context on purpose: a
	// coalesced follower must not lose the result because the leader's
	// own client hung up, and graceful shutdown wants in-flight solves
	// to finish. The tier budget bounds the solve instead. The leader's
	// tracer and singleflight span are transplanted onto the detached
	// context so the solve's spans still land in the leader's trace.
	// A client deadline is the one request-side bound that survives the
	// detachment: it caps every pipeline stage, not just the solve.
	bctx := context.Background()
	if tr := obs.TracerFrom(rctx); tr != nil {
		bctx = obs.WithTracer(bctx, tr)
		if parent := obs.SpanFrom(rctx); parent != nil {
			bctx = obs.WithSpan(bctx, parent)
		}
	}
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		bctx, cancel = context.WithDeadline(bctx, deadline)
		defer cancel()
	}
	ctx, sp := obs.StartSpan(bctx, "serve")
	defer sp.End()
	sp.SetAttr("key", key)

	n := s.inflight.Add(1)
	mInflight.Set(n)
	defer func() { mInflight.Set(s.inflight.Add(-1)) }()
	if n > int64(s.cfg.MaxInflight) || fault.Hit(fault.ServerOverload) {
		return nil, errOverloaded
	}
	_, asp := obs.StartSpan(ctx, "admission")
	tier, tierBudget := s.tierFor(n)
	budget, viable := clampBudget(tierBudget, deadline, deadlineMargin, time.Now())
	asp.SetAttr("tier", tier)
	asp.SetAttr("inflight", n)
	asp.SetAttr("budget_ms", float64(budget)/1e6)
	if !deadline.IsZero() {
		asp.SetAttr("deadline_clamped", budget != tierBudget)
	}
	asp.End()
	if !viable {
		return nil, deadlineExceededErr(time.Until(deadline))
	}
	sp.SetAttr("tier", tier)
	occ := tierGauge(tier)
	occ.Add(1)
	defer occ.Add(-1)
	switch tier {
	case tierExact:
		mTierExact.Inc()
	case tierBounded:
		mTierBounded.Inc()
	default:
		mTierGreedy.Inc()
	}
	if s.testHookSolving != nil {
		s.testHookSolving(key, tier)
	}
	if s.testHookBudget != nil {
		s.testHookBudget(tier, budget)
	}
	mSolves.Inc()

	prog, err := s.resolveProgram(ctx, req)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}

	spec := experiments.CacheSpec{
		Size:  req.Hierarchy.CacheBytes,
		Line:  req.Hierarchy.LineBytes,
		Assoc: req.Hierarchy.Assoc,
	}
	pipe, err := experiments.PrepareProgram(ctx, prog, spec, req.Hierarchy.SPMBytes)
	if err != nil {
		// A deadline expiry mid-preparation is the client's clock, not
		// the client's configuration — classify it before the 400 below.
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		// Preparation failures are configuration problems (trace
		// formation, cache geometry, energy model): the client's inputs
		// made them, so report them as such.
		return nil, badRequestf("prepare: %v", err)
	}
	pipe.SolveBudget = budget
	// Cross-request warm start: a CASA solve is seeded from the solved
	// neighboring hierarchies of the same program, and publishes its
	// proven-optimal selection for later requests. Neither changes the
	// answer (ilp.Options), so warm and cold responses are identical.
	pipe.Warm = &s.warm

	base, err := pipe.RunCacheOnly(ctx)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	alloc := req.Allocator
	if tier == tierGreedy && alloc == "casa" {
		// Load shedding: skip the ILP entirely and serve the greedy
		// selection, marked degraded below.
		alloc = "greedy"
	}
	var out *experiments.Outcome
	switch alloc {
	case "casa":
		out, err = pipe.RunCASA(ctx)
	case "greedy":
		out, err = pipe.RunCASAGreedy(ctx)
	case "steinke":
		out, err = pipe.RunSteinke(ctx)
	case "loopcache":
		out, err = pipe.RunLoopCache(ctx)
	case "cache-only":
		out = base
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", alloc, err)
	}
	if out.Warm {
		mWarmSolves.Inc()
	}

	resp := s.buildResponse(req, key, tier, pipe, base, out)
	if tier == tierGreedy && req.Allocator == "casa" {
		resp.Degraded = true
		resp.DegradedReason = "admission-greedy"
		resp.Fallback = true
	}
	if resp.Degraded {
		mDegraded.Inc()
	} else {
		// Only proven results are cached: a degraded incumbent served
		// under pressure must not keep being served once load subsides.
		s.cache.put(key, resp)
	}
	return resp, nil
}

// releaseProgram drops what the daemon keeps for a custom program the
// intern table let go: its sim memos and its warm donors.
func (s *Server) releaseProgram(p *ir.Program) {
	sim.Forget(p)
	s.warm.Forget(p)
}

// resolveProgram maps the request to the canonical *ir.Program instance:
// bundled workloads come from workload.Shared, custom programs from the
// intern table — either way repeats share one instance so the sim memo
// layers hit.
func (s *Server) resolveProgram(ctx context.Context, req *Request) (*ir.Program, error) {
	_, sp := obs.StartSpan(ctx, "resolve-program")
	defer sp.End()
	if req.Workload != "" {
		sp.SetAttr("workload", req.Workload)
		prog, err := workload.Shared(req.Workload)
		if err != nil {
			return nil, badRequestf("%v", err)
		}
		return prog, nil
	}
	prog, hit, err := s.programs.program(req.Program)
	sp.SetAttr("intern_hit", hit)
	if err != nil {
		return nil, badRequestf("parse program: %v", err)
	}
	return prog, nil
}

func (s *Server) buildResponse(req *Request, key, tier string, pipe *experiments.Pipeline,
	base, out *experiments.Outcome) *Response {
	r := out.Result
	resp := &Response{
		Workload:       pipe.Workload,
		Allocator:      out.Allocator,
		Key:            key,
		Tier:           tier,
		EnergyMicroJ:   out.EnergyMicroJ,
		BaselineMicroJ: base.EnergyMicroJ,
		Cycles:         r.Cycles,
		Fetches:        r.Fetches,
		CacheMisses:    r.CacheMisses,
		PlacedTraces:   out.PlacedTraces,
		UsedBytes:      out.UsedBytes,
		SPMBytes:       req.Hierarchy.SPMBytes,
		SolverNodes:    out.SolverNodes,
		Degraded:       out.Degraded,
		DegradedReason: out.DegradedReason,
		Gap:            out.Gap,
		Fallback:       out.Fallback,
	}
	if base.EnergyMicroJ > 0 {
		resp.EnergySavingPct = 100 * (base.EnergyMicroJ - out.EnergyMicroJ) / base.EnergyMicroJ
	}
	if req.Placement {
		for _, tr := range pipe.Set.Traces {
			mo := r.PerMO[tr.ID]
			where := "cache"
			if mo.SPM > 0 {
				where = "spm"
			} else if mo.LoopCache > 0 {
				where = "lc"
			}
			resp.Placement = append(resp.Placement, TracePlacement{
				Trace:   tr.ID,
				Where:   where,
				Bytes:   tr.RawBytes,
				Fetches: tr.Fetches,
				Misses:  mo.Misses,
			})
		}
	}
	return resp
}

// healthState is the /healthz body.
type healthState struct {
	Status    string  `json:"status"`
	UptimeS   float64 `json:"uptime_s"`
	Inflight  int64   `json:"inflight"`
	Cached    int     `json:"cached_responses"`
	Programs  int     `json:"interned_programs"`
	Traces    int     `json:"retained_traces"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	MaxSolves int     `json:"max_inflight"`
	Revision  string  `json:"revision"`
	GoVersion string  `json:"go_version"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	revision, goVersion := BuildInfo()
	st := healthState{
		Status:    "ok",
		UptimeS:   time.Since(s.start).Seconds(),
		Inflight:  s.inflight.Load(),
		Cached:    s.cache.len(),
		Programs:  s.programs.len(),
		Traces:    s.traces.Len(),
		P50Ms:     mLatency.Quantile(0.50) / 1e6,
		P99Ms:     mLatency.Quantile(0.99) / 1e6,
		MaxSolves: s.cfg.MaxInflight,
		Revision:  revision,
		GoVersion: goVersion,
	}
	code := http.StatusOK
	if s.draining.Load() {
		st.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, st)
}

// handleMetricsJSON serves the obs registry as one flat JSON object
// (name → value) — the machine-readable face of CASA_METRICS dumps, and
// what casaload diffs around a run.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, obs.Default.Snapshot())
}

// handlePromMetrics serves the registry in the Prometheus/OpenMetrics
// text format, histogram exemplars linking latency buckets to retained
// traces. A few gauges only matter at scrape time, so they are set here
// rather than maintained on the hot path.
func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	mTraceStoreSize.Set(int64(s.traces.Len()))
	mInterned.Set(int64(s.programs.len()))
	w.Header().Set("Content-Type", promexport.ContentType)
	_ = promexport.WriteRegistry(w, obs.Default)
}

// handleTraceIndex is GET /debug/traces: a newest-first summary of
// every retained trace.
func (s *Server) handleTraceIndex(w http.ResponseWriter, r *http.Request) {
	idx := s.traces.Index()
	if idx == nil {
		idx = []obs.TraceSummary{}
	}
	writeJSON(w, http.StatusOK, idx)
}

// handleTraceGet is GET /debug/traces/{id}: one retained trace's full
// span tree.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/debug/traces/")
	if id == "" {
		s.handleTraceIndex(w, r)
		return
	}
	t, ok := s.traces.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "no retained trace with id " + id})
		return
	}
	writeJSON(w, http.StatusOK, t)
}

// handleQuit is POST /quitquitquit: acknowledge, then drain in the
// background bounded by DrainTimeout.
func (s *Server) handleQuit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, &httpError{code: http.StatusMethodNotAllowed, msg: "POST only"})
		return
	}
	obs.Warnf("casad: shutdown requested via /quitquitquit")
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	writeJSON(w, http.StatusOK, map[string]string{"status": "draining"})
}

// String summarizes the configuration for startup logs.
func (s *Server) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "max-inflight=%d exact=%s bounded=%s cache=%d×%d programs=%d",
		s.cfg.MaxInflight, s.cfg.ExactBudget, s.cfg.BoundedBudget,
		s.cfg.CacheShards, s.cfg.CacheEntries/s.cfg.CacheShards, s.cfg.MaxPrograms)
	return b.String()
}
