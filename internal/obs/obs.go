// Package obs is the observability layer of the reproduction: tracing
// spans, a process-wide metrics registry and machine-readable run
// reports. The pipeline itself is instrumented — every stage from trace
// partitioning through ILP solve to cache simulation opens a span, every
// memo layer counts its hits — but all of it is designed to cost nothing
// when nobody is looking:
//
//   - Spans exist only when a Tracer has been attached to the
//     context. StartSpan on a tracer-less context returns a nil *Span
//     whose methods are all no-ops, so instrumented code needs no
//     conditionals and pays one context lookup per stage (not per fetch).
//   - Metrics are plain atomic counters, incremented at memo and stage
//     boundaries — never inside the fetch loop — and exported through
//     expvar (GET /debug/vars when a pprof server is enabled).
//   - Trace logging (solver progress, stage starts) is off unless the
//     CASA_TRACE environment variable or a -trace flag enables it.
//
// The span tree and a metrics snapshot can be serialized as a Report —
// one JSON line per study — which cmd/benchdiff folds into memo hit
// rates and work counters and compares exactly with a committed
// baseline.
package obs

import (
	"context"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// Span is one timed region of the pipeline. Spans form a tree: a span
// started from a context carrying another span becomes its child. The
// exported fields are the serialized form; they must not be mutated
// outside this package. A nil *Span is valid and inert, so callers can
// instrument unconditionally.
type Span struct {
	// Name is the stage name ("prepare", "ilp-solve", "simulate", ...).
	Name string `json:"name"`
	// StartUnixNS is the span's start time (nanoseconds since the epoch);
	// zeroed in deterministic reports.
	StartUnixNS int64 `json:"start_unix_ns,omitempty"`
	// DurNS is the span's wall time in nanoseconds.
	DurNS int64 `json:"dur_ns"`
	// AllocBytes is the heap allocated between start and end. The counter
	// is process-wide, so under concurrent cells this is an upper bound
	// on the span's own allocations.
	AllocBytes int64 `json:"alloc_bytes,omitempty"`
	// Attrs are per-span key/value annotations (workload, sizes, memo
	// hit/miss, solver status, ...).
	Attrs map[string]any `json:"attrs,omitempty"`
	// Children are the nested spans, in start order.
	Children []*Span `json:"children,omitempty"`

	tracer     *Tracer
	start      time.Time
	startAlloc uint64
}

// Tracer collects one run's span tree. It is safe for concurrent use:
// spans started from contexts on different goroutines append to the
// shared tree under the tracer's lock.
type Tracer struct {
	mu    sync.Mutex
	roots []*Span
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Roots returns the top-level spans collected so far. The returned
// slice must be treated as read-only, and only inspected after the
// traced work has finished.
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.roots...)
}

type tracerKey struct{}
type spanKey struct{}

// WithTracer returns a context that collects spans into t.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom returns the tracer attached to ctx, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// SpanFrom returns the innermost span attached to ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// WithSpan returns a context carrying sp as the innermost span, so spans
// started from it become sp's children. It is how a server detaches a
// solve from the request's cancellation (context.Background()) while
// keeping its spans parented under the request's tree; sp must belong to
// the tracer the context carries.
func WithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// heapAllocBytes reads the cumulative heap allocation counter. Unlike
// runtime.ReadMemStats it does not stop the world, so it is cheap
// enough to sample per span; it is only consulted while tracing.
var heapAllocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocBytes() uint64 {
	s := []metrics.Sample{heapAllocSample[0]}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		return s[0].Value.Uint64()
	}
	return 0
}

// StartSpan opens a span named name as a child of the span carried by
// ctx (or as a root) and returns a derived context carrying the new
// span. When ctx has no tracer it returns ctx unchanged and a nil span;
// both return values are always safe to use.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	sp := &Span{
		Name:       name,
		tracer:     t,
		start:      time.Now(),
		startAlloc: heapAllocBytes(),
	}
	sp.StartUnixNS = sp.start.UnixNano()
	parent := SpanFrom(ctx)
	t.mu.Lock()
	if parent != nil {
		parent.Children = append(parent.Children, sp)
	} else {
		t.roots = append(t.roots, sp)
	}
	t.mu.Unlock()
	Tracef("span %s start", name)
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// End closes the span, recording its duration and allocation delta.
// Safe on a nil span and idempotent enough for defer use.
func (s *Span) End() {
	if s == nil {
		return
	}
	dur := time.Since(s.start).Nanoseconds()
	alloc := int64(heapAllocBytes() - s.startAlloc)
	s.tracer.mu.Lock()
	s.DurNS = dur
	s.AllocBytes = alloc
	s.tracer.mu.Unlock()
}

// SetAttr annotates the span with a key/value pair. Safe on nil.
// Values should be strings, booleans or numbers so reports marshal
// deterministically.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	if s.Attrs == nil {
		s.Attrs = make(map[string]any)
	}
	s.Attrs[key] = value
	s.tracer.mu.Unlock()
}

// Walk visits the span and all descendants depth-first.
func (s *Span) Walk(fn func(*Span)) {
	if s == nil {
		return
	}
	fn(s)
	for _, c := range s.Children {
		c.Walk(fn)
	}
}

// StageNames returns the sorted set of distinct span names reachable
// from the given roots.
func StageNames(roots []*Span) []string {
	seen := map[string]bool{}
	for _, r := range roots {
		r.Walk(func(s *Span) { seen[s.Name] = true })
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
