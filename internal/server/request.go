package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/workload"
)

// Hierarchy describes the memory hierarchy an allocation request targets,
// mirroring the flags of cmd/casa.
type Hierarchy struct {
	// CacheBytes is the I-cache capacity (power of two).
	CacheBytes int `json:"cache_bytes"`
	// LineBytes is the cache line size (power of two ≥ 4; default 16,
	// the paper-wide value).
	LineBytes int `json:"line_bytes,omitempty"`
	// Assoc is the cache associativity (default 1, direct-mapped).
	Assoc int `json:"assoc,omitempty"`
	// SPMBytes is the scratchpad (or loop cache) capacity.
	SPMBytes int `json:"spm_bytes"`
}

// Request is the JSON body of POST /v1/allocate. The program comes
// either as a bundled workload name or as source in the repository's
// round-trippable asm format (what `dump -format asm` emits).
type Request struct {
	// Workload names a bundled benchmark (adpcm, g721, mpeg).
	Workload string `json:"workload,omitempty"`
	// Program is asm source for a custom program (exclusive with
	// Workload).
	Program string `json:"program,omitempty"`
	// Hierarchy selects the cache/scratchpad configuration.
	Hierarchy Hierarchy `json:"hierarchy"`
	// Allocator picks the technique: casa (default), greedy, steinke,
	// loopcache, cache-only.
	Allocator string `json:"allocator,omitempty"`
	// Placement asks for the per-trace placement table in the response.
	Placement bool `json:"placement,omitempty"`
}

// allocators are the accepted Request.Allocator values.
var allocators = map[string]bool{
	"casa": true, "greedy": true, "steinke": true,
	"loopcache": true, "cache-only": true,
}

// normalize fills defaulted fields in place.
func (r *Request) normalize() {
	if r.Hierarchy.LineBytes == 0 {
		r.Hierarchy.LineBytes = 16
	}
	if r.Hierarchy.Assoc == 0 {
		r.Hierarchy.Assoc = 1
	}
	if r.Allocator == "" {
		r.Allocator = "casa"
	}
}

func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// validate rejects requests the pipeline would choke on, with messages a
// client can act on.
func (r *Request) validate() error {
	switch {
	case r.Workload == "" && r.Program == "":
		return fmt.Errorf("need workload or program")
	case r.Workload != "" && r.Program != "":
		return fmt.Errorf("pass workload or program, not both")
	}
	if r.Workload != "" {
		known := false
		for _, n := range workload.Names() {
			if n == r.Workload {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("unknown workload %q (have %s)",
				r.Workload, strings.Join(workload.Names(), ", "))
		}
	}
	if len(r.Program) > maxProgramBytes {
		return fmt.Errorf("program source %d bytes exceeds the %d-byte limit",
			len(r.Program), maxProgramBytes)
	}
	h := r.Hierarchy
	if !powerOfTwo(h.CacheBytes) || h.CacheBytes > maxCacheBytes {
		return fmt.Errorf("cache_bytes %d must be a power of two in (0, %d]",
			h.CacheBytes, maxCacheBytes)
	}
	if !powerOfTwo(h.LineBytes) || h.LineBytes < 4 || h.LineBytes > h.CacheBytes {
		return fmt.Errorf("line_bytes %d must be a power of two in [4, cache_bytes]", h.LineBytes)
	}
	if !powerOfTwo(h.Assoc) || h.CacheBytes < h.LineBytes*h.Assoc {
		return fmt.Errorf("assoc %d must be a power of two with cache_bytes ≥ line_bytes×assoc", h.Assoc)
	}
	if h.SPMBytes < h.LineBytes || h.SPMBytes > maxSPMBytes {
		return fmt.Errorf("spm_bytes %d must be in [line_bytes, %d]", h.SPMBytes, maxSPMBytes)
	}
	if !allocators[r.Allocator] {
		return fmt.Errorf("unknown allocator %q (casa, greedy, steinke, loopcache, cache-only)", r.Allocator)
	}
	return nil
}

// key returns the canonical request hash: two requests that must produce
// the same response map to the same key, so the result cache and the
// singleflight group deduplicate on it. All normalized fields
// participate — Placement too, because it changes the response shape.
func (r *Request) key() string {
	hsh := sha256.New()
	fmt.Fprintf(hsh, "wl=%s|cache=%d/%d/%d|spm=%d|alloc=%s|placement=%t|prog=",
		r.Workload, r.Hierarchy.CacheBytes, r.Hierarchy.LineBytes, r.Hierarchy.Assoc,
		r.Hierarchy.SPMBytes, r.Allocator, r.Placement)
	hsh.Write([]byte(r.Program))
	return hex.EncodeToString(hsh.Sum(nil)[:16])
}

// TracePlacement is one row of the optional per-trace placement table.
type TracePlacement struct {
	// Trace is the trace ID.
	Trace int `json:"trace"`
	// Where says which memory serves the trace: spm, lc or cache.
	Where string `json:"where"`
	// Bytes is the trace's raw size.
	Bytes int `json:"bytes"`
	// Fetches and Misses are the trace's simulated fetch and I-cache
	// miss counts under the chosen allocation.
	Fetches int64 `json:"fetches"`
	Misses  int64 `json:"misses"`
}

// Response is the JSON body of a successful allocation.
type Response struct {
	// Workload is the program name (the bundled name, or the custom
	// program's own).
	Workload string `json:"workload"`
	// Allocator is the technique that produced the allocation.
	Allocator string `json:"allocator"`
	// Key is the canonical request hash (cache/singleflight identity).
	Key string `json:"key"`
	// Tier reports the admission tier the solve ran under: exact,
	// bounded or greedy.
	Tier string `json:"tier"`

	// EnergyMicroJ is the allocated hierarchy's instruction-memory
	// energy; BaselineMicroJ is the cache-only reference, and
	// EnergySavingPct the relative improvement.
	EnergyMicroJ    float64 `json:"energy_uj"`
	BaselineMicroJ  float64 `json:"baseline_uj"`
	EnergySavingPct float64 `json:"energy_saving_pct"`
	// Cycles is the total fetch latency; Fetches and CacheMisses
	// summarize the simulated run.
	Cycles      int64 `json:"cycles"`
	Fetches     int64 `json:"fetches"`
	CacheMisses int64 `json:"cache_misses"`
	// PlacedTraces and UsedBytes describe the allocation.
	PlacedTraces int `json:"placed_traces"`
	UsedBytes    int `json:"used_bytes"`
	SPMBytes     int `json:"spm_bytes"`
	// SolverNodes reports ILP effort (casa only).
	SolverNodes int `json:"solver_nodes,omitempty"`

	// Degraded marks a result that is not a proven optimum: the anytime
	// solver hit its tier budget, or admission shed the solve to the
	// greedy allocator. DegradedReason says why; Gap is the relative
	// optimality gap when known; Fallback marks a greedy selection.
	Degraded       bool    `json:"degraded,omitempty"`
	DegradedReason string  `json:"degraded_reason,omitempty"`
	Gap            float64 `json:"gap,omitempty"`
	Fallback       bool    `json:"fallback,omitempty"`

	// Placement is the optional per-trace table (Request.Placement).
	Placement []TracePlacement `json:"placement,omitempty"`

	// Cached and Coalesced describe how this delivery was served: from
	// the result cache, or by joining another client's in-flight solve.
	// ElapsedMS is the server-side handling time of this delivery.
	Cached    bool    `json:"cached"`
	Coalesced bool    `json:"coalesced"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// ErrorResponse is the JSON body of a non-200 response.
type ErrorResponse struct {
	Error string `json:"error"`
}
