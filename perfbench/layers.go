package main

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/obs"
)

// layerOf maps a span name to the per-layer time metric its self time
// counts toward. Names starting with "bench." are spans this benchmark
// records around its own calls; the rest are the spans experiments, core
// and server already emit.
var layerOf = map[string]string{
	"bench.profile":   "sim.profile_ms",
	"profile":         "sim.profile_ms",
	"bench.record":    "sim.record_ms",
	"baseline-sim":    "memsim.baseline_ms",
	"simulate":        "memsim.simulate_ms",
	"trace-partition": "trace.partition_ms",
	"layout":          "layout.ms",
	"spm-layout":      "layout.ms",
	"conflict-graph":  "conflict.build_ms",
	"ilp-build":       "core.build_ms",
	"ilp-solve":       "ilp.solve_ms",
	"greedy-allocate": "ilp.solve_ms",
	"prepare":         "experiments.prepare_ms",
	"energy-model":    "experiments.prepare_ms",

	"bench.grid":          "experiments.self_ms",
	"bench.study":         "experiments.self_ms",
	"cell":                "experiments.self_ms",
	"allocate":            "experiments.self_ms",
	"degraded-allocation": "experiments.self_ms",

	"request":         "server.request_self_ms",
	"result-cache":    "server.request_self_ms",
	"singleflight":    "server.request_self_ms",
	"serve":           "server.request_self_ms",
	"admission":       "server.admission_ms",
	"resolve-program": "server.resolve_program_ms",
}

// layerDef describes one per-layer metric: its unit and what it is
// measured against.
type layerDef struct{ name, unit, base string }

// layerDefs lists every per-layer metric in report order. Times are self
// times and counts are totals, both per operation (one grid or one
// request); every ratio names its base.
var layerDefs = []layerDef{
	{"sim.profile_ms", "ms", "per op: profile memo calls (interpreter run when cold)"},
	{"sim.record_ms", "ms", "per op: timed sim.CachedTrace before each grid (0 on serve-mix: recording runs inside baseline-sim)"},
	{"sim.replays", "count", "per op: casa_trace_replays_total"},
	{"memsim.baseline_ms", "ms", "per op: conflict-tracking cache-only run"},
	{"memsim.simulate_ms", "ms", "per op: allocated-layout runs"},
	{"memsim.runs", "count", "per op: casa_sim_runs_total"},
	{"memsim.fetches", "count", "per op: sum of Result.Fetches"},
	{"memsim.ns_per_fetch", "ns", "(memsim.baseline_ms + memsim.simulate_ms) / memsim.fetches"},
	{"memsim.bulk_fetch_ratio", "ratio", "bulk fetch deliveries / memsim.fetches"},
	{"memsim.lines_per_fetch", "ratio", "cache-line transitions / memsim.fetches"},
	{"cache.hits", "count", "per op: simulated I-cache hits"},
	{"cache.misses", "count", "per op: simulated I-cache misses"},
	{"cache.evictions", "count", "per op: simulated I-cache evictions"},
	{"memsim.spm_accesses", "count", "per op: simulated scratchpad fetches"},
	{"trace.partition_ms", "ms", "per op: trace formation"},
	{"trace.traces", "count", "per op: traces formed, summed over the op's pipelines"},
	{"layout.ms", "ms", "per op: layout and spm-layout"},
	{"conflict.build_ms", "ms", "per op: conflict-graph build or rebase"},
	{"conflict.edges", "count", "per op: conflict-graph edges"},
	{"conflict.rebase_ratio", "ratio", "rebased graphs / pipelines prepared"},
	{"core.build_ms", "ms", "per op: ILP model build"},
	{"ilp.solve_ms", "ms", "per op: ILP solve (greedy fallback included)"},
	{"ilp.solves", "count", "per op: casa_ilp_solves_total"},
	{"ilp.nodes", "count", "per op: branch-and-bound nodes"},
	{"ilp.simplex_iters", "count", "per op: simplex iterations"},
	{"ilp.iters_per_solve", "count", "ilp.simplex_iters / ilp.solves"},
	{"ilp.pruned_ratio", "ratio", "pruned nodes / ilp.nodes"},
	{"ilp.warm_cell_hit_ratio", "ratio", "warm-cell hits / (hits + misses)"},
	{"ilp.basis_reuse_ratio", "ratio", "basis reuses / ilp.solves"},
	{"ilp.repair_pivots", "count", "per op: basis repair pivots"},
	{"ilp.dense_fallbacks", "count", "per op: dense-simplex fallbacks"},
	{"ilp.degraded", "count", "per op: degraded solves"},
	{"experiments.prepare_ms", "ms", "per op: prepare self time and energy model"},
	{"experiments.self_ms", "ms", "per op: grid wall not covered by a child span (memos, warm planner, Steinke, rows)"},
	{"experiments.cells", "count", "per op: grid cells"},
	{"server.request_self_ms", "ms", "per op: request, result-cache, singleflight and serve self time, follower waits included"},
	{"server.admission_ms", "ms", "per op: admission"},
	{"server.resolve_program_ms", "ms", "per op: program lookup, parse and intern"},
	{"server.result_cache_hit_ratio", "ratio", "result-cache hits / lookups"},
	{"server.singleflight_ratio", "ratio", "coalesced joins / requests"},
	{"server.intern_hit_ratio", "ratio", "intern hits / lookups"},
	{"server.program_evictions", "count", "per op: interned programs evicted"},
	{"server.warm_solve_ratio", "ratio", "warm-started solves / server solves"},
	{"server.tier_exact_ratio", "ratio", "exact-tier solves / server solves"},
	{"client.overhead_ms", "ms", "per request: client latency - response elapsed_ms"},
	{"runtime.alloc_mb_per_op", "MB", "per op, untraced operations"},
	{"runtime.gc_cycles_per_op", "count", "per op, untraced operations"},
	{"runtime.gc_pause_ms", "ms", "per op, untraced operations"},
	{"obs.trace_overhead_pct", "%", "100 * (traced / untraced op time - 1): median grid, mean request"},
}

// spanTally attributes the self time of every span to its layer.
type spanTally struct {
	// fallback receives spans with no entry in layerOf, so no time is
	// ever dropped; unknown records their names for the report.
	fallback string
	unknown  map[string]bool
	selfNS   map[string]int64
	count    map[string]int
	edges    float64
	// wallNS is the summed duration of the root spans: the time the
	// layers must account for.
	wallNS int64
}

func newSpanTally(fallback string) *spanTally {
	return &spanTally{
		fallback: fallback,
		unknown:  map[string]bool{},
		selfNS:   map[string]int64{},
		count:    map[string]int{},
	}
}

func (t *spanTally) add(roots []*obs.Span) {
	for _, r := range roots {
		t.wallNS += r.DurNS
		t.walk(r)
	}
}

func (t *spanTally) walk(s *obs.Span) {
	layer, ok := layerOf[s.Name]
	if !ok {
		layer = t.fallback
		t.unknown[s.Name] = true
	}
	t.selfNS[layer] += s.DurNS - covered(s)
	t.count[s.Name]++
	if s.Name == "conflict-graph" {
		// In-process spans carry an int; spans decoded from JSON a float64.
		switch v := s.Attrs["edges"].(type) {
		case int:
			t.edges += float64(v)
		case float64:
			t.edges += v
		}
	}
	for _, c := range s.Children {
		t.walk(c)
	}
}

// covered returns how much of s's interval its descendants cover: the
// union of their intervals, clipped to s. Descendants count, not only
// children, because a span may be parented under a sibling that ended
// before it started (core.Allocate opens ilp-solve under ilp-build's
// context); each instant then belongs to exactly one span's self time.
func covered(s *obs.Span) int64 {
	lo, hi := s.StartUnixNS, s.StartUnixNS+s.DurNS
	type interval struct{ a, b int64 }
	var ivs []interval
	for _, c := range s.Children {
		c.Walk(func(d *obs.Span) {
			a, b := max(d.StartUnixNS, lo), min(d.StartUnixNS+d.DurNS, hi)
			if b > a {
				ivs = append(ivs, interval{a, b})
			}
		})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, iv := range ivs {
		if iv.a > end {
			end = iv.a
		}
		if iv.b > end {
			total += iv.b - end
			end = iv.b
		}
	}
	return total
}

// checkCoverage verifies that the attributed self times add up to the
// traced wall time, and reports spans that fell back to the catch-all
// layer.
func (t *spanTally) checkCoverage() error {
	var sum int64
	for _, ns := range t.selfNS {
		sum += ns
	}
	fmt.Fprintf(os.Stderr, "perfbench: coverage: layers account for %.3f of %.3f ms traced wall\n",
		float64(sum)/1e6, float64(t.wallNS)/1e6)
	if len(t.unknown) > 0 {
		names := make([]string, 0, len(t.unknown))
		for n := range t.unknown {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: spans without a layer, counted in %s: %s\n",
			t.fallback, strings.Join(names, ", "))
	}
	if d := sum - t.wallNS; d > t.wallNS/1000 || -d > t.wallNS/1000 {
		return fmt.Errorf("layer self times sum to %d ns, traced wall is %d ns", sum, t.wallNS)
	}
	return nil
}

// layerMetrics derives the span- and counter-based per-layer metrics. c
// holds the counter deltas summed over ops operations; traces is the
// number of traces formed over them.
func layerMetrics(t *spanTally, c obs.Snapshot, ops, traces float64) map[string]metric {
	per := func(v float64) float64 { return ratio(v, ops) }
	m := map[string]metric{}
	for _, layer := range layerOf {
		m[layer] = metric{per(float64(t.selfNS[layer]) / 1e6), "ms"}
	}
	count := func(name, counter string) { m[name] = metric{per(c[counter]), "count"} }
	frac := func(name string, num, den float64) { m[name] = metric{ratio(num, den), "ratio"} }

	fetches := c["casa_sim_fetches_total"]
	count("sim.replays", "casa_trace_replays_total")
	count("memsim.runs", "casa_sim_runs_total")
	count("memsim.fetches", "casa_sim_fetches_total")
	simNS := float64(t.selfNS["memsim.baseline_ms"] + t.selfNS["memsim.simulate_ms"])
	m["memsim.ns_per_fetch"] = metric{ratio(simNS, fetches), "ns"}
	frac("memsim.bulk_fetch_ratio", c["casa_sim_bulk_fetches_total"], fetches)
	frac("memsim.lines_per_fetch", c["casa_sim_lines_total"], fetches)

	count("cache.hits", "casa_sim_cache_hits_total")
	count("cache.misses", "casa_sim_cache_misses_total")
	count("cache.evictions", "casa_sim_cache_evictions_total")
	count("memsim.spm_accesses", "casa_sim_spm_accesses_total")

	m["trace.traces"] = metric{per(traces), "count"}
	m["conflict.edges"] = metric{per(t.edges), "count"}
	frac("conflict.rebase_ratio", c["casa_conflict_incremental_total"], float64(t.count["prepare"]))

	solves, nodes, iters := c["casa_ilp_solves_total"], c["casa_ilp_nodes_total"], c["casa_ilp_simplex_iters_total"]
	count("ilp.solves", "casa_ilp_solves_total")
	count("ilp.nodes", "casa_ilp_nodes_total")
	count("ilp.simplex_iters", "casa_ilp_simplex_iters_total")
	m["ilp.iters_per_solve"] = metric{ratio(iters, solves), "count"}
	frac("ilp.pruned_ratio", c["casa_ilp_nodes_pruned_total"], nodes)
	warmHits := c["casa_ilp_warm_cell_hits_total"]
	frac("ilp.warm_cell_hit_ratio", warmHits, warmHits+c["casa_ilp_warm_cell_misses_total"])
	frac("ilp.basis_reuse_ratio", c["casa_ilp_basis_reuse_total"], solves)
	count("ilp.repair_pivots", "casa_ilp_basis_repair_pivots_total")
	count("ilp.dense_fallbacks", "casa_ilp_dense_fallbacks_total")
	count("ilp.degraded", "casa_solve_degraded_total")

	m["experiments.cells"] = metric{per(float64(t.count["cell"])), "count"}

	cacheHits := c["casa_server_cache_hits_total"]
	frac("server.result_cache_hit_ratio", cacheHits, cacheHits+c["casa_server_cache_misses_total"])
	frac("server.singleflight_ratio", c["casa_server_singleflight_hits_total"], c["casa_server_requests_total"])
	internHits := c["casa_server_program_intern_hits_total"]
	frac("server.intern_hit_ratio", internHits, internHits+c["casa_server_program_intern_misses_total"])
	count("server.program_evictions", "casa_server_program_evictions_total")
	serverSolves := c["casa_server_solves_total"]
	frac("server.warm_solve_ratio", c["casa_server_warm_solves_total"], serverSolves)
	frac("server.tier_exact_ratio", c["casa_server_tier_exact_total"], serverSolves)
	return m
}

// addSnapshot adds the counter deltas d into sum.
func addSnapshot(sum, d obs.Snapshot) {
	for k, v := range d {
		sum[k] += v
	}
}

// reportLayers prints the traced-run table, one row per per-layer
// metric with its base, and fails if any metric is missing.
func reportLayers(m map[string]metric) error {
	for _, d := range layerDefs {
		v, ok := m[d.name]
		if !ok || v.Unit != d.unit {
			return fmt.Errorf("per-layer metric %s not measured in %s", d.name, d.unit)
		}
		fmt.Fprintf(os.Stderr, "  %-31s %14.4f %-5s  %s\n", d.name, v.Value, d.unit, d.base)
	}
	return nil
}
