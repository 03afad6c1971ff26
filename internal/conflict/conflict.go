// Package conflict represents the cache behavior of a program at memory-
// object granularity as the paper's conflict graph (§3.3).
//
// The conflict graph G = (X, E) is a directed weighted graph with one
// vertex per memory object (trace). Vertex weight f_i is the total number
// of instruction fetches within object x_i. A directed edge e_ij with
// weight m_ij records that x_i suffered m_ij cache misses caused by x_j
// (x_j's lines replaced x_i's). The graph is built from the attribution
// counts the memory-hierarchy simulator collects during the profiling run
// and is the sole input — besides sizes and energies — of the CASA ILP.
//
// Self-edges (i == j) are retained: an object larger than the cache's
// per-set reach can evict its own lines; placing it in the scratchpad
// removes those misses exactly like any other conflict.
package conflict

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
)

// Edge is a directed conflict edge: From (x_i) missed Misses times because
// To (x_j) replaced its lines.
type Edge struct {
	From, To int
	Misses   int64
}

// Graph is the conflict graph. Construct with New and AddMisses. Once
// built, a graph is safe for concurrent readers; AddMisses must not run
// concurrently with anything else.
type Graph struct {
	fetches []int64
	weights map[[2]int]int64

	// idx is the edge index, built under mu by the first read after the
	// last AddMisses, which drops it.
	mu  sync.Mutex
	idx *edgeIndex
}

// edgeIndex lists a graph's edges sorted by (From, To), grouped by
// vertex: the edges leaving vertex i are edges[start[i]:start[i+1]].
type edgeIndex struct {
	edges []Edge
	start []int
}

// New creates a graph over n memory objects with the given per-object
// fetch counts f_i (a copy is taken).
func New(fetches []int64) *Graph {
	return &Graph{
		fetches: append([]int64(nil), fetches...),
		weights: make(map[[2]int]int64),
	}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.fetches) }

// Fetches returns f_i for vertex i.
func (g *Graph) Fetches(i int) int64 { return g.fetches[i] }

// AddMisses accumulates n conflict misses of victim caused by evictor.
// Out-of-range vertices are reported as an error rather than applied.
func (g *Graph) AddMisses(victim, evictor int, n int64) error {
	if victim < 0 || victim >= len(g.fetches) || evictor < 0 || evictor >= len(g.fetches) {
		return fmt.Errorf("conflict: vertex out of range: (%d,%d) with n=%d vertices",
			victim, evictor, len(g.fetches))
	}
	if n == 0 {
		return nil
	}
	g.weights[[2]int{victim, evictor}] += n
	g.idx = nil
	return nil
}

// index returns the edge index, building it once per finished graph.
func (g *Graph) index() *edgeIndex {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.idx != nil {
		return g.idx
	}
	x := &edgeIndex{
		edges: make([]Edge, 0, len(g.weights)),
		start: make([]int, len(g.fetches)+1),
	}
	for k, v := range g.weights {
		x.edges = append(x.edges, Edge{From: k[0], To: k[1], Misses: v})
		x.start[k[0]+1]++
	}
	sort.Slice(x.edges, func(a, b int) bool {
		if x.edges[a].From != x.edges[b].From {
			return x.edges[a].From < x.edges[b].From
		}
		return x.edges[a].To < x.edges[b].To
	})
	for i := range g.fetches {
		x.start[i+1] += x.start[i]
	}
	g.idx = x
	return x
}

// Misses returns m_ij, the misses of victim caused by evictor.
func (g *Graph) Misses(victim, evictor int) int64 {
	return g.weights[[2]int{victim, evictor}]
}

// ConflictMissesOf returns Miss(x_i) = Σ_j m_ij, the total conflict misses
// of vertex i.
func (g *Graph) ConflictMissesOf(i int) int64 {
	var sum int64
	for _, e := range g.OutEdges(i) {
		sum += e.Misses
	}
	return sum
}

// TotalConflictMisses sums every edge weight.
func (g *Graph) TotalConflictMisses() int64 {
	var sum int64
	for _, v := range g.weights {
		sum += v
	}
	return sum
}

// NumEdges returns the number of directed edges with nonzero weight.
func (g *Graph) NumEdges() int { return len(g.weights) }

// Edges returns all edges sorted by (From, To) — a deterministic order for
// ILP construction and reporting. The slice is the caller's own.
func (g *Graph) Edges() []Edge { return slices.Clone(g.index().edges) }

// OutEdges returns the edges leaving vertex i (its misses, attributed),
// sorted by To: the run of Edges() whose From is i. The slice is the
// graph's own and must not be modified.
func (g *Graph) OutEdges(i int) []Edge {
	x := g.index()
	return x.edges[x.start[i]:x.start[i+1]:x.start[i+1]]
}

// WriteHeatmap renders the conflict matrix m_ij as a text heatmap:
// one row per victim, one column per evictor, each cell a single
// intensity character on a log10 scale (".": 1-9 misses, "1": 10-99,
// "2": 100-999, ... ; space: none). Only vertices participating in at
// least one edge appear; if more than maxDim participate, the heaviest
// (by misses suffered + inflicted) are kept and the truncation is
// reported in the header rather than applied silently. maxDim <= 0
// means no limit. The output is the introspection companion of
// WriteDOT: small enough to eyeball, faithful enough to spot the
// thrashing pairs the CASA ILP exists to break.
func (g *Graph) WriteHeatmap(w io.Writer, maxDim int) error {
	// Collect participating vertices and their total involvement.
	involved := map[int]int64{}
	for k, v := range g.weights {
		involved[k[0]] += v
		involved[k[1]] += v
	}
	verts := make([]int, 0, len(involved))
	for i := range involved {
		verts = append(verts, i)
	}
	sort.Ints(verts)
	shown := len(verts)
	if maxDim > 0 && shown > maxDim {
		sort.Slice(verts, func(a, b int) bool {
			if involved[verts[a]] != involved[verts[b]] {
				return involved[verts[a]] > involved[verts[b]]
			}
			return verts[a] < verts[b]
		})
		verts = verts[:maxDim]
		sort.Ints(verts)
	}
	if _, err := fmt.Fprintf(w, "conflict heatmap: %d vertices, %d edges, %d total misses (showing %d of %d conflicting vertices)\n",
		g.N(), g.NumEdges(), g.TotalConflictMisses(), len(verts), shown); err != nil {
		return err
	}
	if len(verts) == 0 {
		return nil
	}
	// Column header: evictor indices, vertical-ish (last two digits).
	if _, err := fmt.Fprintf(w, "%16s ", "victim\\evictor"); err != nil {
		return err
	}
	for _, j := range verts {
		if _, err := fmt.Fprintf(w, "%2d", j%100); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, i := range verts {
		if _, err := fmt.Fprintf(w, "x%-4d %9d ", i, g.ConflictMissesOf(i)); err != nil {
			return err
		}
		for _, j := range verts {
			if _, err := fmt.Fprintf(w, " %c", heatChar(g.Misses(i, j))); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// heatChar maps a miss count to its log10 intensity character.
func heatChar(n int64) byte {
	switch {
	case n <= 0:
		return ' '
	case n < 10:
		return '.'
	default:
		d := byte('0')
		for n >= 10 && d < '9' {
			n /= 10
			d++
		}
		return d
	}
}

// WriteDOT renders the graph in Graphviz DOT form, with vertex fetch
// counts and edge miss weights, for visual inspection.
func (g *Graph) WriteDOT(w io.Writer, names []string) error {
	if _, err := fmt.Fprintln(w, "digraph conflict {"); err != nil {
		return err
	}
	for i := range g.fetches {
		label := fmt.Sprintf("x%d", i)
		if names != nil && i < len(names) {
			label = names[i]
		}
		if _, err := fmt.Fprintf(w, "  n%d [label=\"%s\\nf=%d\"];\n", i, label, g.fetches[i]); err != nil {
			return err
		}
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(w, "  n%d -> n%d [label=\"%d\"];\n", e.From, e.To, e.Misses); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
