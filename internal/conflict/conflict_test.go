package conflict

import (
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func sample() *Graph {
	g := New([]int64{100, 200, 300, 50})
	g.AddMisses(0, 1, 10)
	g.AddMisses(1, 0, 12)
	g.AddMisses(0, 2, 5)
	g.AddMisses(2, 2, 7) // self conflict
	return g
}

func TestBasicAccessors(t *testing.T) {
	g := sample()
	if g.N() != 4 {
		t.Errorf("N = %d", g.N())
	}
	if g.Fetches(2) != 300 {
		t.Errorf("Fetches(2) = %d", g.Fetches(2))
	}
	if g.Misses(0, 1) != 10 || g.Misses(1, 0) != 12 || g.Misses(3, 0) != 0 {
		t.Error("Misses lookup wrong")
	}
	if g.NumEdges() != 4 {
		t.Errorf("NumEdges = %d, want 4", g.NumEdges())
	}
	if g.TotalConflictMisses() != 34 {
		t.Errorf("TotalConflictMisses = %d, want 34", g.TotalConflictMisses())
	}
}

func TestAccumulation(t *testing.T) {
	g := New([]int64{1, 1})
	g.AddMisses(0, 1, 3)
	g.AddMisses(0, 1, 4)
	if g.Misses(0, 1) != 7 {
		t.Errorf("accumulated = %d, want 7", g.Misses(0, 1))
	}
	g.AddMisses(0, 1, 0) // no-op
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestOutOfRangeErrors(t *testing.T) {
	g := New([]int64{1})
	for _, c := range [][2]int{{-1, 0}, {0, -1}, {1, 0}, {0, 1}} {
		if err := g.AddMisses(c[0], c[1], 1); err == nil {
			t.Errorf("AddMisses(%v) accepted out-of-range vertices", c)
		}
	}
	if g.NumEdges() != 0 {
		t.Errorf("rejected edges were applied: %d edges", g.NumEdges())
	}
}

func TestAggregates(t *testing.T) {
	g := sample()
	if got := g.ConflictMissesOf(0); got != 15 {
		t.Errorf("ConflictMissesOf(0) = %d, want 15", got)
	}
	if got := causedBy(g, 2); got != 12 { // 5 on vertex 0 + 7 on itself
		t.Errorf("misses caused by 2 = %d, want 12", got)
	}
	if got := g.ConflictMissesOf(3); got != 0 {
		t.Errorf("ConflictMissesOf(3) = %d, want 0", got)
	}
}

func TestEdgesSorted(t *testing.T) {
	g := sample()
	edges := g.Edges()
	for i := 1; i < len(edges); i++ {
		a, b := edges[i-1], edges[i]
		if a.From > b.From || (a.From == b.From && a.To >= b.To) {
			t.Fatalf("edges not sorted: %v", edges)
		}
	}
}

// causedBy sums m_ij over victims i: the misses vertex j inflicts.
func causedBy(g *Graph, j int) int64 {
	var sum int64
	for _, e := range g.Edges() {
		if e.To == j {
			sum += e.Misses
		}
	}
	return sum
}

func TestOutEdges(t *testing.T) {
	g := sample()
	out := g.OutEdges(0)
	if len(out) != 2 || out[0] != (Edge{0, 1, 10}) || out[1] != (Edge{0, 2, 5}) {
		t.Errorf("OutEdges(0) = %v", out)
	}
	if len(g.OutEdges(3)) != 0 {
		t.Error("vertex 3 has no out edges")
	}
	// A read indexes the graph; a later AddMisses must show in the next
	// read.
	g.AddMisses(3, 0, 4)
	g.AddMisses(0, 1, 1)
	if out := g.OutEdges(3); len(out) != 1 || out[0] != (Edge{3, 0, 4}) {
		t.Errorf("OutEdges(3) after AddMisses = %v", out)
	}
	if got := g.ConflictMissesOf(0); got != 16 {
		t.Errorf("ConflictMissesOf(0) after AddMisses = %d, want 16", got)
	}
}

// TestOutEdgesMatchEdgesConcurrent: on random graphs, OutEdges(i) is
// exactly the run of Edges() leaving i, for every vertex, while several
// goroutines read the same fresh graph at once (run under -race).
func TestOutEdgesMatchEdgesConcurrent(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.IntN(12)
		g := New(make([]int64, n))
		for k := rng.IntN(3 * n * n); k > 0; k-- {
			g.AddMisses(rng.IntN(n), rng.IntN(n), int64(rng.IntN(1000)))
		}
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				edges := g.Edges()
				for i := 0; i < n; i++ {
					var want []Edge
					for _, e := range edges {
						if e.From == i {
							want = append(want, e)
						}
					}
					if got := g.OutEdges(i); !slices.Equal(got, want) {
						t.Errorf("trial %d: OutEdges(%d) = %v, want %v", trial, i, got, want)
					}
				}
			}()
		}
		wg.Wait()
	}
}

func TestWriteDOT(t *testing.T) {
	g := sample()
	var sb strings.Builder
	if err := g.WriteDOT(&sb, []string{"a", "b", "c", "d"}); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	s := sb.String()
	for _, want := range []string{"digraph conflict", "a\\nf=100", "n0 -> n1", "label=\"12\"", "}"} {
		if !strings.Contains(s, want) {
			t.Errorf("DOT missing %q:\n%s", want, s)
		}
	}
	// Default labels without names.
	sb.Reset()
	if err := g.WriteDOT(&sb, nil); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	if !strings.Contains(sb.String(), "x0\\nf=100") {
		t.Error("default label missing")
	}
}

// Property: the sum over vertices of ConflictMissesOf equals the sum of
// the misses each vertex causes and the total.
func TestConservationProperty(t *testing.T) {
	f := func(weights []uint16) bool {
		const n = 6
		g := New(make([]int64, n))
		for i, w := range weights {
			g.AddMisses(i%n, (i/n)%n, int64(w))
		}
		var byVictim, byEvictor int64
		for i := 0; i < n; i++ {
			byVictim += g.ConflictMissesOf(i)
			byEvictor += causedBy(g, i)
		}
		total := g.TotalConflictMisses()
		return byVictim == total && byEvictor == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteHeatmap(t *testing.T) {
	g := sample()
	var buf strings.Builder
	if err := g.WriteHeatmap(&buf, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Vertex 3 has no edges and must not appear; the header states the
	// full geometry and the shown/participating counts.
	if !strings.Contains(out, "4 vertices, 4 edges, 34 total misses (showing 3 of 3 conflicting vertices)") {
		t.Errorf("heatmap header wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // header + column header + 3 rows
		t.Fatalf("heatmap has %d lines, want 5:\n%s", len(lines), out)
	}
	// Row for victim 0: m_01=10 → '1', m_02=5 → '.', m_00=0 → ' '.
	row0 := lines[2]
	if !strings.HasPrefix(row0, "x0") || !strings.Contains(row0, "15 ") {
		t.Errorf("row 0 missing vertex id or miss total: %q", row0)
	}
	cells := row0[len(row0)-6:] // three " %c" cells
	if cells != "   1 ." {
		t.Errorf("row 0 cells = %q, want %q", cells, "   1 .")
	}

	// Truncation to the heaviest vertices is stated, not silent:
	// involvement is 0:27, 1:22, 2:19, so maxDim=2 keeps {0,1}.
	buf.Reset()
	if err := g.WriteHeatmap(&buf, 2); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	if !strings.Contains(out, "(showing 2 of 3 conflicting vertices)") {
		t.Errorf("truncated heatmap header wrong:\n%s", out)
	}
	if strings.Contains(out, "x2") {
		t.Errorf("truncated heatmap still shows the lightest vertex:\n%s", out)
	}
}

func TestHeatChar(t *testing.T) {
	cases := []struct {
		n    int64
		want byte
	}{{0, ' '}, {-3, ' '}, {1, '.'}, {9, '.'}, {10, '1'}, {99, '1'},
		{100, '2'}, {1e6, '6'}, {1e12, '9'}}
	for _, c := range cases {
		if got := heatChar(c.n); got != c.want {
			t.Errorf("heatChar(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}
