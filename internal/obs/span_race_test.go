package obs_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// TestSpanNestingAcrossWorkers drives the real worker pool with many
// concurrent cells, each opening a per-cell span with nested children,
// and verifies that no span leaks into another cell's subtree: spans
// from concurrent cells must attach to their own parents only. Run
// with -race this is the data-race check of the tracer.
func TestSpanNestingAcrossWorkers(t *testing.T) {
	const (
		cells   = 256
		workers = 16
		stages  = 3
	)
	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)

	_, err := parallel.MapAll(ctx, cells, workers, func(ctx context.Context, i int) (struct{}, error) {
		ctx, cell := obs.StartSpan(ctx, fmt.Sprintf("cell-%d", i))
		defer cell.End()
		for s := 0; s < stages; s++ {
			sctx, sp := obs.StartSpan(ctx, fmt.Sprintf("stage-%d-%d", i, s))
			// A grandchild, to exercise deeper nesting concurrently.
			_, g := obs.StartSpan(sctx, fmt.Sprintf("inner-%d-%d", i, s))
			g.End()
			sp.End()
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	roots := tr.Roots()
	if len(roots) != cells {
		t.Fatalf("got %d cell roots, want %d", len(roots), cells)
	}
	seen := map[string]bool{}
	for _, root := range roots {
		var id int
		if _, err := fmt.Sscanf(root.Name, "cell-%d", &id); err != nil {
			t.Fatalf("unexpected root span %q", root.Name)
		}
		if seen[root.Name] {
			t.Fatalf("cell %d appears twice as a root", id)
		}
		seen[root.Name] = true
		if len(root.Children) != stages {
			t.Fatalf("cell %d has %d children, want %d", id, len(root.Children), stages)
		}
		for s, child := range root.Children {
			want := fmt.Sprintf("stage-%d-%d", id, s)
			if child.Name != want {
				t.Fatalf("cell %d child %d is %q, want %q — span interleaved into the wrong parent",
					id, s, child.Name, want)
			}
			if len(child.Children) != 1 || child.Children[0].Name != fmt.Sprintf("inner-%d-%d", id, s) {
				t.Fatalf("cell %d stage %d grandchild wrong: %+v", id, s, child.Children)
			}
		}
	}
}
