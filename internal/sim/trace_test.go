package sim

import (
	"runtime"
	"testing"

	"repro/internal/ir"
	"repro/internal/workload"
)

// TestTraceChunkLayout: on a recording long enough to reach the chunk
// cap, the chunks double from 64 steps up to maxChunkSteps, every chunk
// but the last is exactly full, none is empty, and NumSteps adds them
// up.
func TestTraceChunkLayout(t *testing.T) {
	for _, name := range []string{"g721", "mpeg"} {
		t.Run(name, func(t *testing.T) {
			p, err := workload.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := RecordTrace(p)
			if err != nil {
				t.Fatal(err)
			}
			chunks := tr.Chunks()
			n, atCap := 0, 0
			for i, c := range chunks {
				if want := min(64<<i, maxChunkSteps); cap(c) != want {
					t.Fatalf("chunk %d holds %d steps, want %d", i, cap(c), want)
				}
				if len(c) == 0 || (i < len(chunks)-1 && len(c) != cap(c)) {
					t.Fatalf("chunk %d of %d has %d of %d steps", i, len(chunks), len(c), cap(c))
				}
				if cap(c) == maxChunkSteps {
					atCap++
				}
				n += len(c)
			}
			if atCap < 2 {
				t.Fatalf("only %d chunks at the cap; the fixture no longer exercises it", atCap)
			}
			if tr.NumSteps() != n {
				t.Errorf("NumSteps %d, chunks hold %d", tr.NumSteps(), n)
			}
		})
	}
}

// TestRecorderMergesRepeatAcrossChunkBoundary: an ownerless repeat of
// the block that just filled a chunk merges into that chunk's last step
// instead of starting a new chunk.
func TestRecorderMergesRepeatAcrossChunkBoundary(t *testing.T) {
	p := loopProgram(t, 3)
	entry, body := ir.BlockRef{Func: 0, Block: 0}, ir.BlockRef{Func: 0, Block: 1}
	r := newRecorder(p)
	for i := 0; i < 63; i++ {
		r.push(entry, 2, entry, true)
	}
	r.push(body, 5, ir.BlockRef{}, false) // fills the first chunk
	r.push(body, 5, ir.BlockRef{}, false) // merges into it
	r.push(body, 5, body, true)           // starts the second chunk
	tr := r.finish()
	chunks := tr.Chunks()
	if len(chunks) != 2 || len(chunks[0]) != 64 || len(chunks[1]) != 1 {
		t.Fatalf("%d chunks, the first of %d steps; want 2, of 64 and 1 steps", len(chunks), len(chunks[0]))
	}
	if last := chunks[0][63]; last.Repeat() != 2 {
		t.Errorf("boundary step repeats %d times, want 2", last.Repeat())
	}
	if tr.Executions() != 66 || tr.Blocks()[1].Execs != 3 {
		t.Errorf("executions %d, body execs %d; want 66 and 3", tr.Executions(), tr.Blocks()[1].Execs)
	}
}

// TestRecordTraceAllocatesOneCopy: recording keeps one copy of the
// steps. Everything RecordTrace allocates for g721 — chunks, block
// table, slot tables and the interpreter's state — stays within 1.25×
// the trace's own size; joining the chunks into one slice would double
// it.
func TestRecordTraceAllocatesOneCopy(t *testing.T) {
	p, err := workload.Load("g721")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := RecordTrace(p)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	ratio := float64(alloc) / float64(tr.SizeBytes())
	t.Logf("RecordTrace(g721): %d B allocated for a %d B trace (%.2f×)", alloc, tr.SizeBytes(), ratio)
	if ratio > 1.25 {
		t.Errorf("recording allocated %.2f× the trace's size, want at most 1.25×", ratio)
	}
}
