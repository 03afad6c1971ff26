package sim

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/ir"
	"repro/internal/workload"
)

// recordBuffered records p through a recorder and returns the trace
// together with the recorder, whose code buffer finish leaves in place.
func recordBuffered(t *testing.T, p *ir.Program) (*Trace, *recorder) {
	t.Helper()
	r := newRecorder(p)
	if err := newExec(p, nil).run(r.push); err != nil {
		t.Fatal(err)
	}
	return r.finish(), r
}

// bufferBoundaries returns the index of the first step of every buffer
// chunk but the first: the steps at which the recording crossed from
// one chunk into the next.
func bufferBoundaries(r *recorder) []int {
	var starts []int
	n := 0
	for i, c := range r.full {
		if i > 0 {
			starts = append(starts, n)
		}
		for k := 0; k < len(c); k++ {
			if c[k] < 0 {
				k++ // a repeat step's count
			}
			n++
		}
	}
	return starts
}

// TestTraceChunkLayout: on a recording long enough to reach the chunk
// cap, the recorder's code buffer doubles from 64 codes up to
// maxChunkCodes, every chunk but the last is full or one short (when a
// repeat step's two codes did not fit), and the buffer holds NumSteps
// steps. The trace itself keeps no slack: every stored slice is exactly
// as long as its capacity.
func TestTraceChunkLayout(t *testing.T) {
	for _, name := range []string{"g721", "mpeg"} {
		t.Run(name, func(t *testing.T) {
			p, err := workload.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			tr, r := recordBuffered(t, p)
			atCap := 0
			for i, c := range r.full {
				if want := min(64<<i, maxChunkCodes); cap(c) != want {
					t.Fatalf("chunk %d holds %d codes, want %d", i, cap(c), want)
				}
				if len(c) == 0 || (i < len(r.full)-1 && len(c) < cap(c)-1) {
					t.Fatalf("chunk %d of %d has %d of %d codes", i, len(r.full), len(c), cap(c))
				}
				if cap(c) == maxChunkCodes {
					atCap++
				}
			}
			if atCap < 2 {
				t.Fatalf("only %d chunks at the cap; the fixture no longer exercises it", atCap)
			}
			if b := bufferBoundaries(r); len(b) != len(r.full)-1 {
				t.Fatalf("%d boundaries for %d chunks", len(b), len(r.full))
			}
			steps := 0
			tr.EachStep(func(Step) { steps++ })
			if steps != tr.NumSteps() {
				t.Errorf("EachStep yields %d steps, NumSteps %d", steps, tr.NumSteps())
			}
			if cap(tr.entries) != len(tr.entries) || cap(tr.values) != len(tr.values) ||
				cap(tr.runVals) != len(tr.runVals) || cap(tr.runOff) != len(tr.runOff) {
				t.Errorf("stored slices carry slack: entries %d/%d, values %d/%d, runs %d/%d, offsets %d/%d",
					len(tr.entries), cap(tr.entries), len(tr.values), cap(tr.values),
					len(tr.runVals), cap(tr.runVals), len(tr.runOff), cap(tr.runOff))
			}
		})
	}
}

// TestRecorderMergesRepeatAcrossChunkBoundary: an ownerless repeat of
// the pending step's block merges into it before anything is buffered,
// even when the buffer's current chunk is one code short of full, and
// the merged repeat step's two codes then start the next chunk whole.
func TestRecorderMergesRepeatAcrossChunkBoundary(t *testing.T) {
	p := loopProgram(t, 3)
	entry, body := ir.BlockRef{Func: 0, Block: 0}, ir.BlockRef{Func: 0, Block: 1}
	r := newRecorder(p)
	for i := 0; i < 63; i++ {
		r.push(entry, 2, entry, true)
	}
	r.push(body, 5, ir.BlockRef{}, false)
	r.push(body, 5, ir.BlockRef{}, false) // merges into the pending step
	r.push(body, 5, body, true)           // commits the repeat: 2 codes, 1 slot left
	tr := r.finish()
	if len(r.full) != 2 || len(r.full[0]) != 63 || len(r.full[1]) != 3 {
		t.Fatalf("%d chunks; want 2, of 63 and 3 codes", len(r.full))
	}
	var got []Step
	tr.EachStep(func(s Step) { got = append(got, s) })
	want := make([]Step, 63, 65)
	for i := range want {
		want[i] = Step{Block: 0, Link: 0}
	}
	want = append(want, Step{Block: 1, Link: -2}, Step{Block: 1, Link: 1})
	if !slices.Equal(got, want) {
		t.Fatalf("steps %v, want %v", got[60:], want[60:])
	}
	if tr.Executions() != 66 || tr.Blocks()[1].Execs != 3 {
		t.Errorf("executions %d, body execs %d; want 66 and 3", tr.Executions(), tr.Blocks()[1].Execs)
	}
	if n := len(tr.Entries()); n != 63+2 {
		t.Errorf("%d entries, want 65: 63 one-step runs, the repeat and the final run", n)
	}
}

// TestRecorderCutsTheLastRunShort: a recording that ends inside a run
// stores that last run as its own, shorter dictionary entry, and a
// recording that ends inside a cycle of single successors stops its run
// at the end of the trace.
func TestRecorderCutsTheLastRunShort(t *testing.T) {
	p := loopProgram(t, 3)
	refs := []ir.BlockRef{{Func: 0, Block: 0}, {Func: 0, Block: 1}, {Func: 0, Block: 2}}
	// Steps by name: A and B fall exits, C ownerless, D a fall exit.
	// A is always followed by B, C and D by A; B by C or D.
	a, b, c, d := Step{0, 0}, Step{1, 1}, Step{2, -1}, Step{2, 2}
	for _, tc := range []struct {
		name  string
		steps []Step
		runs  [][]Step
	}{
		{"short", []Step{a, b, d, a, b, c, a, b, d, a},
			[][]Step{{a, b}, {d, a, b}, {c, a, b}, {d, a}}},
		{"cycle", []Step{a, b, a, b, a}, [][]Step{{a, b, a, b, a}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRecorder(p)
			for _, s := range tc.steps {
				owner := ir.BlockRef{}
				if s.Link >= 0 {
					owner = refs[s.Link]
				}
				r.push(refs[s.Block], 1, owner, s.Link >= 0)
			}
			tr := r.finish()
			var got []Step
			tr.EachStep(func(s Step) { got = append(got, s) })
			if !slices.Equal(got, tc.steps) {
				t.Fatalf("steps %v, want %v", got, tc.steps)
			}
			var runs [][]Step
			for _, e := range tr.Entries() {
				var run []Step
				for _, v := range tr.Run(int(e.ID)) {
					run = append(run, tr.Values()[v])
				}
				runs = append(runs, run)
			}
			if fmt.Sprint(runs) != fmt.Sprint(tc.runs) || tr.NumRuns() != len(tc.runs) {
				t.Errorf("entries %v over %d runs, want %v", runs, tr.NumRuns(), tc.runs)
			}
		})
	}
}

// TestRecordTraceAllocation: recording keeps one transient buffer of
// 4-byte codes and stores runs, not steps. Everything RecordTrace
// allocates for g721 — code buffer, entries, dictionary, block table,
// slot tables and the interpreter's state — stays within 8 bytes per
// recorded step (storing every step at 8 bytes took 8.3).
func TestRecordTraceAllocation(t *testing.T) {
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
	perStep := float64(alloc) / float64(tr.NumSteps())
	t.Logf("RecordTrace(g721): %d B allocated for %d steps (%.2f B/step), a %d B trace",
		alloc, tr.NumSteps(), perStep, tr.SizeBytes())
	if perStep > 8 {
		t.Errorf("recording allocated %.2f B per step, want at most 8", perStep)
	}
}

// perStepRecording records p independently of the recorder: one Step
// per interpreter step, blocks indexed in first-execution order, and an
// ownerless step merged into the previous one when both name the same
// block and no jump follows the previous one.
func perStepRecording(t *testing.T, p *ir.Program) []Step {
	t.Helper()
	index := map[ir.BlockRef]int32{}
	idx := func(ref ir.BlockRef) int32 {
		i, ok := index[ref]
		if !ok {
			i = int32(len(index))
			index[ref] = i
		}
		return i
	}
	var steps []Step
	err := newExec(p, nil).run(func(ref ir.BlockRef, _ int, owner ir.BlockRef, hasOwner bool) {
		b := idx(ref)
		if hasOwner {
			steps = append(steps, Step{Block: b, Link: idx(owner)})
			return
		}
		if n := len(steps) - 1; n >= 0 && steps[n].Block == b && steps[n].Link < 0 {
			steps[n].Link--
			return
		}
		steps = append(steps, Step{Block: b, Link: -1})
	})
	if err != nil {
		t.Fatal(err)
	}
	return steps
}

// checkRunForm checks tr, a recording of p, against an independent
// per-step recording: its expansion is exactly that step sequence, and
// every entry is cut where the run rule says. A run holds non-repeat
// steps only; each step but its last has exactly one distinct successor
// across the recording, a non-repeat step; its last step has two or
// more successors, is followed by a repeat step, or ends the trace.
// Repeat entries repeat at least twice, and the dictionary holds each
// distinct run once. It returns how many run entries span the
// recorder's buffer boundaries.
func checkRunForm(t *testing.T, p *ir.Program, tr *Trace, boundaries []int) (spanning int) {
	t.Helper()
	want := perStepRecording(t, p)
	var got []Step
	tr.EachStep(func(s Step) { got = append(got, s) })
	if len(got) != len(want) || tr.NumSteps() != len(want) {
		t.Fatalf("expansion has %d steps (NumSteps %d), per-step recording %d", len(got), tr.NumSteps(), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: expansion %+v, per-step recording %+v", i, got[i], want[i])
		}
	}

	succ := map[Step]map[Step]bool{}
	for i := 0; i+1 < len(want); i++ {
		if want[i].Link >= -1 {
			if succ[want[i]] == nil {
				succ[want[i]] = map[Step]bool{}
			}
			succ[want[i]][want[i+1]] = true
		}
	}
	continues := func(s Step) bool {
		if len(succ[s]) != 1 {
			return false
		}
		for n := range succ[s] {
			return n.Link >= -1
		}
		return false
	}

	seen := map[string]bool{}
	pos := 0
	for k, e := range tr.Entries() {
		if e.Repeat != 0 {
			if e.Repeat < 2 || want[pos] != (Step{Block: e.ID, Link: -e.Repeat}) {
				t.Fatalf("entry %d (step %d): repeat entry %+v for step %+v", k, pos, e, want[pos])
			}
			pos++
			continue
		}
		run := tr.Run(int(e.ID))
		if len(run) == 0 {
			t.Fatalf("entry %d: run %d is empty", k, e.ID)
		}
		for j := range run {
			s := tr.Values()[run[j]]
			if s.Link < -1 {
				t.Fatalf("entry %d: run %d holds repeat step %+v", k, e.ID, s)
			}
			at := pos + j
			last := j == len(run)-1
			end := at == len(want)-1
			if !last && (end || !continues(s)) {
				t.Fatalf("entry %d: run %d continues past step %d (%+v) with successors %v",
					k, e.ID, at, s, succ[s])
			}
			if last && !end && continues(s) {
				t.Fatalf("entry %d: run %d ends at step %d (%+v), whose one successor %v continues it",
					k, e.ID, at, s, succ[s])
			}
		}
		seen[fmt.Sprint(run)] = true
		for _, b := range boundaries {
			if pos < b && b < pos+len(run) {
				spanning++
				break
			}
		}
		pos += len(run)
	}
	if pos != len(want) {
		t.Fatalf("entries cover %d of %d steps", pos, len(want))
	}
	dict := map[string]bool{}
	for i := 0; i < tr.NumRuns(); i++ {
		dict[fmt.Sprint(tr.Run(i))] = true
	}
	if len(seen) != tr.NumRuns() || len(dict) != tr.NumRuns() {
		t.Errorf("entries use %d distinct runs; the dictionary holds %d, %d of them distinct",
			len(seen), tr.NumRuns(), len(dict))
	}
	return spanning
}

// TestRunFormMatchesPerStepRecording: on every bundled workload and a
// batch of random programs the run form expands to exactly the steps an
// independent per-step recording gives, every run is cut where the run
// rule says, and on the bundled workloads runs cross the recorder's
// buffer boundaries.
func TestRunFormMatchesPerStepRecording(t *testing.T) {
	for _, name := range []string{"adpcm", "g721", "mpeg"} {
		t.Run(name, func(t *testing.T) {
			p, err := workload.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			tr, r := recordBuffered(t, p)
			b := bufferBoundaries(r)
			n := checkRunForm(t, p, tr, b)
			t.Logf("%d steps, %d entries, %d runs; %d of %d buffer boundaries fall inside a run",
				tr.NumSteps(), len(tr.Entries()), tr.NumRuns(), n, len(b))
			if n == 0 {
				t.Errorf("no run spans any of the %d buffer boundaries", len(b))
			}
		})
	}
	for seed := uint64(1); seed <= 20; seed++ {
		p, err := workload.Random(workload.RandomSpec{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("random-%d", seed), func(t *testing.T) {
			tr, r := recordBuffered(t, p)
			checkRunForm(t, p, tr, bufferBoundaries(r))
		})
	}
}
