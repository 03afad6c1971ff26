// Trace: the compressed, execute-once form of a program run. The
// interpreter walks a workload exactly once and records the dynamic
// block sequence — not individual fetch addresses. Because blocks and
// jump owners are layout-independent, one Trace serves every Layout: the
// memory-hierarchy simulator compiles each executed block under a layout
// once and then walks the recording, instead of re-executing the
// interpreter or storing a per-layout 4-byte-granular address stream
// (the pre-trace design cached ~20MB of raw addresses per (program,
// layout)).
//
// The recording is stack-free: each step names its block, and either
// the block whose appended fall-through jump follows it (its jump owner)
// or how many times it repeats back to back. The interpreter resolves the
// one case that needs the call stack — a return, whose jump belongs to
// the *popped caller*, not the returning block — while recording, so a
// consumer never rebuilds the stack. Expanding the steps under a layout
// reproduces Run's fetch stream exactly: per step, the block's
// instructions (repeat times), then the owner's appended jump, if the
// layout materialized one.
//
// Most of a step sequence is fixed by the step before it: g721 has 173
// distinct non-repeat steps, and 151 of them are followed by the same
// step wherever they occur. The trace therefore stores its steps as a
// sequence of deterministic runs. A run is a maximal sequence of
// non-repeat steps in which every step but the last has exactly one
// distinct successor across the whole recording; it ends at a step with
// two or more successors, before a repeat step, or at the end of the
// trace. Repeat steps stay single entries. A run is then fixed by its
// first step (and, for the trace's last run, its length), so each
// distinct run is stored once in a dictionary, and the trace is a
// sequence of entries naming a run or a repeat step. g721's 475,750
// steps become 175,205 entries, 42,402 of them repeat steps, over a
// dictionary of 51 runs: 1.4 MB. mpeg's 352,581 steps become 112,961
// entries over 108 runs (0.9 MB) and adpcm's 26,057 become 12,043 over
// 21 (0.1 MB).
package sim

import (
	"math"
	"unsafe"

	"repro/internal/ir"
)

// Block is one executed block of a Trace, with the counts a simulator
// needs to account every fetch the layout alone determines.
type Block struct {
	Ref ir.BlockRef
	// Instrs is the block's instruction count.
	Instrs int32
	// Execs counts the block's executions, repeats included.
	Execs int64
	// Jumps counts the steps this block is the jump owner of: how many
	// times its appended fall-through jump is fetched when the layout
	// materializes one.
	Jumps int64
}

// Step is one recorded step. Block indexes Trace.Blocks. Link ≥ 0 is
// the index of the jump owner: its appended jump, if materialized, is
// fetched right after the block (the block itself for a fall exit, the
// popped caller for a return). Link < 0 means no jump follows and the
// block executes −Link times back to back; a repeat above one only ever
// comes from a taken self-loop.
type Step struct {
	Block int32
	Link  int32
}

// Repeat returns how many times the step's block executes back to back.
func (s Step) Repeat() int64 {
	if s.Link >= 0 {
		return 1
	}
	return -int64(s.Link)
}

// Entry is one element of a Trace's entry sequence: a run from the run
// dictionary, or one repeat step.
type Entry struct {
	// ID is the run's index (Repeat == 0) or the repeated block's index.
	ID int32
	// Repeat is 0 for a run; otherwise the block executes Repeat ≥ 2
	// times back to back and no jump follows.
	Repeat int32
}

// Trace is a recording of one program execution: the executed blocks and
// the dynamic step sequence over them. It is layout-independent and
// immutable once recorded, and safe for concurrent use.
type Trace struct {
	// blocks lists every executed block once, in first-execution order.
	blocks []Block
	// values lists the distinct non-repeat steps (Link ≥ −1), indexed by
	// value id.
	values []Step
	// The run dictionary: run i is the value ids
	// runVals[runOff[i]:runOff[i+1]].
	runVals []int32
	runOff  []int32
	// entries is the step sequence as runs and repeat steps; with the
	// dictionary it is the trace's only step storage.
	entries []Entry

	steps   int   // recorded steps
	execs   int64 // total block executions (sum of repeats)
	fetches int64 // total block-instruction fetches (appended jumps excluded)
}

// Successor marks of valInfo.next: a value with no successor yet, and a
// value that ends every run it is in.
const (
	noSucc  = -1
	endsRun = -2
)

// recorder builds a Trace. It assigns dense block indices on first
// execution through a per-function slot table and dense value ids to
// distinct non-repeat steps, and tracks each value's successor. The
// step sequence is buffered as codes — a value id, or −1−block followed
// by the repeat count for a repeat step — in chunks that double up to
// maxChunkCodes; finish cuts the buffer into runs and entries, and the
// buffer is dropped with the recorder.
type recorder struct {
	t    *Trace
	slot [][]int32 // [func][block] → dense index + 1 (0 = not yet seen)

	first []int32   // [block] → id + 1 of the block's newest value (0 = none)
	vals  []valInfo // [value id]

	pend    Step  // the last step, not yet committed: a repeat may merge into it
	hasPend bool  // pend holds a step
	prev    int32 // value id of the last committed step; −1 after a repeat or at the start
	repeats int   // committed repeat steps

	full [][]int32 // filled code chunks, in recording order
	cur  []int32   // the chunk being filled
}

// valInfo is what the recorder tracks of one value.
type valInfo struct {
	step  Step
	chain int32 // the block's previous value, −1 at the end
	next  int32 // its one successor so far, noSucc or endsRun
	occ   int   // occurrences

	// The run that starts with the value and its length, once finish
	// has seen one; run is −1 before.
	run    int32
	runLen int
}

// maxChunkCodes bounds a buffer chunk (128 KiB of codes).
const maxChunkCodes = 1 << 15

func newRecorder(p *ir.Program) *recorder {
	r := &recorder{t: &Trace{}, slot: make([][]int32, len(p.Funcs)), prev: -1}
	for i, f := range p.Funcs {
		r.slot[i] = make([]int32, len(f.Blocks))
	}
	return r
}

// push appends one dynamic step. A step without a jump owner that
// repeats the previous ownerless step's block merges into it.
func (r *recorder) push(ref ir.BlockRef, instrs int, owner ir.BlockRef, hasOwner bool) {
	t := r.t
	t.execs++
	t.fetches += int64(instrs)
	s := &r.slot[ref.Func][ref.Block]
	if *s == 0 {
		t.blocks = append(t.blocks, Block{Ref: ref, Instrs: int32(instrs)})
		r.first = append(r.first, 0)
		*s = int32(len(t.blocks))
	}
	b := *s - 1
	t.blocks[b].Execs++
	step := Step{Block: b, Link: -1}
	if hasOwner {
		// The owner is the block itself or a caller that executed
		// earlier, so it already has an index.
		o := r.slot[owner.Func][owner.Block] - 1
		t.blocks[o].Jumps++
		step.Link = o
	} else if p := &r.pend; r.hasPend && p.Block == b && p.Link < 0 && p.Link > -math.MaxInt32 {
		p.Link--
		return
	}
	if r.hasPend {
		r.commit(r.pend)
	}
	r.pend, r.hasPend = step, true
}

// commit appends a finished step to the buffer and records it as its
// predecessor's successor.
func (r *recorder) commit(s Step) {
	r.t.steps++
	if s.Link < -1 {
		if r.prev >= 0 {
			r.vals[r.prev].next = endsRun
		}
		r.prev = -1
		r.repeats++
		r.add(-1-s.Block, -s.Link)
		return
	}
	v := r.value(s)
	r.vals[v].occ++
	if r.prev >= 0 {
		if p := &r.vals[r.prev]; p.next == noSucc {
			p.next = v
		} else if p.next != v {
			p.next = endsRun
		}
	}
	r.prev = v
	r.add(v)
}

// value returns s's value id, assigning the next one on first sight.
func (r *recorder) value(s Step) int32 {
	for v := r.first[s.Block] - 1; v >= 0; v = r.vals[v].chain {
		if r.vals[v].step.Link == s.Link {
			return v
		}
	}
	v := int32(len(r.vals))
	r.vals = append(r.vals, valInfo{step: s, chain: r.first[s.Block] - 1, next: noSucc})
	r.first[s.Block] = v + 1
	return v
}

// add appends one step's codes, starting a chunk twice the size of the
// last one (up to maxChunkCodes) when they do not fit the current one,
// so a repeat step's two codes never straddle chunks.
func (r *recorder) add(codes ...int32) {
	if cap(r.cur)-len(r.cur) < len(codes) {
		if len(r.cur) > 0 {
			r.full = append(r.full, r.cur)
		}
		r.cur = make([]int32, 0, min(max(2*cap(r.cur), 64), maxChunkCodes))
	}
	r.cur = append(r.cur, codes...)
}

// finish commits the last step, cuts the buffer into entries and runs,
// and returns the trace.
func (r *recorder) finish() *Trace {
	if r.hasPend {
		r.commit(r.pend)
		r.hasPend = false
	}
	if len(r.cur) > 0 {
		r.full = append(r.full, r.cur)
		r.cur = nil
	}
	t := r.t
	t.values = make([]Step, len(r.vals))
	for i := range r.vals {
		t.values[i] = r.vals[i].step
		r.vals[i].run = -1
	}
	t.runOff = []int32{0}
	// Size the entries exactly: the first step starts one, and so does
	// the step after every repeat step and after every occurrence of a
	// value that ends its runs — except after the last step.
	n := 0
	if t.steps > 0 {
		n = 1 + r.repeats
		for _, vi := range r.vals {
			if vi.next < 0 {
				n += vi.occ
			}
		}
		if r.prev < 0 || r.vals[r.prev].next < 0 {
			n--
		}
	}
	t.entries = make([]Entry, 0, n)
	// Walk the buffer one entry at a time: a repeat step, or the run
	// starting at a value, which joins the dictionary on first sight.
	// Every run that starts with a value v follows v's chain of single
	// successors to the same end, so it is the same run, except that
	// the trace's last run may stop short at the end of the recording.
	// The codes inside a run are passed over unread.
	left := t.steps // steps from code k to the end
	for ci, k := 0, 0; ci < len(r.full); {
		c := r.full[ci]
		if k >= len(c) {
			// Runs hold one code per step, so k carries over exactly.
			k -= len(c)
			ci++
			continue
		}
		v := c[k]
		if v < 0 {
			t.entries = append(t.entries, Entry{ID: -1 - v, Repeat: c[k+1]})
			k += 2
			left--
			continue
		}
		vi := &r.vals[v]
		if vi.run < 0 {
			vi.run, vi.runLen = r.addRun(v, left)
		}
		id, l := vi.run, vi.runLen
		if l > left {
			id, l = r.addRun(v, left)
		}
		t.entries = append(t.entries, Entry{ID: id})
		k += l
		left -= l
	}
	t.runVals = clip(t.runVals)
	t.runOff = clip(t.runOff)
	return t
}

// addRun appends the run that starts with value v to the dictionary
// and returns its id and length: v's chain of single successors, ending
// at a value that ends its runs or after left steps, where the
// recording ends.
func (r *recorder) addRun(v int32, left int) (id int32, n int) {
	t := r.t
	for n = 1; ; n++ {
		t.runVals = append(t.runVals, v)
		if n == left || r.vals[v].next < 0 {
			break
		}
		v = r.vals[v].next
	}
	t.runOff = append(t.runOff, int32(len(t.runVals)))
	return int32(len(t.runOff) - 2), n
}

// clip returns a copy of s whose capacity is its length.
func clip[E any](s []E) []E {
	c := make([]E, len(s))
	copy(c, s)
	return c
}

// Blocks returns the executed blocks, indexed by Step.Block and
// Step.Link. The slice is the trace's own and must not be modified.
func (t *Trace) Blocks() []Block { return t.blocks }

// Values returns the distinct non-repeat steps, indexed by the value ids
// of Run. The slice is the trace's own and must not be modified.
func (t *Trace) Values() []Step { return t.values }

// NumRuns returns the size of the run dictionary.
func (t *Trace) NumRuns() int { return len(t.runOff) - 1 }

// Run returns the value ids of run i's steps, in order. The slice is the
// trace's own and must not be modified.
func (t *Trace) Run(i int) []int32 { return t.runVals[t.runOff[i]:t.runOff[i+1]] }

// Entries returns the step sequence as runs and repeat steps. The slice
// is the trace's own and must not be modified.
func (t *Trace) Entries() []Entry { return t.entries }

// EachStep calls fn with every recorded step, in recording order.
func (t *Trace) EachStep(fn func(Step)) {
	for _, e := range t.entries {
		if e.Repeat > 0 {
			fn(Step{Block: e.ID, Link: -e.Repeat})
			continue
		}
		for _, v := range t.Run(int(e.ID)) {
			fn(t.values[v])
		}
	}
}

// NumSteps returns the number of recorded steps.
func (t *Trace) NumSteps() int { return t.steps }

// Executions returns the total dynamic block-execution count.
func (t *Trace) Executions() int64 { return t.execs }

// Fetches returns the block-instruction fetch count of the recorded run,
// excluding layout-appended jumps (those depend on the layout).
func (t *Trace) Fetches() int64 { return t.fetches }

// SizeBytes returns the memory the recording holds, measured as
// backing-array *capacity* — what the allocator committed, which is what
// the cache's eviction bound must charge.
func (t *Trace) SizeBytes() int {
	return int(unsafe.Sizeof(Block{}))*cap(t.blocks) +
		int(unsafe.Sizeof(Step{}))*cap(t.values) +
		4*(cap(t.runVals)+cap(t.runOff)) +
		int(unsafe.Sizeof(Entry{}))*cap(t.entries)
}

// RecordTrace executes p once and records its dynamic block sequence.
func RecordTrace(p *ir.Program, opts ...Option) (*Trace, error) {
	r := newRecorder(p)
	e := newExec(p, opts)
	if err := e.run(r.push); err != nil {
		return nil, err
	}
	return r.finish(), nil
}
