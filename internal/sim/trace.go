// Trace: the compressed, execute-once form of a program run. The
// interpreter walks a workload exactly once and records the dynamic
// block sequence — not individual fetch addresses. Because blocks and
// jump owners are layout-independent, one Trace serves every Layout: the
// memory-hierarchy simulator compiles each executed block under a layout
// once and then walks the recorded steps, instead of re-executing the
// interpreter or storing a per-layout 4-byte-granular address stream
// (the pre-trace design cached ~20MB of raw addresses per (program,
// layout); a trace is a few kilobytes per program).
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
package sim

import (
	"slices"
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

// Step is one recorded entry. Block indexes Trace.Blocks. Link ≥ 0 is
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

// Trace is a recording of one program execution: the executed blocks and
// the dynamic step sequence over them. It is layout-independent and
// immutable once recorded, and safe for concurrent use.
type Trace struct {
	// blocks lists every executed block once, in first-execution order.
	blocks []Block
	steps  []Step

	execs   int64 // total block executions (sum of repeats)
	fetches int64 // total block-instruction fetches (appended jumps excluded)
}

// recorder builds a Trace, assigning dense block indices on first
// execution through a per-function slot table. Steps are collected in
// bounded chunks and copied once into an exactly sized slice when the
// run ends: a recording of n steps allocates about 2n steps, where
// growing one slice by append would allocate about 5n and leave up to a
// quarter of it unused.
type recorder struct {
	t    *Trace
	slot [][]int32 // [func][block] → dense index + 1 (0 = not yet seen)
	full [][]Step  // filled chunks, in recording order
	cur  []Step    // the chunk being filled; holds the last step once one is pushed
}

// maxChunkSteps bounds a recording chunk (256 KiB of steps).
const maxChunkSteps = 1 << 15

func newRecorder(p *ir.Program) *recorder {
	r := &recorder{t: &Trace{}, slot: make([][]int32, len(p.Funcs))}
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
		*s = int32(len(t.blocks))
	}
	b := *s - 1
	t.blocks[b].Execs++
	if hasOwner {
		// The owner is the block itself or a caller that executed
		// earlier, so it already has an index.
		o := r.slot[owner.Func][owner.Block] - 1
		t.blocks[o].Jumps++
		r.add(Step{Block: b, Link: o})
		return
	}
	if n := len(r.cur) - 1; n >= 0 && r.cur[n].Block == b &&
		r.cur[n].Link < 0 && r.cur[n].Link > -1<<31 {
		r.cur[n].Link--
		return
	}
	r.add(Step{Block: b, Link: -1})
}

// add appends a new step, starting a chunk twice the size of the last
// one (up to maxChunkSteps) when the current chunk is full.
func (r *recorder) add(s Step) {
	if len(r.cur) == cap(r.cur) {
		if len(r.cur) > 0 {
			r.full = append(r.full, r.cur)
		}
		r.cur = make([]Step, 0, min(max(2*cap(r.cur), 64), maxChunkSteps))
	}
	r.cur = append(r.cur, s)
}

// finish joins the chunks into the trace's step slice and returns the
// trace.
func (r *recorder) finish() *Trace {
	r.t.steps = slices.Concat(append(r.full, r.cur)...)
	return r.t
}

// Blocks returns the executed blocks, indexed by Step.Block and
// Step.Link. The slice is the trace's own and must not be modified.
func (t *Trace) Blocks() []Block { return t.blocks }

// Steps returns the recorded step sequence. The slice is the trace's
// own and must not be modified.
func (t *Trace) Steps() []Step { return t.steps }

// Executions returns the total dynamic block-execution count.
func (t *Trace) Executions() int64 { return t.execs }

// Fetches returns the block-instruction fetch count of the recorded run,
// excluding layout-appended jumps (those depend on the layout).
func (t *Trace) Fetches() int64 { return t.fetches }

// SizeBytes returns the memory the recording holds, measured as
// backing-array *capacity* — what the allocator committed, which is what
// the cache's eviction bound must charge.
func (t *Trace) SizeBytes() int {
	return int(unsafe.Sizeof(Block{}))*cap(t.blocks) + int(unsafe.Sizeof(Step{}))*cap(t.steps)
}

// RecordTrace executes p once and records its dynamic block sequence.
func RecordTrace(p *ir.Program, opts ...Option) (*Trace, error) {
	r := newRecorder(p)
	e := newExec(p, opts)
	err := e.run(
		func(ir.BlockRef, int) {},
		nil,
		nil,
		r.push,
	)
	if err != nil {
		return nil, err
	}
	return r.finish(), nil
}
