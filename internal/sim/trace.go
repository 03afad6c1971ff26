// Trace: the compressed, execute-once form of a program run. The
// interpreter walks a workload exactly once and records the dynamic
// block sequence — not individual fetch addresses — as a run-length-
// encoded step list. Because blocks and step kinds are layout-
// independent, one Trace replays under any Layout: the memory-hierarchy
// simulator decodes it once per layout/cache configuration instead of
// re-executing the interpreter or storing a per-layout 4-byte-granular
// address stream (the pre-trace design cached ~20MB of raw addresses
// per (program, layout); a trace is a few kilobytes per program).
//
// Replay reproduces the exact fetch stream of Run: per step it emits the
// block's instruction run (bulk, via RunFetcher, when the sink supports
// it), and reconstructs the call stack so that appended fall-through
// jumps — including the subtle case of a return, whose jump belongs to
// the *popped caller*, not the returning block — are fetched at the
// same position and with the same memory object as a live run.
package sim

import (
	"repro/internal/ir"
	"repro/internal/obs"
)

// mTraceReplays counts trace replays process-wide
// (casa_trace_replays_total): each one stands for a full simulation run
// that skipped re-executing the interpreter.
var mTraceReplays = obs.GetCounter("casa_trace_replays_total")

// Trace is a run-length-encoded recording of one program execution: the
// dynamic block sequence with exit kinds. It is layout-independent and
// immutable once recorded; Replay is safe for concurrent use.
type Trace struct {
	// blocks lists every executed block once, in first-execution order,
	// with its instruction count in instrs; steps name blocks by their
	// dense index into these tables.
	blocks []ir.BlockRef
	instrs []int32

	// Parallel arrays, one entry per RLE step: the executed block's dense
	// index, how control left it, and how many times the step repeats
	// consecutively (taken self-loops compress to a single entry).
	idx    []int32
	kinds  []StepKind
	counts []int64

	steps   int64 // total dynamic steps (sum of counts)
	fetches int64 // total block-instruction fetches (appended jumps excluded)
}

// recorder builds a Trace, assigning dense block indices on first
// execution through a per-function slot table.
type recorder struct {
	t    *Trace
	slot [][]int32 // [func][block] → dense index + 1 (0 = not yet seen)
}

func newRecorder(p *ir.Program) *recorder {
	r := &recorder{t: &Trace{}, slot: make([][]int32, len(p.Funcs))}
	for i, f := range p.Funcs {
		r.slot[i] = make([]int32, len(f.Blocks))
	}
	return r
}

// push appends one dynamic step, run-length-merging it into the previous
// entry when it repeats the same block and exit kind.
func (r *recorder) push(ref ir.BlockRef, instrs int, kind StepKind) {
	t := r.t
	t.steps++
	t.fetches += int64(instrs)
	s := &r.slot[ref.Func][ref.Block]
	if *s == 0 {
		t.blocks = append(t.blocks, ref)
		t.instrs = append(t.instrs, int32(instrs))
		*s = int32(len(t.blocks))
	}
	b := *s - 1
	if n := len(t.idx) - 1; n >= 0 && t.idx[n] == b && t.kinds[n] == kind {
		t.counts[n]++
		return
	}
	t.idx = append(t.idx, b)
	t.kinds = append(t.kinds, kind)
	t.counts = append(t.counts, 1)
}

// NumSteps returns the number of RLE entries.
func (t *Trace) NumSteps() int { return len(t.idx) }

// Step returns the i-th RLE entry: the executed block, its instruction
// count, how control left it, and the consecutive repeat count.
func (t *Trace) Step(i int) (ref ir.BlockRef, instrs int, kind StepKind, count int64) {
	b := t.idx[i]
	return t.blocks[b], int(t.instrs[b]), t.kinds[i], t.counts[i]
}

// Steps returns the total dynamic step count (sum of repeats).
func (t *Trace) Steps() int64 { return t.steps }

// Fetches returns the block-instruction fetch count a replay delivers,
// excluding layout-appended jumps (those depend on the layout).
func (t *Trace) Fetches() int64 { return t.fetches }

// SizeBytes returns the memory the recording holds, measured as
// backing-array *capacity* — what the allocator committed, which is what
// the cache's eviction bound must charge.
func (t *Trace) SizeBytes() int {
	return 8*cap(t.blocks) + 4*cap(t.instrs) +
		4*cap(t.idx) + cap(t.kinds) + 8*cap(t.counts)
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
	return r.t, nil
}

// placedBlock is one executed block resolved under a layout: where it
// runs, which memory object owns it, its length, and its appended jump.
type placedBlock struct {
	base uint32
	jump uint32
	mo   int32
	n    int32
	jok  bool
}

// place resolves every executed block under lay once, so the replay
// loop reads flat tables instead of making Layout calls per step.
func (t *Trace) place(lay Layout) []placedBlock {
	tab := make([]placedBlock, len(t.blocks))
	for i, ref := range t.blocks {
		jaddr, jok := lay.FallJump(ref)
		tab[i] = placedBlock{
			base: lay.BlockBase(ref),
			jump: jaddr,
			mo:   int32(lay.BlockMO(ref)),
			n:    t.instrs[i],
			jok:  jok,
		}
	}
	return tab
}

// Replay decodes the trace under lay, delivering the exact fetch stream
// Run(p, lay, sink) would produce — same addresses, same memory objects,
// same order — and returns the fetch count. Sinks implementing
// RunFetcher receive each block's instruction run as one FetchRun call;
// appended jumps always arrive as individual Fetch calls because a jump
// need not be contiguous with its block under every Layout.
func (t *Trace) Replay(lay Layout, sink Fetcher) int64 {
	mTraceReplays.Inc()
	rf, bulk := sink.(RunFetcher)
	if !bulk {
		rf = scalarRuns{sink}
	}
	rr, repeats := rf.(RunRepeater)
	tab := t.place(lay)
	var total int64
	var stack []int32 // return continuations (dense indices), mirrors exec.run
	for i, b := range t.idx {
		blk := &tab[b]
		base, n, mo := blk.base, int(blk.n), int(blk.mo)
		cnt := t.counts[i]
		total += cnt * int64(n)
		switch t.kinds[i] {
		case StepTaken:
			// Taken self-loops are the only steps RLE merges, so cnt>1
			// means this exact run repeats back to back — hand the whole
			// burst to the sink when it can exploit the periodicity.
			if repeats {
				rr.FetchRunRepeat(base, n, mo, cnt)
			} else {
				for j := int64(0); j < cnt; j++ {
					rf.FetchRun(base, n, mo)
				}
			}
		case StepFall:
			for j := int64(0); j < cnt; j++ {
				rf.FetchRun(base, n, mo)
				if blk.jok {
					sink.Fetch(blk.jump, mo)
					total++
				}
			}
		case StepCall:
			for j := int64(0); j < cnt; j++ {
				rf.FetchRun(base, n, mo)
				stack = append(stack, b)
			}
		case StepReturn:
			for j := int64(0); j < cnt; j++ {
				rf.FetchRun(base, n, mo)
				if len(stack) == 0 {
					break // program-terminating return: always the last step
				}
				caller := &tab[stack[len(stack)-1]]
				stack = stack[:len(stack)-1]
				if caller.jok {
					sink.Fetch(caller.jump, int(caller.mo))
					total++
				}
			}
		}
	}
	return total
}

// scalarRuns adapts a plain Fetcher to the RunFetcher shape Replay
// drives, unrolling each run into per-instruction Fetch calls.
type scalarRuns struct{ sink Fetcher }

func (s scalarRuns) Fetch(addr uint32, mo int) { s.sink.Fetch(addr, mo) }

func (s scalarRuns) FetchRun(base uint32, n int, mo int) {
	for j := 0; j < n; j++ {
		s.sink.Fetch(base+uint32(j*ir.InstrSize), mo)
	}
}
