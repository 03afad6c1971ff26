// Package sim executes programs at instruction-fetch granularity. It is the
// reproduction's stand-in for ARM's ARMulator: given a program whose
// conditional branches carry deterministic behaviors (ir.Behavior), it walks
// the control-flow graph exactly as the processor would and either records
// the dynamic block trace (RecordTrace), from which the aggregate execution
// counts (Profile) are derived, or streams the full instruction
// fetch-address stream (Run), which downstream memory-hierarchy simulation
// consumes.
//
// Everything is deterministic: two runs of the same program produce
// identical streams, which makes every experiment in this repository
// exactly reproducible.
package sim

import (
	"errors"
	"fmt"

	"repro/internal/ir"
)

// DefaultMaxFetches bounds a run when the caller does not provide a limit;
// it is generous enough for every bundled workload while still catching
// accidentally non-terminating programs.
const DefaultMaxFetches = 1 << 32

// ErrFetchLimit is returned when a run exceeds its fetch budget, which for a
// well-formed workload indicates a non-terminating branch behavior.
var ErrFetchLimit = errors.New("sim: fetch limit exceeded")

// ErrCallDepth is returned when the simulated call stack exceeds its bound,
// indicating runaway recursion in the workload.
var ErrCallDepth = errors.New("sim: call depth exceeded")

// maxCallDepth bounds the simulated call stack.
const maxCallDepth = 1 << 16

// Layout supplies concrete instruction addresses for a program whose blocks
// have been placed in memory (and possibly copied to a scratchpad). It is
// implemented by the layout package; sim depends only on this interface.
type Layout interface {
	// BlockBase returns the address of the first instruction of the block.
	// Instruction i of the block is fetched from BlockBase(ref) + 4*i.
	BlockBase(ref ir.BlockRef) uint32
	// BlockMO returns the memory-object (trace) ID containing the block.
	BlockMO(ref ir.BlockRef) int
	// FallJump reports the address of the jump instruction appended after
	// the block, fetched whenever control leaves the block along its
	// fall-through path toward a non-adjacent successor. ok is false when
	// the successor is adjacent and no jump was materialized.
	FallJump(ref ir.BlockRef) (addr uint32, ok bool)
}

// Profile aggregates one run's execution counts. It is derived from the
// run's recorded Trace (NewProfile), so profiling a program costs no
// interpreter run beyond the recording the simulator replays anyway.
type Profile struct {
	// Blocks[f][b] is the number of times block b of function f executed.
	Blocks [][]int64
	// Fetches is the total number of instruction fetches, excluding any
	// layout-dependent appended jumps (profiles are layout-independent).
	Fetches int64

	// falls[f][b] counts the times control left block b of function f
	// along its fall-through path: a fall exit, or a return into the
	// call block's continuation.
	falls [][]int64
	// prog resolves fall-through successors when FallCount validates its
	// target argument.
	prog *ir.Program
}

// NewProfile derives p's profile from t, a recording of p's run: a
// block's count is its Block.Execs, and its fall-through count is
// Block.Jumps, the steps after which its appended jump would be fetched.
// An empty Trace yields an all-zero profile.
func NewProfile(p *ir.Program, t *Trace) *Profile {
	prof := &Profile{
		Blocks:  make([][]int64, len(p.Funcs)),
		Fetches: t.Fetches(),
		falls:   make([][]int64, len(p.Funcs)),
		prog:    p,
	}
	for i, f := range p.Funcs {
		prof.Blocks[i] = make([]int64, len(f.Blocks))
		prof.falls[i] = make([]int64, len(f.Blocks))
	}
	for _, b := range t.Blocks() {
		prof.Blocks[b.Ref.Func][b.Ref.Block] = b.Execs
		prof.falls[b.Ref.Func][b.Ref.Block] = b.Jumps
	}
	return prof
}

// BlockCount returns the execution count of the referenced block.
func (p *Profile) BlockCount(ref ir.BlockRef) int64 {
	return p.Blocks[ref.Func][ref.Block]
}

// FallCount returns the traversal count of the fall-through edge from
// from to to, or 0 when to is not from's fall-through successor or the
// edge was never traversed.
func (p *Profile) FallCount(from, to ir.BlockRef) int64 {
	next := p.prog.Func(from.Func).Block(from.Block).FallThrough
	if next == ir.NoBlock || to != (ir.BlockRef{Func: from.Func, Block: next}) {
		return 0
	}
	return p.falls[from.Func][from.Block]
}

// options bundles the run limits.
type options struct {
	maxFetches int64
}

// Option configures Profile and Run.
type Option func(*options)

// WithMaxFetches overrides the fetch budget of a run.
func WithMaxFetches(n int64) Option {
	return func(o *options) { o.maxFetches = n }
}

// ProfileProgram records p's run (RecordTrace) and derives its profile.
// The program must be valid (ir.Validate).
func ProfileProgram(p *ir.Program, opts ...Option) (*Profile, error) {
	t, err := RecordTrace(p, opts...)
	if err != nil {
		return nil, err
	}
	return NewProfile(p, t), nil
}

// Run executes p under the given layout, streaming every instruction fetch
// to fetch: per step, the block's instructions, then its jump owner's
// appended jump if the layout materialized one. mo is the memory-object
// ID owning the address (Layout.BlockMO). It returns the total number of
// fetches delivered.
func Run(p *ir.Program, lay Layout, fetch func(addr uint32, mo int), opts ...Option) (int64, error) {
	e := newExec(p, opts)
	var total int64
	err := e.run(func(ref ir.BlockRef, n int, owner ir.BlockRef, hasOwner bool) {
		base := lay.BlockBase(ref)
		mo := lay.BlockMO(ref)
		for i := 0; i < n; i++ {
			fetch(base+uint32(i*ir.InstrSize), mo)
		}
		total += int64(n)
		if !hasOwner {
			return
		}
		if addr, ok := lay.FallJump(owner); ok {
			fetch(addr, lay.BlockMO(owner))
			total++
		}
	})
	if err != nil {
		return 0, err
	}
	return total, nil
}

// exec is the shared interpreter core.
type exec struct {
	p          *ir.Program
	maxFetches int64
	fetches    int64
	// behaviors[f][b] is the instantiated decision state for branch blocks.
	behaviors [][]ir.BehaviorState
}

func newExec(p *ir.Program, opts []Option) *exec {
	o := options{maxFetches: DefaultMaxFetches}
	for _, fn := range opts {
		fn(&o)
	}
	e := &exec{p: p, maxFetches: o.maxFetches}
	e.behaviors = make([][]ir.BehaviorState, len(p.Funcs))
	for i, f := range p.Funcs {
		e.behaviors[i] = make([]ir.BehaviorState, len(f.Blocks))
		for j, b := range f.Blocks {
			if b.Behavior != nil {
				e.behaviors[i][j] = b.Behavior.NewState()
			}
		}
	}
	return e
}

// run walks the program, calling step once per dynamic block execution
// with the block's instruction count and its jump owner: the block whose
// fall-through path control leaves right after it, and whose appended
// jump is therefore fetched next. That is the block itself on a fall
// exit, the popped caller on a return, and none otherwise.
func (e *exec) run(step func(ref ir.BlockRef, instrs int, owner ir.BlockRef, hasOwner bool)) error {
	cur := ir.BlockRef{Func: e.p.Entry, Block: e.p.Func(e.p.Entry).Entry}
	var stack []ir.BlockRef // return continuations
	for {
		f := e.p.Func(cur.Func)
		b := f.Block(cur.Block)
		n := len(b.Instrs)
		e.fetches += int64(n)
		if e.fetches > e.maxFetches {
			return fmt.Errorf("%w (%d)", ErrFetchLimit, e.maxFetches)
		}
		switch b.Term() {
		case ir.TermFallThrough:
			step(cur, n, cur, true)
			cur.Block = b.FallThrough
		case ir.TermBranch:
			if e.behaviors[cur.Func][cur.Block].Next() {
				step(cur, n, ir.BlockRef{}, false)
				cur.Block = b.Taken
			} else {
				step(cur, n, cur, true)
				cur.Block = b.FallThrough
			}
		case ir.TermJump:
			step(cur, n, ir.BlockRef{}, false)
			cur.Block = b.Taken
		case ir.TermCall:
			if len(stack) >= maxCallDepth {
				return fmt.Errorf("%w (%d)", ErrCallDepth, maxCallDepth)
			}
			step(cur, n, ir.BlockRef{}, false)
			stack = append(stack, cur)
			callee := e.p.Func(b.CallTarget)
			cur = ir.BlockRef{Func: callee.ID, Block: callee.Entry}
		case ir.TermReturn:
			if len(stack) == 0 {
				step(cur, n, ir.BlockRef{}, false)
				return nil // program terminates: return from entry function
			}
			caller := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			step(cur, n, caller, true)
			cur = ir.BlockRef{Func: caller.Func, Block: e.p.Func(caller.Func).Block(caller.Block).FallThrough}
		}
	}
}
