// Package sim executes programs at instruction-fetch granularity. It is the
// reproduction's stand-in for ARM's ARMulator: given a program whose
// conditional branches carry deterministic behaviors (ir.Behavior), it walks
// the control-flow graph exactly as the processor would and reports either
// aggregate execution counts (Profile) or the full instruction fetch-address
// stream (Run), which downstream memory-hierarchy simulation consumes.
//
// Everything is deterministic: two runs of the same program produce
// identical streams, which makes every experiment in this repository
// exactly reproducible.
package sim

import (
	"errors"
	"fmt"
	"sync"

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

// Fetcher consumes the instruction fetch stream of a run. mo is the
// memory-object ID owning the address (see Layout.BlockMO).
type Fetcher interface {
	Fetch(addr uint32, mo int)
}

// FetcherFunc adapts a function to the Fetcher interface.
type FetcherFunc func(addr uint32, mo int)

// Fetch implements Fetcher.
func (f FetcherFunc) Fetch(addr uint32, mo int) { f(addr, mo) }

// EdgeKind classifies a dynamic control-flow edge.
type EdgeKind uint8

const (
	// EdgeFall is a fall-through transfer: a block without a terminator, a
	// not-taken conditional branch, a Goto, or a call's return
	// continuation.
	EdgeFall EdgeKind = iota
	// EdgeTaken is a taken (conditional or unconditional) branch.
	EdgeTaken
	// EdgeCall is a call entering a callee's entry block.
	EdgeCall
)

var edgeKindNames = [...]string{EdgeFall: "fall", EdgeTaken: "taken", EdgeCall: "call"}

// String returns the edge kind's name.
func (k EdgeKind) String() string {
	if int(k) < len(edgeKindNames) {
		return edgeKindNames[k]
	}
	return fmt.Sprintf("edgekind(%d)", uint8(k))
}

// Edge is a dynamic control-flow edge between two blocks.
type Edge struct {
	From ir.BlockRef
	To   ir.BlockRef
	Kind EdgeKind
}

// edgeKinds is the number of EdgeKind values; a block has at most one
// dynamic successor per kind (fall-through, taken target, callee entry),
// so (From, Kind) identifies an edge completely.
const edgeKinds = 3

// Profile aggregates one run's execution counts. Edge traversals are
// stored densely as per-function, per-block counters indexed by EdgeKind
// — the profiling hot loop only increments a slice cell, never hashes a
// map key. The classic map view is materialized on demand by Edges.
type Profile struct {
	// Blocks[f][b] is the number of times block b of function f executed.
	Blocks [][]int64
	// Fetches is the total number of instruction fetches, excluding any
	// layout-dependent appended jumps (profiles are layout-independent).
	Fetches int64

	// edges[f][b][k] counts traversals of block b's outgoing edge of
	// kind k.
	edges [][][edgeKinds]int64
	// prog resolves edge targets when the map view is materialized and
	// when lookups validate their target argument.
	prog *ir.Program

	edgeOnce sync.Once
	edgeMap  map[Edge]int64
}

// NewProfile returns an empty profile shaped for p, ready for manual
// population (tests) or the profiling run itself.
func NewProfile(p *ir.Program) *Profile {
	prof := &Profile{
		Blocks: make([][]int64, len(p.Funcs)),
		edges:  make([][][edgeKinds]int64, len(p.Funcs)),
		prog:   p,
	}
	for i, f := range p.Funcs {
		prof.Blocks[i] = make([]int64, len(f.Blocks))
		prof.edges[i] = make([][edgeKinds]int64, len(f.Blocks))
	}
	return prof
}

// BlockCount returns the execution count of the referenced block.
func (p *Profile) BlockCount(ref ir.BlockRef) int64 {
	return p.Blocks[ref.Func][ref.Block]
}

// edgeTarget resolves the static target of from's outgoing edge of the
// given kind, or ok=false when the block has no such edge.
func (p *Profile) edgeTarget(from ir.BlockRef, kind EdgeKind) (ir.BlockRef, bool) {
	b := p.prog.Func(from.Func).Block(from.Block)
	switch kind {
	case EdgeFall:
		if b.FallThrough != ir.NoBlock {
			return ir.BlockRef{Func: from.Func, Block: b.FallThrough}, true
		}
	case EdgeTaken:
		if b.Taken != ir.NoBlock {
			return ir.BlockRef{Func: from.Func, Block: b.Taken}, true
		}
	case EdgeCall:
		if b.CallTarget != ir.NoFunc {
			callee := p.prog.Func(b.CallTarget)
			return ir.BlockRef{Func: callee.ID, Block: callee.Entry}, true
		}
	}
	return ir.BlockRef{}, false
}

// EdgeCount returns the traversal count of the given edge, or 0 when the
// edge does not exist in the program or was never traversed.
func (p *Profile) EdgeCount(e Edge) int64 {
	if int(e.Kind) >= edgeKinds {
		return 0
	}
	to, ok := p.edgeTarget(e.From, e.Kind)
	if !ok || to != e.To {
		return 0
	}
	return p.edges[e.From.Func][e.From.Block][e.Kind]
}

// AddEdge records n traversals of e (test construction helper; the edge
// must exist in the program).
func (p *Profile) AddEdge(e Edge, n int64) {
	p.edges[e.From.Func][e.From.Block][e.Kind] += n
}

// FallCount returns the traversal count of the fall-through edge from ref
// to its fall-through successor, or 0 if none was traversed.
func (p *Profile) FallCount(from, to ir.BlockRef) int64 {
	return p.EdgeCount(Edge{From: from, To: to, Kind: EdgeFall})
}

// Edges materializes the traversal counts as a map keyed by edge,
// omitting zero counts. The map is built once and shared; callers must
// not mutate it.
func (p *Profile) Edges() map[Edge]int64 {
	p.edgeOnce.Do(func() {
		m := make(map[Edge]int64)
		for f, blocks := range p.edges {
			for b, counts := range blocks {
				for k, n := range counts {
					if n == 0 {
						continue
					}
					from := ir.BlockRef{Func: ir.FuncID(f), Block: ir.BlockID(b)}
					if to, ok := p.edgeTarget(from, EdgeKind(k)); ok {
						m[Edge{From: from, To: to, Kind: EdgeKind(k)}] = n
					}
				}
			}
		}
		p.edgeMap = m
	})
	return p.edgeMap
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

// ProfileProgram executes p and returns its execution profile. The program
// must be valid (ir.Validate).
func ProfileProgram(p *ir.Program, opts ...Option) (*Profile, error) {
	prof := NewProfile(p)
	e := newExec(p, opts)
	err := e.run(
		func(ref ir.BlockRef, n int) {
			prof.Blocks[ref.Func][ref.Block]++
			prof.Fetches += int64(n)
		},
		func(edge Edge) { prof.edges[edge.From.Func][edge.From.Block][edge.Kind]++ },
		nil,
		nil,
	)
	if err != nil {
		return nil, err
	}
	return prof, nil
}

// Run executes p under the given layout, streaming every instruction fetch
// (including layout-appended jump fetches) to sink. It returns the total
// number of fetches delivered.
func Run(p *ir.Program, lay Layout, sink Fetcher, opts ...Option) (int64, error) {
	e := newExec(p, opts)
	var total int64
	err := e.run(
		func(ref ir.BlockRef, n int) {
			base := lay.BlockBase(ref)
			mo := lay.BlockMO(ref)
			for i := 0; i < n; i++ {
				sink.Fetch(base+uint32(i*ir.InstrSize), mo)
			}
			total += int64(n)
		},
		nil,
		func(ref ir.BlockRef) {
			if addr, ok := lay.FallJump(ref); ok {
				sink.Fetch(addr, lay.BlockMO(ref))
				total++
			}
		},
		nil,
	)
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

// run walks the program. onBlock is called once per dynamic block execution
// with the block's instruction count; onEdge (optional) is called per
// dynamic edge; onFallExit (optional) is called when control leaves a block
// along its fall-through path, letting Run account for appended jumps;
// onStep (optional) is called once per dynamic block execution with the
// block's jump owner, which is what trace recording consumes: the block
// itself on a fall exit, the popped caller on a return (its fall-exit is
// the one whose appended jump follows), and none otherwise.
func (e *exec) run(
	onBlock func(ref ir.BlockRef, instrs int),
	onEdge func(Edge),
	onFallExit func(ref ir.BlockRef),
	onStep func(ref ir.BlockRef, instrs int, owner ir.BlockRef, hasOwner bool),
) error {
	cur := ir.BlockRef{Func: e.p.Entry, Block: e.p.Func(e.p.Entry).Entry}
	var stack []ir.BlockRef // return continuations
	edge := func(from, to ir.BlockRef, kind EdgeKind) {
		if onEdge != nil {
			onEdge(Edge{From: from, To: to, Kind: kind})
		}
	}
	fallExit := func(from ir.BlockRef) {
		if onFallExit != nil {
			onFallExit(from)
		}
	}
	step := func(ref ir.BlockRef, instrs int, owner ir.BlockRef, hasOwner bool) {
		if onStep != nil {
			onStep(ref, instrs, owner, hasOwner)
		}
	}
	for {
		f := e.p.Func(cur.Func)
		b := f.Block(cur.Block)
		n := len(b.Instrs)
		e.fetches += int64(n)
		if e.fetches > e.maxFetches {
			return fmt.Errorf("%w (%d)", ErrFetchLimit, e.maxFetches)
		}
		onBlock(cur, n)
		switch b.Term() {
		case ir.TermFallThrough:
			next := ir.BlockRef{Func: cur.Func, Block: b.FallThrough}
			edge(cur, next, EdgeFall)
			fallExit(cur)
			step(cur, n, cur, true)
			cur = next
		case ir.TermBranch:
			if e.behaviors[cur.Func][cur.Block].Next() {
				next := ir.BlockRef{Func: cur.Func, Block: b.Taken}
				edge(cur, next, EdgeTaken)
				step(cur, n, ir.BlockRef{}, false)
				cur = next
			} else {
				next := ir.BlockRef{Func: cur.Func, Block: b.FallThrough}
				edge(cur, next, EdgeFall)
				fallExit(cur)
				step(cur, n, cur, true)
				cur = next
			}
		case ir.TermJump:
			next := ir.BlockRef{Func: cur.Func, Block: b.Taken}
			edge(cur, next, EdgeTaken)
			step(cur, n, ir.BlockRef{}, false)
			cur = next
		case ir.TermCall:
			callee := e.p.Func(b.CallTarget)
			next := ir.BlockRef{Func: callee.ID, Block: callee.Entry}
			edge(cur, next, EdgeCall)
			if len(stack) >= maxCallDepth {
				return fmt.Errorf("%w (%d)", ErrCallDepth, maxCallDepth)
			}
			step(cur, n, ir.BlockRef{}, false)
			stack = append(stack, cur)
			cur = next
		case ir.TermReturn:
			if len(stack) == 0 {
				step(cur, n, ir.BlockRef{}, false)
				return nil // program terminates: return from entry function
			}
			caller := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			step(cur, n, caller, true)
			cb := e.p.Func(caller.Func).Block(caller.Block)
			next := ir.BlockRef{Func: caller.Func, Block: cb.FallThrough}
			edge(caller, next, EdgeFall)
			fallExit(caller)
			cur = next
		}
	}
}
