// Package layout assigns concrete addresses to a trace-partitioned
// program, producing the address map the simulator executes against.
//
// Two placement semantics are provided, because the difference between
// them is one of the paper's central observations (§2):
//
//   - Copy (CASA): traces selected for the scratchpad are *copied* into the
//     scratchpad window and control flow is redirected there, while the
//     main-memory image keeps every trace at its original address. The
//     cache mapping of the remaining program is untouched.
//
//   - Move (Steinke et al. [13]): selected traces are *removed* from the
//     main-memory image and the remaining traces are compacted downward.
//     Every downstream trace shifts, changing its cache mapping — the
//     source of the erratic conflict behavior (thrashing) the paper
//     reports for cache-equipped hierarchies.
//
// Within the main-memory image traces occupy their padded (line-aligned)
// size; inside the scratchpad the alignment NOPs are stripped and traces
// are packed at their raw size (paper §4).
package layout

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/trace"
)

// Default address-space bases. The scratchpad window sits below main
// memory, mirroring ARM7 evaluation boards where the SPM is mapped at the
// bottom of the address space.
const (
	// DefaultSPMBase is the default scratchpad window base address.
	DefaultSPMBase uint32 = 0x0000_0000
	// DefaultMainBase is the default main-memory code base address.
	DefaultMainBase uint32 = 0x0010_0000
)

// Mode selects the placement semantics for scratchpad-allocated traces.
type Mode uint8

const (
	// Copy keeps the full main-memory image and copies selected traces to
	// the scratchpad (CASA semantics).
	Copy Mode = iota
	// Move removes selected traces from the main-memory image and
	// compacts the remainder (Steinke semantics).
	Move
)

var modeNames = [...]string{Copy: "copy", Move: "move"}

// String returns the mode name.
func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Options configures layout construction.
type Options struct {
	// Mode selects copy or move semantics.
	Mode Mode
	// SPMBase is the scratchpad window base (default DefaultSPMBase).
	SPMBase uint32
	// SPMSize is the scratchpad capacity in bytes; 0 means no scratchpad
	// (InSPM must then be all-false or nil).
	SPMSize int
	// MainBase is the main-memory code base (default DefaultMainBase).
	MainBase uint32
}

// Layout is an immutable address map implementing sim.Layout.
type Layout struct {
	set *trace.Set
	opt Options

	inSPM     []bool
	traceBase []uint32 // execution base address per trace
	mainBase  []uint32 // main-image address per trace (valid unless moved)
	hasMain   []bool
	spmUsed   int
	mainBytes int

	blockBase    [][]uint32
	fallJumpAddr [][]uint32
	fallJumpOK   [][]bool
	blockMO      [][]int
}

// New builds the address map for the given allocation. inSPM[i] selects
// trace i for the scratchpad; nil means no trace is allocated.
func New(set *trace.Set, inSPM []bool, opt Options) (*Layout, error) {
	if opt.MainBase == 0 {
		opt.MainBase = DefaultMainBase
	}
	if inSPM == nil {
		inSPM = make([]bool, len(set.Traces))
	}
	if len(inSPM) != len(set.Traces) {
		return nil, fmt.Errorf("layout: allocation length %d, want %d traces", len(inSPM), len(set.Traces))
	}
	l := &Layout{
		set:       set,
		opt:       opt,
		inSPM:     append([]bool(nil), inSPM...),
		traceBase: make([]uint32, len(set.Traces)),
		mainBase:  make([]uint32, len(set.Traces)),
		hasMain:   make([]bool, len(set.Traces)),
	}

	// Scratchpad image: packed raw sizes, in trace order.
	spmAddr := opt.SPMBase
	for _, t := range set.Traces {
		if !inSPM[t.ID] {
			continue
		}
		l.spmUsed += t.RawBytes
		if l.spmUsed > opt.SPMSize {
			return nil, fmt.Errorf("layout: allocation needs %d bytes, scratchpad has %d",
				l.spmUsed, opt.SPMSize)
		}
		l.traceBase[t.ID] = spmAddr
		spmAddr += uint32(t.RawBytes)
	}
	if opt.SPMSize > 0 && opt.SPMBase+uint32(opt.SPMSize) > opt.MainBase && opt.SPMBase < opt.MainBase {
		return nil, fmt.Errorf("layout: scratchpad window [%#x,%#x) overlaps main base %#x",
			opt.SPMBase, opt.SPMBase+uint32(opt.SPMSize), opt.MainBase)
	}

	// Main-memory image: padded sizes, in trace order. Under Move,
	// scratchpad traces are omitted and everything after them shifts.
	mainAddr := opt.MainBase
	for _, t := range set.Traces {
		if inSPM[t.ID] && opt.Mode == Move {
			continue
		}
		l.mainBase[t.ID] = mainAddr
		l.hasMain[t.ID] = true
		if !inSPM[t.ID] {
			l.traceBase[t.ID] = mainAddr
		}
		mainAddr += uint32(t.PaddedBytes)
	}
	l.mainBytes = int(mainAddr - opt.MainBase)

	l.resolveBlocks()
	return l, nil
}

func (l *Layout) resolveBlocks() {
	p := l.set.Prog
	l.blockBase = make([][]uint32, len(p.Funcs))
	l.fallJumpAddr = make([][]uint32, len(p.Funcs))
	l.fallJumpOK = make([][]bool, len(p.Funcs))
	l.blockMO = make([][]int, len(p.Funcs))
	for i, f := range p.Funcs {
		l.blockBase[i] = make([]uint32, len(f.Blocks))
		l.fallJumpAddr[i] = make([]uint32, len(f.Blocks))
		l.fallJumpOK[i] = make([]bool, len(f.Blocks))
		l.blockMO[i] = make([]int, len(f.Blocks))
	}
	for _, t := range l.set.Traces {
		base := l.traceBase[t.ID]
		for _, m := range t.Blocks {
			l.blockBase[m.Func][m.Block] = base + uint32(l.set.OffsetOf(m))
			l.blockMO[m.Func][m.Block] = t.ID
		}
		if t.HasJump {
			last := t.Blocks[len(t.Blocks)-1]
			l.fallJumpAddr[last.Func][last.Block] = base + uint32(t.RawBytes) - ir.InstrSize
			l.fallJumpOK[last.Func][last.Block] = true
		}
	}
}

// BlockBase implements sim.Layout.
func (l *Layout) BlockBase(ref ir.BlockRef) uint32 {
	return l.blockBase[ref.Func][ref.Block]
}

// BlockMO implements sim.Layout.
func (l *Layout) BlockMO(ref ir.BlockRef) int {
	return l.blockMO[ref.Func][ref.Block]
}

// FallJump implements sim.Layout.
func (l *Layout) FallJump(ref ir.BlockRef) (uint32, bool) {
	return l.fallJumpAddr[ref.Func][ref.Block], l.fallJumpOK[ref.Func][ref.Block]
}

// InSPM reports whether the trace executes from the scratchpad.
func (l *Layout) InSPM(id int) bool { return l.inSPM[id] }

// TraceBase returns the execution base address of the trace.
func (l *Layout) TraceBase(id int) uint32 { return l.traceBase[id] }

// MainImageBase returns the trace's address in the main-memory image and
// whether it has one (moved traces do not).
func (l *Layout) MainImageBase(id int) (uint32, bool) {
	return l.mainBase[id], l.hasMain[id]
}

// MainBase returns the main-memory code base address.
func (l *Layout) MainBase() uint32 { return l.opt.MainBase }

// SPMWindow returns the scratchpad address window [base, base+size).
func (l *Layout) SPMWindow() (base uint32, size int) {
	return l.opt.SPMBase, l.opt.SPMSize
}

// IsSPMAddr reports whether the address falls in the scratchpad window.
func (l *Layout) IsSPMAddr(addr uint32) bool {
	return l.opt.SPMSize > 0 &&
		addr >= l.opt.SPMBase && addr < l.opt.SPMBase+uint32(l.opt.SPMSize)
}

// SPMUsed returns the scratchpad bytes occupied by the allocation.
func (l *Layout) SPMUsed() int { return l.spmUsed }

// MainImageBytes returns the size of the main-memory code image.
func (l *Layout) MainImageBytes() int { return l.mainBytes }

// Set returns the underlying trace set.
func (l *Layout) Set() *trace.Set { return l.set }

// Mode returns the placement semantics used.
func (l *Layout) Mode() Mode { return l.opt.Mode }

// ExecRange returns the execution address range [base, base+size) of a
// trace: its scratchpad placement when allocated, otherwise its main-image
// slot (raw size; padding NOPs are never executed).
func (l *Layout) ExecRange(id int) (base uint32, size int) {
	return l.traceBase[id], l.set.Traces[id].RawBytes
}
