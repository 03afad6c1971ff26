package ir

import "fmt"

// DataID names a data object within its program.
type DataID int

// DataObject is a statically-allocated data item (a state struct, lookup
// table or buffer) that scratchpad allocation may place on-chip — the
// paper's §7 future work ("preloading of data"). Data objects carry no
// addresses in the IR; like code, they are placed by the allocator.
type DataObject struct {
	// ID is the object's index within Program.Data.
	ID DataID
	// Name is the symbolic name (e.g. "stepsize_table").
	Name string
	// SizeBytes is the object's size.
	SizeBytes int
}

// DataRef annotates a basic block with its per-execution accesses to one
// data object: every execution of the block performs Loads reads and
// Stores writes to it. The annotation abstracts the addresses away — the
// data side of the study has no cache, so only counts matter.
type DataRef struct {
	Obj    DataID
	Loads  int
	Stores int
}

// Accesses returns the reference's total accesses per block execution.
func (r DataRef) Accesses() int { return r.Loads + r.Stores }

// DataOf returns the data object with the given ID, or nil.
func (p *Program) DataOf(id DataID) *DataObject {
	if id < 0 || int(id) >= len(p.Data) {
		return nil
	}
	return &p.Data[id]
}

// validateData checks data objects and references (called from Validate).
func validateData(p *Program) error {
	for i, d := range p.Data {
		if d.ID != DataID(i) {
			return invalidf("data object %q: ID %d, want %d", d.Name, d.ID, i)
		}
		if d.SizeBytes <= 0 {
			return invalidf("data object %q has size %d", d.Name, d.SizeBytes)
		}
		if d.Name == "" {
			return invalidf("data object %d has no name", i)
		}
	}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, r := range b.DataRefs {
				if p.DataOf(r.Obj) == nil {
					return invalidf("function %q block %d references unknown data object %d",
						f.Name, b.ID, r.Obj)
				}
				if r.Loads < 0 || r.Stores < 0 {
					return invalidf("function %q block %d: negative data access counts",
						f.Name, b.ID)
				}
			}
		}
	}
	return nil
}

// DataObject registers (or returns the existing) data object with the
// given name and size on the program under construction.
func (pb *ProgramBuilder) DataObject(name string, sizeBytes int) *ProgramBuilder {
	if _, ok := pb.dataByName[name]; ok {
		pb.setErr(fmt.Errorf("ir: build: duplicate data object %q", name))
		return pb
	}
	if pb.dataByName == nil {
		pb.dataByName = make(map[string]DataID)
	}
	pb.dataByName[name] = DataID(len(pb.data))
	pb.data = append(pb.data, DataObject{
		ID:        DataID(len(pb.data)),
		Name:      name,
		SizeBytes: sizeBytes,
	})
	return pb
}

// Data annotates the block: each execution performs the given loads and
// stores on the named data object (registered with DataObject).
func (bb *BlockBuilder) Data(obj string, loads, stores int) *BlockBuilder {
	bb.dataRefs = append(bb.dataRefs, pendingDataRef{obj: obj, loads: loads, stores: stores})
	return bb
}
