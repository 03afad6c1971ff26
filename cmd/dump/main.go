// Command dump inspects programs and pipeline artifacts: assembler-style
// listings, round-trippable asm source, trace tables, memory maps and
// conflict graphs.
//
// Usage:
//
//	dump -workload mpeg -format listing
//	dump -workload g721 -format asm > g721.casm
//	dump -file g721.casm -format traces -spm 256
//	dump -workload adpcm -format map -cache 128 -spm 128
//	dump -workload adpcm -format dot -cache 128 -spm 128 | dot -Tpng ...
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/asm"
	"repro/internal/experiments"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		wl     = flag.String("workload", "", "bundled workload: adpcm, g721, mpeg")
		file   = flag.String("file", "", "program in asm format (alternative to -workload)")
		format = flag.String("format", "listing", "output: listing, asm, traces, trace, map, dot, conflicts")
		cache  = flag.Int("cache", 2048, "I-cache size for traces/map/dot")
		spm    = flag.Int("spm", 256, "scratchpad size for traces/map/dot")
	)
	flag.Parse()

	if err := run(*wl, *file, *format, *cache, *spm); err != nil {
		fmt.Fprintln(os.Stderr, "dump:", err)
		os.Exit(1)
	}
}

func loadProgram(wl, file string) (*ir.Program, error) {
	switch {
	case wl != "" && file != "":
		return nil, fmt.Errorf("pass -workload or -file, not both")
	case wl != "":
		return workload.Load(wl)
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return asm.Parse(f, file)
	}
	return nil, fmt.Errorf("need -workload or -file")
}

func run(wl, file, format string, cacheSize, spmSize int) error {
	p, err := loadProgram(wl, file)
	if err != nil {
		return err
	}
	switch format {
	case "listing":
		return ir.Fprint(os.Stdout, p)
	case "asm":
		return asm.Write(os.Stdout, p)
	case "traces":
		return dumpTraces(p, spmSize)
	case "trace":
		return dumpBlockTrace(p)
	case "map":
		return dumpMap(p, cacheSize, spmSize)
	case "dot":
		return dumpDOT(p, cacheSize, spmSize)
	case "conflicts":
		return dumpConflicts(p, cacheSize, spmSize)
	}
	return fmt.Errorf("unknown format %q", format)
}

func buildSet(p *ir.Program, spmSize int) (*trace.Set, error) {
	prof, err := sim.ProfileProgram(p)
	if err != nil {
		return nil, err
	}
	return trace.Build(p, prof, trace.Options{MaxBytes: spmSize, LineBytes: experiments.DefaultLine})
}

func dumpTraces(p *ir.Program, spmSize int) error {
	set, err := buildSet(p, spmSize)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d traces (cap %dB, %dB lines), %dB raw / %dB padded\n",
		p.Name, len(set.Traces), spmSize, experiments.DefaultLine,
		set.TotalRawBytes(), set.TotalPaddedBytes())
	fmt.Printf("%6s %8s %8s %10s %6s %6s  %s\n",
		"trace", "raw(B)", "pad(B)", "fetches", "blks", "jump", "starts at")
	for _, tr := range set.Traces {
		first := tr.Blocks[0]
		fn := p.Func(first.Func)
		label := fn.Block(first.Block).Label
		if label == "" {
			label = fmt.Sprintf("bb%d", first.Block)
		}
		jump := ""
		if tr.HasJump {
			jump = "+j"
		}
		fmt.Printf("%6d %8d %8d %10d %6d %6s  %s:%s\n",
			tr.ID, tr.RawBytes, tr.PaddedBytes, tr.Fetches, len(tr.Blocks), jump, fn.Name, label)
	}
	return nil
}

// dumpBlockTrace prints the block trace the simulator records once per
// program and walks under every layout — the artifact to stare at when
// the default engine and the reference engine disagree. Each step is a
// block, how many times it executes back to back, and the block whose
// appended jump follows it ("-" when none does).
func dumpBlockTrace(p *ir.Program) error {
	tr, err := sim.RecordTrace(p)
	if err != nil {
		return err
	}
	blocks := tr.Blocks()
	name := func(i int32) string {
		ref := blocks[i].Ref
		fn := p.Func(ref.Func)
		label := fn.Block(ref.Block).Label
		if label == "" {
			label = fmt.Sprintf("bb%d", ref.Block)
		}
		return fn.Name + ":" + label
	}
	fmt.Printf("%s block trace: %d steps in %d entries over %d runs, %d block executions, %d fetches, %dB encoded\n",
		p.Name, tr.NumSteps(), len(tr.Entries()), tr.NumRuns(), tr.Executions(), tr.Fetches(), tr.SizeBytes())
	fmt.Printf("%8s %10s %7s %-24s %s\n", "step", "repeat", "instrs", "block", "jump owner")
	i := 0
	tr.EachStep(func(s sim.Step) {
		owner := "-"
		if s.Link >= 0 {
			owner = name(s.Link)
		}
		fmt.Printf("%8d %10d %7d %-24s %s\n", i, s.Repeat(), blocks[s.Block].Instrs, name(s.Block), owner)
		i++
	})
	return nil
}

func dumpMap(p *ir.Program, cacheSize, spmSize int) error {
	pipe, err := experiments.PrepareProgram(context.Background(), p, experiments.DM(cacheSize), spmSize)
	if err != nil {
		return err
	}
	casa, err := pipe.RunCASA(context.Background())
	if err != nil {
		return err
	}
	// Rebuild the CASA layout to print the memory map.
	alloc := make([]bool, len(pipe.Set.Traces))
	for _, tr := range pipe.Set.Traces {
		if casa.Result.PerMO[tr.ID].SPM > 0 {
			alloc[tr.ID] = true
		}
	}
	lay, err := layout.New(pipe.Set, alloc, layout.Options{Mode: layout.Copy, SPMSize: spmSize})
	if err != nil {
		return err
	}
	fmt.Printf("%s memory map (%dB cache, %dB scratchpad, CASA allocation)\n",
		p.Name, cacheSize, spmSize)
	fmt.Printf("%10s %8s %6s  %s\n", "address", "size", "where", "trace")
	for _, tr := range pipe.Set.Traces {
		base, size := lay.ExecRange(tr.ID)
		where := "main"
		if lay.InSPM(tr.ID) {
			where = "SPM"
		}
		first := tr.Blocks[0]
		fmt.Printf("%#10x %8d %6s  trace %d (%s)\n",
			base, size, where, tr.ID, p.Func(first.Func).Name)
	}
	fmt.Printf("scratchpad: %d/%d bytes used\n", lay.SPMUsed(), spmSize)
	return nil
}

func dumpConflicts(p *ir.Program, cacheSize, spmSize int) error {
	pipe, err := experiments.PrepareProgram(context.Background(), p, experiments.DM(cacheSize), spmSize)
	if err != nil {
		return err
	}
	g := pipe.Graph
	fmt.Printf("%s conflict graph: %d vertices, %d edges, %d conflict misses\n",
		p.Name, g.N(), g.NumEdges(), g.TotalConflictMisses())
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool { return edges[i].Misses > edges[j].Misses })
	if len(edges) > 20 {
		edges = edges[:20]
	}
	fmt.Printf("%8s %8s %10s  %s\n", "victim", "evictor", "misses", "(heaviest 20)")
	for _, e := range edges {
		fmt.Printf("%8d %8d %10d  %s <- %s\n", e.From, e.To, e.Misses,
			p.Func(pipe.Set.Traces[e.From].Blocks[0].Func).Name,
			p.Func(pipe.Set.Traces[e.To].Blocks[0].Func).Name)
	}
	return nil
}

func dumpDOT(p *ir.Program, cacheSize, spmSize int) error {
	pipe, err := experiments.PrepareProgram(context.Background(), p, experiments.DM(cacheSize), spmSize)
	if err != nil {
		return err
	}
	names := make([]string, len(pipe.Set.Traces))
	for _, tr := range pipe.Set.Traces {
		names[tr.ID] = fmt.Sprintf("%s#%d", p.Func(tr.Blocks[0].Func).Name, tr.ID)
	}
	return pipe.Graph.WriteDOT(os.Stdout, names)
}
