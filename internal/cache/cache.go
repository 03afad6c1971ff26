// Package cache models the L1 instruction cache of the paper's
// architecture. Besides hit/miss behavior under configurable size,
// associativity, line size and replacement policy, the model tracks which
// memory object owns each resident line so that the memory-hierarchy
// simulator can attribute every conflict miss "miss of x_i caused by x_j"
// — the edge weights m_ij of the paper's conflict graph.
package cache

import (
	"fmt"
	"io"
)

// NoMO marks an access or victim without a memory-object owner (cold line).
const NoMO = -1

// Policy selects the replacement policy of associative organizations. For
// direct-mapped caches all policies behave identically.
type Policy uint8

const (
	// LRU evicts the least-recently-used way.
	LRU Policy = iota
	// FIFO evicts the oldest-filled way.
	FIFO
	// Random evicts a pseudo-random way (deterministic, seeded).
	Random
)

var policyNames = [...]string{LRU: "lru", FIFO: "fifo", Random: "random"}

// String returns the policy name.
func (p Policy) String() string {
	if int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// Config describes a cache organization.
type Config struct {
	// SizeBytes is the data capacity (power of two).
	SizeBytes int
	// LineBytes is the line size in bytes (power of two, ≥ 4).
	LineBytes int
	// Assoc is the associativity (1 = direct-mapped).
	Assoc int
	// Replacement selects the victim policy.
	Replacement Policy
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.SizeBytes&(c.SizeBytes-1) != 0:
		return fmt.Errorf("cache: size %d not a positive power of two", c.SizeBytes)
	case c.LineBytes < 4 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache: line size %d not a power of two ≥ 4", c.LineBytes)
	case c.Assoc < 1:
		return fmt.Errorf("cache: associativity %d < 1", c.Assoc)
	case c.SizeBytes < c.LineBytes*c.Assoc:
		return fmt.Errorf("cache: %dB cannot hold %d ways of %dB lines",
			c.SizeBytes, c.Assoc, c.LineBytes)
	case c.Sets()*c.LineBytes*c.Assoc != c.SizeBytes || c.Sets()&(c.Sets()-1) != 0:
		// Addresses select a set by masking, so only a power-of-two set
		// count reaches every set.
		return fmt.Errorf("cache: %d ways of %dB lines do not split %dB into a power-of-two number of sets",
			c.Assoc, c.LineBytes, c.SizeBytes)
	case int(c.Replacement) >= len(policyNames):
		return fmt.Errorf("cache: unknown replacement policy %d", c.Replacement)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Assoc) }

// way is one resident line.
type way struct {
	// key is the line's tag plus one, and 0 marks an invalid way, so a
	// lookup is a single compare. Tags never reach the top of the 32-bit
	// range (lines are at least 4 bytes), so tag+1 cannot wrap.
	key uint32
	mo  int32
	// stamp orders ways for LRU (last use) and FIFO (fill time).
	stamp uint64
}

// Result reports the outcome of one access.
type Result struct {
	// Hit reports whether the access hit.
	Hit bool
	// VictimMO is the memory object that owned the replaced line on a
	// miss, or NoMO for a cold fill (or a hit).
	VictimMO int
}

// SetStats are the per-set access totals the cache keeps for
// introspection: with them a dump shows not just what is resident but
// which sets thrash — the software analogue of live cache inspection.
type SetStats struct {
	// Hits and Misses count accesses mapping to the set.
	Hits   int64
	Misses int64
	// Evictions counts misses that replaced a valid line (conflict or
	// capacity evictions; cold fills excluded).
	Evictions int64
}

// Cache is a running instance of the model. It is not safe for concurrent
// use; simulations are single-threaded.
type Cache struct {
	cfg        Config
	sets       []way      // sets*assoc entries, set-major
	stats      []SetStats // per-set totals, indexed by set
	setMask    uint32
	wordMask   uint32 // words per line - 1; splits runs at line ends
	indexShift uint
	tagShift   uint
	clock      uint64
	rng        uint64
	// assoc and lru mirror cfg.Assoc and cfg.Replacement == LRU so the
	// per-access path never chases the Config struct.
	assoc int
	lru   bool
}

// New returns an empty cache for the configuration.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{
		cfg:   cfg,
		sets:  make([]way, cfg.Sets()*cfg.Assoc),
		stats: make([]SetStats, cfg.Sets()),
		rng:   0x9e3779b97f4a7c15,
		assoc: cfg.Assoc,
		lru:   cfg.Replacement == LRU,
	}
	c.setMask = uint32(cfg.Sets() - 1)
	c.wordMask = uint32(cfg.LineBytes/4) - 1
	c.indexShift = log2(uint32(cfg.LineBytes))
	c.tagShift = c.indexShift + log2(uint32(cfg.Sets()))
	return c, nil
}

func log2(v uint32) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Set returns the set index for an address.
func (c *Cache) Set(addr uint32) uint32 {
	return (addr >> c.indexShift) & c.setMask
}

// Access performs one fetch by the given memory object and returns the
// outcome. On a miss the line is filled and attributed to mo.
func (c *Cache) Access(addr uint32, mo int) Result {
	set := c.Set(addr)
	tag := addr >> c.tagShift
	c.clock++
	base := int(set) * c.assoc
	ways := c.sets[base : base+c.assoc]
	for i := range ways {
		if ways[i].key == tag+1 {
			if c.lru {
				ways[i].stamp = c.clock
			}
			c.stats[set].Hits++
			return Result{Hit: true, VictimMO: NoMO}
		}
	}
	c.stats[set].Misses++
	victim := c.chooseVictim(ways)
	res := Result{Hit: false, VictimMO: NoMO}
	if ways[victim].key != 0 {
		res.VictimMO = int(ways[victim].mo)
		c.stats[set].Evictions++
	}
	ways[victim] = way{key: tag + 1, mo: int32(mo), stamp: c.clock}
	return res
}

// Probe is one compiled cache-line access: N consecutive word fetches by
// memory object MO that all fall in one line, with the line's set and
// tag taken from the cache's own address mapping. The Probe method keeps
// the last two fields: Way is the way (an index into all ways) where the
// probe last found or filled its line — lines never move between ways,
// so while the line stays resident that is where it is — and Misses
// counts how often the probe missed.
type Probe struct {
	Set    uint32
	Tag    uint32
	N      uint32
	MO     int32
	Way    int32
	Misses int64
}

// AppendProbes compiles k consecutive word fetches starting at addr, all
// by memory object mo, into line probes appended to dst: one per line the
// run touches, split where Access would see the line change.
func (c *Cache) AppendProbes(dst []Probe, addr uint32, k int, mo int) []Probe {
	for k > 0 {
		seg := int(c.wordMask + 1 - (addr>>2)&c.wordMask)
		if seg > k {
			seg = k
		}
		set := (addr >> c.indexShift) & c.setMask
		dst = append(dst, Probe{
			Set: set,
			Tag: addr >> c.tagShift,
			N:   uint32(seg),
			MO:  int32(mo),
			Way: int32(set) * int32(c.assoc),
		})
		addr += uint32(seg) * 4
		k -= seg
	}
	return dst
}

// CreditHits counts times passes over ps as hits in the per-set
// statistics, in advance of the Probe calls that perform them. Probe
// itself never counts a hit: which fetches a run of probes makes is fixed
// once the layout is known, and only the misses among them depend on the
// cache state, so each miss moves one fetch from its set's hits to its
// misses.
func (c *Cache) CreditHits(ps []Probe, times int64) {
	for i := range ps {
		c.stats[ps[i].Set].Hits += int64(ps[i].N) * times
	}
}

// Skip advances the replacement clock past n fetches that are known to
// hit and whose hits were credited: the passes of a loop in steady state.
// Hits refresh only the state of lines the loop itself touches, so the
// caller must follow up with one real pass, which lands every LRU stamp
// on its exact final value.
func (c *Cache) Skip(n int64) { c.clock += uint64(n) }

// Probe performs the probes in order. With the hits credited in advance
// (CreditHits), it leaves the cache exactly as the probes' ΣN sequential
// Access calls would — ways, clock, LRU/FIFO stamps, the Random
// generator and per-set statistics. A hit costs a tag compare at the
// probe's remembered way (the set is walked only when the line is not
// there) and a clock and LRU-stamp update; the first fetch of a probe
// decides hit or miss and the rest are same-line hits. A miss counts
// itself in the probe's Misses and, when onMiss is not nil, calls onMiss
// after the fill with the memory object whose line it replaced (NoMO
// for a cold fill), so the caller can attribute the victim. onMiss must
// not use the cache: its clock is stored back only when Probe returns.
// Returns the number of misses.
func (c *Cache) Probe(ps []Probe, onMiss func(p *Probe, victim int32)) (misses int64) {
	sets, assoc, lru := c.sets, c.assoc, c.lru
	clock := c.clock
	for i := range ps {
		p := &ps[i]
		key := p.Tag + 1
		w := int(p.Way)
		if sets[w].key != key && assoc > 1 {
			// Not where the probe last saw its line: walk the set, and
			// choose a victim if the line is not resident.
			base := int(p.Set) * assoc
			end := base + assoc
			for w = base; w < end && sets[w].key != key; w++ {
			}
			if w == end {
				w = base + c.chooseVictim(sets[base:end])
			}
			p.Way = int32(w)
		}
		if sets[w].key == key {
			clock += uint64(p.N)
			if lru {
				sets[w].stamp = clock
			}
			continue
		}
		wy := &sets[w]
		st := &c.stats[p.Set]
		st.Hits--
		st.Misses++
		victim := int32(NoMO)
		if wy.key != 0 {
			victim = wy.mo
			st.Evictions++
		}
		clock++
		*wy = way{key: key, mo: p.MO, stamp: clock}
		clock += uint64(p.N - 1)
		if lru {
			wy.stamp = clock
		}
		misses++
		p.Misses++
		if onMiss != nil {
			onMiss(p, victim)
		}
	}
	c.clock = clock
	return misses
}

// chooseVictim picks the way a miss fills: the only way of a one-way
// set, else the first invalid way if any, else the policy's choice. A
// one-way set draws nothing from the Random generator, as Probe, which
// never walks a one-way set, draws nothing.
func (c *Cache) chooseVictim(ways []way) int {
	if len(ways) == 1 {
		return 0
	}
	if c.cfg.Replacement != Random {
		// LRU and FIFO evict the smallest stamp. Fills stamp a clock of at
		// least 1 and invalid ways keep stamp 0, so the first invalid way
		// is the first smallest.
		victim := 0
		for i := 1; i < len(ways); i++ {
			if ways[i].stamp < ways[victim].stamp {
				victim = i
			}
		}
		return victim
	}
	for i := range ways {
		if ways[i].key == 0 {
			return i
		}
	}
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	return int(c.rng & uint64(len(ways)-1)) // ways are a power of two
}

// Resident reports whether the line containing addr is currently cached
// (for tests and diagnostics).
func (c *Cache) Resident(addr uint32) bool {
	set := c.Set(addr)
	tag := addr >> c.tagShift
	base := int(set) * c.cfg.Assoc
	for _, w := range c.sets[base : base+c.cfg.Assoc] {
		if w.key == tag+1 {
			return true
		}
	}
	return false
}

// LinesOf returns how many resident lines belong to the given memory
// object (for tests and diagnostics).
func (c *Cache) LinesOf(mo int) int {
	n := 0
	for _, w := range c.sets {
		if w.key != 0 && int(w.mo) == mo {
			n++
		}
	}
	return n
}

// ReplacementState returns the replacement clock and every way's
// LRU/FIFO stamp, set-major (for tests and diagnostics). Two caches with
// equal residency and statistics but different replacement order dump
// the same state; these tell them apart.
func (c *Cache) ReplacementState() (clock uint64, stamps []uint64) {
	stamps = make([]uint64, len(c.sets))
	for i, w := range c.sets {
		stamps[i] = w.stamp
	}
	return c.clock, stamps
}

// StatsOf returns the per-set totals for a set index.
func (c *Cache) StatsOf(set int) SetStats { return c.stats[set] }

// TotalStats aggregates the per-set totals over the whole cache.
func (c *Cache) TotalStats() SetStats {
	var t SetStats
	for _, s := range c.stats {
		t.Hits += s.Hits
		t.Misses += s.Misses
		t.Evictions += s.Evictions
	}
	return t
}

// DumpState writes a human-readable per-set snapshot of the cache: the
// resident line of every way (reconstructed address and owning memory
// object) plus the set's hit/miss/eviction totals — live cache
// inspection for the simulated hierarchy. Sets that are empty and were
// never touched are elided.
func (c *Cache) DumpState(w io.Writer) error {
	total := c.TotalStats()
	if _, err := fmt.Fprintf(w, "cache %dB %d-way %dB-lines (%d sets): %d hits %d misses %d evictions\n",
		c.cfg.SizeBytes, c.cfg.Assoc, c.cfg.LineBytes, c.cfg.Sets(),
		total.Hits, total.Misses, total.Evictions); err != nil {
		return err
	}
	setBits := log2(uint32(c.cfg.Sets()))
	for set := 0; set < c.cfg.Sets(); set++ {
		st := c.stats[set]
		base := set * c.cfg.Assoc
		ways := c.sets[base : base+c.cfg.Assoc]
		occupied := 0
		for _, wy := range ways {
			if wy.key != 0 {
				occupied++
			}
		}
		if occupied == 0 && st == (SetStats{}) {
			continue
		}
		if _, err := fmt.Fprintf(w, "  set %4d: hits=%-8d misses=%-8d evictions=%-8d",
			set, st.Hits, st.Misses, st.Evictions); err != nil {
			return err
		}
		for wi, wy := range ways {
			if wy.key == 0 {
				continue
			}
			addr := ((wy.key-1)<<setBits | uint32(set)) << c.indexShift
			mo := "cold"
			if wy.mo != NoMO {
				mo = fmt.Sprintf("mo=%d", wy.mo)
			}
			if _, err := fmt.Fprintf(w, " way%d[%#x %s]", wi, addr, mo); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
