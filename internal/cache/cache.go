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
	// Seed seeds the Random policy; ignored otherwise.
	Seed uint64
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
	case int(c.Replacement) >= len(policyNames):
		return fmt.Errorf("cache: unknown replacement policy %d", c.Replacement)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Assoc) }

// Fingerprint returns a stable FNV-1a hash of the geometry and policy —
// the cache-configuration component of memoization keys (two configs with
// equal fingerprints behave identically on every fetch stream).
func (c Config) Fingerprint() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range [...]uint64{
		uint64(c.SizeBytes), uint64(c.LineBytes), uint64(c.Assoc),
		uint64(c.Replacement), c.Seed,
	} {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	return h
}

// way is one resident line.
type way struct {
	valid bool
	tag   uint32
	mo    int
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
	// SelfEvict reports whether the victim belonged to the accessing
	// object itself (possible when an object is larger than the cache's
	// per-set reach).
	SelfEvict bool
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
	wordMask   uint32 // words per line - 1; segments runs at line ends
	lineShift  uint
	indexShift uint
	tagShift   uint
	clock      uint64
	rng        uint64
	// assoc and lru mirror cfg.Assoc and cfg.Replacement == LRU so the
	// per-access path never chases the Config struct.
	assoc int
	lru   bool
	// MRU fast path: the line of the most recent access and the global
	// way index (into sets) holding it. Valid whenever lastWay >= 0 —
	// only Access mutates ways, and it maintains both fields on every
	// outcome, so a repeated access to the same line can skip the set
	// walk entirely.
	lastLine uint32
	lastWay  int
}

// New returns an empty cache for the configuration.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{
		cfg:     cfg,
		sets:    make([]way, cfg.Sets()*cfg.Assoc),
		stats:   make([]SetStats, cfg.Sets()),
		rng:     cfg.Seed ^ 0x9e3779b97f4a7c15,
		lastWay: -1,
		assoc:   cfg.Assoc,
		lru:     cfg.Replacement == LRU,
	}
	c.lineShift = log2(uint32(cfg.LineBytes))
	c.setMask = uint32(cfg.Sets() - 1)
	c.wordMask = uint32(cfg.LineBytes/4) - 1
	c.indexShift = c.lineShift
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

// Reset invalidates every line and restarts the policy state and the
// per-set statistics.
func (c *Cache) Reset() {
	for i := range c.sets {
		c.sets[i] = way{}
	}
	for i := range c.stats {
		c.stats[i] = SetStats{}
	}
	c.clock = 0
	c.rng = c.cfg.Seed ^ 0x9e3779b97f4a7c15
	c.lastWay = -1
}

// Set returns the set index for an address.
func (c *Cache) Set(addr uint32) uint32 {
	return (addr >> c.indexShift) & c.setMask
}

// disableFastPath turns off the same-line MRU fast path so tests can
// differentially validate it against the plain set walk. Tests only; not
// safe to flip while caches are in use concurrently.
var disableFastPath bool

// Access performs one fetch by the given memory object and returns the
// outcome. On a miss the line is filled and attributed to mo.
func (c *Cache) Access(addr uint32, mo int) Result {
	line := addr >> c.lineShift
	if line == c.lastLine && c.lastWay >= 0 && !disableFastPath {
		// Same-line MRU fast path: the previous access resolved this
		// line, and only Access mutates ways, so it is still resident in
		// lastWay — a guaranteed hit with no set walk or tag compare.
		// The accounting below is identical to the slow path's hit case.
		c.clock++
		if c.lru {
			c.sets[c.lastWay].stamp = c.clock
		}
		c.stats[line&c.setMask].Hits++
		return Result{Hit: true, VictimMO: NoMO}
	}
	return c.accessSlow(addr, line, mo)
}

// accessSlow resolves an access that missed the MRU fast path. The
// direct-mapped organization — the paper's default and the hot one in
// every line-transition-heavy replay — gets a dedicated branch with no
// way loop.
func (c *Cache) accessSlow(addr, line uint32, mo int) Result {
	set := line & c.setMask
	tag := addr >> c.tagShift
	c.clock++
	if c.assoc == 1 {
		w := &c.sets[set]
		if w.valid && w.tag == tag {
			if c.lru {
				w.stamp = c.clock
			}
			c.stats[set].Hits++
			c.lastLine, c.lastWay = line, int(set)
			return Result{Hit: true, VictimMO: NoMO}
		}
		c.stats[set].Misses++
		res := Result{Hit: false, VictimMO: NoMO}
		if w.valid {
			res.VictimMO = w.mo
			res.SelfEvict = w.mo == mo
			c.stats[set].Evictions++
		}
		*w = way{valid: true, tag: tag, mo: mo, stamp: c.clock}
		c.lastLine, c.lastWay = line, int(set)
		return res
	}

	base := int(set) * c.assoc
	ways := c.sets[base : base+c.assoc]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			if c.lru {
				ways[i].stamp = c.clock
			}
			c.stats[set].Hits++
			c.lastLine, c.lastWay = line, base+i
			return Result{Hit: true, VictimMO: NoMO}
		}
	}

	// Miss: choose a victim.
	c.stats[set].Misses++
	victim := c.chooseVictim(ways)
	res := Result{Hit: false, VictimMO: NoMO}
	if ways[victim].valid {
		res.VictimMO = ways[victim].mo
		res.SelfEvict = ways[victim].mo == mo
		c.stats[set].Evictions++
	}
	ways[victim] = way{valid: true, tag: tag, mo: mo, stamp: c.clock}
	c.lastLine, c.lastWay = line, base+victim
	return res
}

// AccessRun drives k consecutive word fetches starting at addr — a whole
// block run — through the cache, splitting at line boundaries
// internally. It is exactly equivalent to k sequential Access calls but
// resolves each line segment with one inline set walk, for every
// associativity: the first access of a segment decides hit or miss, and
// the remaining ones are guaranteed same-line hits accounted in bulk (the
// clock advances by the segment length and an LRU stamp lands on its
// final value). A direct-mapped hit — the paper's default geometry, and
// the overwhelmingly common outcome in a warm replay — costs one tag
// compare. onMiss is invoked once per missing line with the miss address
// and the access outcome, after the segment is accounted, so the caller
// can attribute the victim and drive a second level without this loop
// paying for it on hits. Returns the number of misses and the number of
// line transitions; hits are k-misses.
func (c *Cache) AccessRun(addr uint32, k int, mo int, onMiss func(addr uint32, r Result)) (misses, lines int64) {
	for k > 0 {
		seg := int(c.wordMask + 1 - (addr>>2)&c.wordMask)
		if seg > k {
			seg = k
		}
		lines++
		line := addr >> c.lineShift
		set := line & c.setMask
		tag := addr >> c.tagShift
		st := &c.stats[set]
		base := int(set) * c.assoc
		end := base + c.assoc
		i := base
		for i < end && !(c.sets[i].valid && c.sets[i].tag == tag) {
			i++
		}
		if i < end {
			c.clock += uint64(seg)
			if c.lru {
				c.sets[i].stamp = c.clock
			}
			st.Hits += int64(seg)
			c.lastLine, c.lastWay = line, i
		} else {
			i = base
			if c.assoc > 1 {
				i += c.chooseVictim(c.sets[base:end])
			}
			w := &c.sets[i]
			c.clock++
			st.Misses++
			r := Result{Hit: false, VictimMO: NoMO}
			if w.valid {
				r.VictimMO = w.mo
				r.SelfEvict = w.mo == mo
				st.Evictions++
			}
			*w = way{valid: true, tag: tag, mo: mo, stamp: c.clock}
			if seg > 1 {
				c.clock += uint64(seg - 1)
				if c.lru {
					w.stamp = c.clock
				}
				st.Hits += int64(seg - 1)
			}
			c.lastLine, c.lastWay = line, i
			misses++
			onMiss(addr, r)
		}
		addr += uint32(seg) * 4
		k -= seg
	}
	return misses, lines
}

// SkipHitRuns bulk-accounts `repeats` consecutive passes over the run
// [addr, addr+4n) under the caller's guarantee that every access hits
// (i.e. one full pass over the run just completed with zero misses — an
// all-hit pass evicts nothing, so the run's lines stay resident and all
// later passes are the same all-hit pass). Per-set hit counters and the
// clock advance exactly as if the accesses were performed one by one.
// LRU stamps and the MRU hint are NOT updated: hits only refresh state
// of lines the run itself touches, so the caller must follow up with one
// real pass (Access or AccessRun), which re-touches every line and
// lands each stamp on its exact final clock value.
func (c *Cache) SkipHitRuns(addr uint32, n int, repeats int64) {
	c.clock += uint64(n) * uint64(repeats)
	for n > 0 {
		seg := int(c.wordMask + 1 - (addr>>2)&c.wordMask)
		if seg > n {
			seg = n
		}
		c.stats[(addr>>c.lineShift)&c.setMask].Hits += int64(seg) * repeats
		addr += uint32(seg) * 4
		n -= seg
	}
}

func (c *Cache) chooseVictim(ways []way) int {
	// Prefer an invalid way.
	for i := range ways {
		if !ways[i].valid {
			return i
		}
	}
	switch c.cfg.Replacement {
	case Random:
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		return int(c.rng % uint64(len(ways)))
	default: // LRU and FIFO both evict the smallest stamp.
		victim := 0
		for i := 1; i < len(ways); i++ {
			if ways[i].stamp < ways[victim].stamp {
				victim = i
			}
		}
		return victim
	}
}

// Resident reports whether the line containing addr is currently cached
// (for tests and diagnostics).
func (c *Cache) Resident(addr uint32) bool {
	set := c.Set(addr)
	tag := addr >> c.tagShift
	base := int(set) * c.cfg.Assoc
	for _, w := range c.sets[base : base+c.cfg.Assoc] {
		if w.valid && w.tag == tag {
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
		if w.valid && w.mo == mo {
			n++
		}
	}
	return n
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
			if wy.valid {
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
			if !wy.valid {
				continue
			}
			addr := (wy.tag<<setBits | uint32(set)) << c.indexShift
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
