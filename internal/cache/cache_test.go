package cache

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func dm128() Config {
	return Config{SizeBytes: 128, LineBytes: 16, Assoc: 1}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, LineBytes: 16, Assoc: 1},
		{SizeBytes: 100, LineBytes: 16, Assoc: 1},
		{SizeBytes: 128, LineBytes: 3, Assoc: 1},
		{SizeBytes: 128, LineBytes: 16, Assoc: 0},
		{SizeBytes: 16, LineBytes: 16, Assoc: 4},
		{SizeBytes: 128, LineBytes: 16, Assoc: 1, Replacement: Policy(9)},
		// 21 sets: a mask reaches only 4 of them.
		{SizeBytes: 1024, LineBytes: 16, Assoc: 3},
		// 1 set of 3 ways holds 48 of the 64 bytes.
		{SizeBytes: 64, LineBytes: 16, Assoc: 3},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid config", cfg)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted invalid config", cfg)
		}
	}
	if err := dm128().Validate(); err != nil {
		t.Errorf("Validate(dm128) = %v", err)
	}
	if got := dm128().Sets(); got != 8 {
		t.Errorf("Sets = %d, want 8", got)
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "lru" || FIFO.String() != "fifo" || Random.String() != "random" {
		t.Error("policy names wrong")
	}
	if Policy(7).String() != "policy(7)" {
		t.Errorf("Policy(7) = %q", Policy(7).String())
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	if _, err := New(Config{SizeBytes: 3, LineBytes: 16, Assoc: 1}); err == nil {
		t.Fatal("New accepted an invalid config")
	}
}

// mustNew builds a cache, failing the test on error.
func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return c
}

func TestColdMissThenHit(t *testing.T) {
	c := mustNew(t, dm128())
	r := c.Access(0x100, 1)
	if r.Hit {
		t.Error("first access should miss")
	}
	if r.VictimMO != NoMO {
		t.Errorf("cold miss victim = %d, want NoMO", r.VictimMO)
	}
	// Same line (within 16 bytes) hits.
	for _, a := range []uint32{0x100, 0x104, 0x108, 0x10c} {
		if r := c.Access(a, 1); !r.Hit {
			t.Errorf("access %#x should hit", a)
		}
	}
	// Next line misses.
	if r := c.Access(0x110, 1); r.Hit {
		t.Error("next line should miss")
	}
}

func TestDirectMappedConflictAttribution(t *testing.T) {
	c := mustNew(t, dm128()) // 8 sets of 16B
	// Addresses 0x000 and 0x080 (128 apart) map to the same set.
	if s0, s1 := c.Set(0x000), c.Set(0x080); s0 != s1 {
		t.Fatalf("sets differ: %d vs %d", s0, s1)
	}
	c.Access(0x000, 1) // cold fill by MO 1
	r := c.Access(0x080, 2)
	if r.Hit {
		t.Fatal("conflicting access should miss")
	}
	if r.VictimMO != 1 {
		t.Errorf("victim = %d, want 1", r.VictimMO)
	}
	// MO 1 comes back: the miss is attributed to MO 2.
	r = c.Access(0x000, 1)
	if r.Hit || r.VictimMO != 2 {
		t.Errorf("thrash attribution wrong: %+v", r)
	}
}

func TestSelfEviction(t *testing.T) {
	c := mustNew(t, dm128())
	c.Access(0x000, 7)
	r := c.Access(0x080, 7) // same set, same object
	if r.VictimMO != 7 {
		t.Errorf("self-eviction victim = %d, want 7", r.VictimMO)
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way, 2 sets: size=64B, line=16B, assoc=2 -> sets=2.
	cfg := Config{SizeBytes: 64, LineBytes: 16, Assoc: 2, Replacement: LRU}
	c := mustNew(t, cfg)
	// Set 0 lines: addresses with (addr>>4)%2 == 0: 0x00, 0x40, 0x80.
	c.Access(0x00, 1)
	c.Access(0x40, 2)
	c.Access(0x00, 1)      // touch MO 1: MO 2 is now LRU
	r := c.Access(0x80, 3) // fills set 0, evicting LRU
	if r.VictimMO != 2 {
		t.Errorf("LRU victim = %d, want 2", r.VictimMO)
	}
	if !c.Resident(0x00) || c.Resident(0x40) {
		t.Error("LRU kept/evicted the wrong line")
	}
}

func TestFIFOReplacement(t *testing.T) {
	cfg := Config{SizeBytes: 64, LineBytes: 16, Assoc: 2, Replacement: FIFO}
	c := mustNew(t, cfg)
	c.Access(0x00, 1)
	c.Access(0x40, 2)
	c.Access(0x00, 1)      // touch does not matter for FIFO
	r := c.Access(0x80, 3) // evicts the oldest fill: MO 1
	if r.VictimMO != 1 {
		t.Errorf("FIFO victim = %d, want 1", r.VictimMO)
	}
}

func TestRandomReplacementDeterministic(t *testing.T) {
	cfg := Config{SizeBytes: 64, LineBytes: 16, Assoc: 2, Replacement: Random}
	seq := func() []int {
		c := mustNew(t, cfg)
		var victims []int
		c.Access(0x00, 1)
		c.Access(0x40, 2)
		for i := 0; i < 16; i++ {
			r := c.Access(uint32(0x80+i*0x40), 3+i)
			victims = append(victims, r.VictimMO)
		}
		return victims
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("random policy not deterministic at %d: %v vs %v", i, a, b)
		}
	}
}

func TestLinesOf(t *testing.T) {
	c := mustNew(t, dm128())
	c.Access(0x000, 5)
	c.Access(0x010, 5)
	c.Access(0x020, 6)
	if got := c.LinesOf(5); got != 2 {
		t.Errorf("LinesOf(5) = %d, want 2", got)
	}
	if got := c.LinesOf(6); got != 1 {
		t.Errorf("LinesOf(6) = %d, want 1", got)
	}
}

// Property: an access to an address always results in that line being
// resident, and a second immediate access hits.
func TestAccessThenResidentProperty(t *testing.T) {
	cfg := Config{SizeBytes: 256, LineBytes: 16, Assoc: 2, Replacement: LRU}
	c := mustNew(t, cfg)
	f := func(addr uint32, mo uint8) bool {
		c.Access(addr, int(mo))
		if !c.Resident(addr) {
			return false
		}
		return c.Access(addr, int(mo)).Hit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: total resident lines never exceed capacity.
func TestCapacityProperty(t *testing.T) {
	cfg := Config{SizeBytes: 128, LineBytes: 16, Assoc: 4, Replacement: FIFO}
	c := mustNew(t, cfg)
	capacity := cfg.SizeBytes / cfg.LineBytes
	f := func(addrs []uint32) bool {
		for _, a := range addrs {
			c.Access(a, 1)
		}
		return c.LinesOf(1) <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a working set that fits within one way's reach never conflicts
// after warmup in a fully-warm direct-mapped cache.
func TestNoMissesWhenWorkingSetFits(t *testing.T) {
	c := mustNew(t, dm128())
	// Warm all 8 lines of [0,128).
	for a := uint32(0); a < 128; a += 16 {
		c.Access(a, 1)
	}
	for i := 0; i < 1000; i++ {
		a := uint32((i * 20) % 128)
		if r := c.Access(a, 1); !r.Hit {
			t.Fatalf("unexpected miss at %#x", a)
		}
	}
}

func TestSetStatsAndDumpState(t *testing.T) {
	c := mustNew(t, dm128())
	c.Access(0x100, 1) // set 0: cold miss
	c.Access(0x100, 1) // set 0: hit
	c.Access(0x200, 2) // set 0: miss, evicts mo 1
	c.Access(0x110, 3) // set 1: cold miss

	if got := c.StatsOf(0); got != (SetStats{Hits: 1, Misses: 2, Evictions: 1}) {
		t.Errorf("StatsOf(0) = %+v", got)
	}
	if got := c.StatsOf(1); got != (SetStats{Misses: 1}) {
		t.Errorf("StatsOf(1) = %+v", got)
	}
	if got := c.TotalStats(); got != (SetStats{Hits: 1, Misses: 3, Evictions: 1}) {
		t.Errorf("TotalStats = %+v", got)
	}

	var buf strings.Builder
	if err := c.DumpState(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Header carries the geometry and totals; per-set lines carry stats
	// and resident ways with reconstructed addresses.
	for _, want := range []string{
		"cache 128B 1-way 16B-lines (8 sets): 1 hits 3 misses 1 evictions",
		"set    0:",
		"way0[0x200 mo=2]", // mo 1's line replaced by mo 2
		"way0[0x110 mo=3]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DumpState output missing %q:\n%s", want, out)
		}
	}
	// Untouched sets are elided: only sets 0 and 1 plus the header.
	if got := strings.Count(out, "\n"); got != 3 {
		t.Errorf("DumpState wrote %d lines, want 3:\n%s", got, out)
	}
}

// missEvent is one onMiss callback (or one missing sequential access):
// the missing line's set and tag and the memory object whose line it
// replaced.
type missEvent struct {
	set, tag uint32
	victim   int
}

// TestAccessRunMatchesSequential checks the probe kernel the
// memory-hierarchy simulator drives: a run of k fetches compiled by
// AppendProbes, credited by CreditHits and performed by Probe must leave
// the cache in exactly the state of k sequential Access calls — every
// way, the clock, LRU/FIFO stamps, the Random generator and per-set
// statistics — and report exactly the sequential misses and their
// victims, in order, through onMiss (which may also be nil) and in the
// probes' Misses. Runs start anywhere in a line and cross line
// boundaries. Some runs repeat back to back, taking the
// steady-state path: probe passes until one misses nowhere, Skip all
// remaining passes but the last, probe the last.
func TestAccessRunMatchesSequential(t *testing.T) {
	for _, assoc := range []int{1, 2, 4, 8} {
		for _, pol := range []Policy{LRU, FIFO, Random} {
			for _, line := range []int{4, 8, 16, 32, 64} {
				cfg := Config{SizeBytes: 1024, LineBytes: line, Assoc: assoc, Replacement: pol}
				t.Run(fmt.Sprintf("%dway-%s-%dB", assoc, pol, line), func(t *testing.T) {
					probeMatchesSequential(t, cfg)
				})
			}
		}
	}
}

func probeMatchesSequential(t *testing.T, cfg Config) {
	run := mustNew(t, cfg)
	seq := mustNew(t, cfg)
	var got, want []missEvent
	onMiss := func(p *Probe, victim int32) { got = append(got, missEvent{p.Set, p.Tag, int(victim)}) }
	// A pool of compiled runs over a 4 KiB code region and a 1 KiB cache
	// (plenty of conflicts), reused the way the simulator reuses a
	// block's probes, so their remembered ways go stale between uses.
	type compiledRun struct {
		addr  uint32
		k, mo int
		ps    []Probe
	}
	pool := make([]compiledRun, 48)
	rng := uint64(0x5eed_0f_ca5e)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := range pool {
		x := next()
		cr := &pool[i]
		cr.addr, cr.k, cr.mo = uint32(x>>20)%4096&^3, int(x>>40)%40, int(x>>8)%6
		cr.ps = run.AppendProbes(nil, cr.addr, cr.k, cr.mo)
	}
	for i := 0; i < 3000; i++ {
		x := next()
		cr := &pool[x%uint64(len(pool))]
		addr, k, mo, ps := cr.addr, cr.k, cr.mo, cr.ps
		reps := int64(1)
		if x>>10%4 == 0 {
			reps = 1 + int64(x>>50)%9
		}
		var missesBefore int64
		for _, p := range ps {
			missesBefore += p.Misses
		}

		run.CreditHits(ps, reps)
		cb := onMiss
		if i%5 == 0 {
			cb = nil
		}
		var misses int64
		rem := reps
		for rem > 0 {
			rem--
			m := run.Probe(ps, cb)
			misses += m
			if m == 0 {
				break
			}
		}
		if rem > 0 {
			var fetches int64
			for _, p := range ps {
				fetches += int64(p.N)
			}
			run.Skip((rem - 1) * fetches)
			misses += run.Probe(ps, cb)
		}

		var wantMisses, wantLines int64
		for r := int64(0); r < reps; r++ {
			for j := 0; j < k; j++ {
				a := addr + uint32(4*j)
				if r == 0 && (j == 0 || a%uint32(cfg.LineBytes) == 0) {
					wantLines++
				}
				if r := seq.Access(a, mo); !r.Hit {
					wantMisses++
					want = append(want, missEvent{seq.Set(a), a >> seq.tagShift, r.VictimMO})
				}
			}
		}
		if misses != wantMisses || int64(len(ps)) != wantLines {
			t.Fatalf("run %d (%#x, %d×%d): misses/probes %d/%d, sequential %d/%d",
				i, addr, k, reps, misses, len(ps), wantMisses, wantLines)
		}
		probeMisses := -missesBefore
		pa := addr // each probe's first fetch
		for _, p := range ps {
			if p.Set != seq.Set(pa) || p.Tag != pa>>seq.tagShift || p.MO != int32(mo) {
				t.Fatalf("run %d: probe %+v does not follow the cache's mapping of %#x", i, p, pa)
			}
			pa += 4 * p.N
			probeMisses += p.Misses
		}
		if probeMisses != wantMisses {
			t.Fatalf("run %d: probes count %d misses, sequential %d", i, probeMisses, wantMisses)
		}
		if cb == nil {
			want = want[:0]
		}
		if !slices.Equal(got, want) {
			t.Fatalf("run %d (%#x, %d×%d): onMiss sequence\n got %+v\nwant %+v", i, addr, k, reps, got, want)
		}
		if !slices.Equal(run.sets, seq.sets) {
			t.Fatalf("run %d (%#x, %d×%d): ways differ", i, addr, k, reps)
		}
		if !slices.Equal(run.stats, seq.stats) {
			t.Fatalf("run %d (%#x, %d×%d): per-set stats differ", i, addr, k, reps)
		}
		if run.clock != seq.clock || run.rng != seq.rng {
			t.Fatalf("run %d: clock/rng %d/%#x, sequential %d/%#x", i, run.clock, run.rng, seq.clock, seq.rng)
		}
		got, want = got[:0], want[:0]
	}
}
