package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asm"
	"repro/internal/experiments"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Shape of the serve-mix workload.
const (
	// clients is the closed loop's connection count: each sends its next
	// request only once the previous answer arrived.
	clients = 2
	// customPrograms is the pool of random programs; internCapacity, the
	// server's interned-program limit, is below it so custom requests
	// keep evicting, re-parsing and re-profiling programs.
	customPrograms = 16
	internCapacity = 8
	// resultEntries is the server's result-cache capacity: far above the
	// hit set, below the cold pools, so cycling cold keys stay cold.
	resultEntries = 32
)

var bundled = []string{"adpcm", "g721", "mpeg"}

// classWeights set how often the schedule draws each class. They are
// casaload's default -mix cold:2,warm:5,dup:2,oversized:1 doubled, with
// warm as hit and oversized as invalid, and a dup draw sends dupBurst
// identical requests, casaload's default -burst. casaload's cold share
// is split 3:1 between sweep and custom; no traffic record backs that
// split.
var classWeights = []struct {
	class  string
	weight int
}{{"hit", 10}, {"sweep", 3}, {"custom", 1}, {"dup", 4}, {"invalid", 2}}

const dupBurst = 8

// sweepAxes are the hierarchy parameters a sweep walk varies, with the
// two values each takes.
var sweepAxes = map[string][2]int{
	"cache": {1024, 2048},
	"line":  {16, 32},
	"assoc": {1, 2},
	"spm":   {256, 512},
}

// sweepWalks lists the axes each bundled workload's walk varies. g721,
// the middle-cost workload, walks twice as many hierarchies as the
// others, and dup bursts are g721 too, so the median solve is a g721 one
// and not at the edge between two workloads' costs.
var sweepWalks = []struct {
	workload string
	axes     []string
}{
	{"adpcm", []string{"cache", "assoc", "spm"}},
	{"g721", []string{"cache", "line", "assoc", "spm"}},
	{"mpeg", []string{"cache", "assoc", "spm"}},
}

// hierarchy and request mirror the casad wire format.
type hierarchy struct {
	CacheBytes int `json:"cache_bytes"`
	LineBytes  int `json:"line_bytes"`
	Assoc      int `json:"assoc"`
	SPMBytes   int `json:"spm_bytes"`
}

type request struct {
	Workload  string    `json:"workload,omitempty"`
	Program   string    `json:"program,omitempty"`
	Hierarchy hierarchy `json:"hierarchy"`
	Allocator string    `json:"allocator,omitempty"`
}

// answer is the part of a response the oracle checks, and how it was
// served.
type answer struct {
	EnergyMicroJ float64 `json:"energy_uj"`
	Cycles       int64   `json:"cycles"`
	CacheMisses  int64   `json:"cache_misses"`
	PlacedTraces int     `json:"placed_traces"`
	UsedBytes    int     `json:"used_bytes"`
	Degraded     bool    `json:"degraded"`
	Cached       bool    `json:"cached"`
	Coalesced    bool    `json:"coalesced"`
	ElapsedMS    float64 `json:"elapsed_ms"`
}

func (a answer) sameResult(b answer) bool {
	return a.EnergyMicroJ == b.EnergyMicroJ && a.Cycles == b.Cycles && a.CacheMisses == b.CacheMisses &&
		a.PlacedTraces == b.PlacedTraces && a.UsedBytes == b.UsedBytes
}

// pools are the request bodies a schedule draws from. The bundled-
// workload hierarchies are the same for every seed, so each seed does the
// same work per cycle; the seed orders them and draws the hit caches and
// the random programs. The class lists index keys, and no key is in two
// classes.
type pools struct {
	keys                    []request
	bodies                  [][]byte
	hit, sweep, custom, dup []int
	invalid                 [][]byte
}

func buildPools(seed uint64) (*pools, error) {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	p := &pools{}
	add := func(r request) (int, error) {
		b, err := json.Marshal(r)
		p.keys = append(p.keys, r)
		p.bodies = append(p.bodies, b)
		return len(p.keys) - 1, err
	}
	pick := func(xs ...int) int { return xs[rng.IntN(len(xs))] }
	var errs []error
	addTo := func(class *[]int, r request) {
		k, err := add(r)
		*class = append(*class, k)
		errs = append(errs, err)
	}

	// Hit keys use caches no sweep or dup key has.
	for _, wl := range bundled {
		addTo(&p.hit, request{Workload: wl, Hierarchy: hierarchy{pick(512, 4096), 16, 1, pick(128, 256)}})
	}
	addTo(&p.hit, request{Workload: "g721", Hierarchy: hierarchy{pick(512, 4096), 16, 1, 384}})
	for _, w := range sweepWalks {
		for _, r := range grayWalk(rng, w.workload, w.axes) {
			addTo(&p.sweep, r)
		}
	}
	// Dup keys use scratchpad sizes no other key has. There are 24, so a
	// key has left the result cache before its next burst.
	for _, cache := range []int{1024, 2048} {
		for _, line := range []int{16, 32} {
			for _, assoc := range []int{1, 2} {
				for _, spm := range []int{192, 320, 448} {
					addTo(&p.dup, request{Workload: "g721", Hierarchy: hierarchy{cache, line, assoc, spm}})
				}
			}
		}
	}
	rng.Shuffle(len(p.dup), func(i, j int) { p.dup[i], p.dup[j] = p.dup[j], p.dup[i] })
	for range customPrograms {
		prog, err := workload.Random(workload.RandomSpec{
			Seed: rng.Uint64(), Funcs: 8, SegmentsPerFunc: 6, MaxTrips: 16, MaxBlockInstrs: 16,
		})
		if err != nil {
			return nil, err
		}
		var src strings.Builder
		if err := asm.Write(&src, prog); err != nil {
			return nil, err
		}
		// One hierarchy per program: casad never sees a same-program
		// neighbor, so custom solves never start warm (see README.md).
		addTo(&p.custom, request{Program: src.String(), Hierarchy: hierarchy{pick(256, 512), 16, 1, pick(64, 128)}})
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	for _, r := range []request{
		{Workload: "mpeg", Hierarchy: hierarchy{2048, 16, 1, 4 << 20}},         // scratchpad beyond the limit
		{Workload: "no-such-workload", Hierarchy: hierarchy{2048, 16, 1, 256}}, // unknown workload
		{Workload: "g721", Hierarchy: hierarchy{3000, 16, 1, 256}},             // cache not a power of two
		{Hierarchy: hierarchy{1024, 16, 1, 256}},                               // no program
		{Workload: "adpcm", Hierarchy: hierarchy{1024, 16, 1, 256}, Allocator: "no-such-allocator"},
		{Workload: "adpcm", Hierarchy: hierarchy{512, 1024, 1, 256}}, // line larger than the cache
	} {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		p.invalid = append(p.invalid, b)
	}
	return p, nil
}

// grayWalk visits all 2^len(axes) hierarchies of one workload's sweep
// in Gray-code order, so consecutive ones differ in exactly one
// parameter: the neighbors casad's warm store transfers solves between.
// The seed picks the axis order and the starting corner.
func grayWalk(rng *rand.Rand, wl string, axes []string) []request {
	perm := rng.Perm(len(axes))
	start := rng.IntN(1 << len(axes))
	walk := make([]request, 0, 1<<len(axes))
	for i := range 1 << len(axes) {
		corner := i ^ i>>1 ^ start
		h := hierarchy{CacheBytes: 1024, LineBytes: 16, Assoc: 1, SPMBytes: 256}
		for bit, a := range perm {
			v := sweepAxes[axes[a]][corner>>bit&1]
			switch axes[a] {
			case "cache":
				h.CacheBytes = v
			case "line":
				h.LineBytes = v
			case "assoc":
				h.Assoc = v
			case "spm":
				h.SPMBytes = v
			}
		}
		walk = append(walk, request{Workload: wl, Hierarchy: h})
	}
	return walk
}

// job is one scheduled request; key is -1 for invalid bodies.
type job struct {
	class string
	key   int
	body  []byte
}

// schedule is the seeded request sequence one phase replays. Cold pools
// are cycled in order, so a key comes back only after the result cache
// has evicted it.
type schedule struct {
	mu      sync.Mutex
	p       *pools
	rng     *rand.Rand
	pending []job
	n       map[string]int
}

func newSchedule(p *pools, seed uint64) *schedule {
	return &schedule{p: p, rng: rand.New(rand.NewPCG(seed, 0x5c4e)), n: map[string]int{}}
}

func (s *schedule) next() job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) > 0 {
		j := s.pending[0]
		s.pending = s.pending[1:]
		return j
	}
	total := 0
	for _, cw := range classWeights {
		total += cw.weight
	}
	r := s.rng.IntN(total)
	class := ""
	for _, cw := range classWeights {
		if r < cw.weight {
			class = cw.class
			break
		}
		r -= cw.weight
	}
	cycle := func(xs []int) int {
		k := xs[s.n[class]%len(xs)]
		s.n[class]++
		return k
	}
	var k int
	switch class {
	case "hit":
		k = s.p.hit[s.rng.IntN(len(s.p.hit))]
	case "sweep":
		k = cycle(s.p.sweep)
	case "custom":
		k = cycle(s.p.custom)
	case "dup":
		k = cycle(s.p.dup)
		for range dupBurst - 1 {
			s.pending = append(s.pending, job{class, k, s.p.bodies[k]})
		}
	default:
		b := s.p.invalid[s.n[class]%len(s.p.invalid)]
		s.n[class]++
		return job{class, -1, b}
	}
	return job{class, k, s.p.bodies[k]}
}

// daemon is one in-process casad on a loopback listener.
type daemon struct {
	srv  *server.Server
	url  string
	done chan error
}

// startDaemon boots a server with empty caches and waits until /healthz
// answers. Only a traced daemon records request traces, and it retains
// every one of them.
func startDaemon(traced bool) (*daemon, error) {
	cfg := server.Config{
		MaxInflight:  8,
		CacheEntries: resultEntries,
		CacheShards:  1,
		MaxPrograms:  internCapacity,
		TraceSample:  -1,
	}
	if traced {
		cfg.TraceSample = 1
		cfg.TraceSlowCap = 1 << 20
		cfg.TraceSampleEvery = 1
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: server.New(cfg), url: "http://" + l.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.srv.Serve(l) }()
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	for start := time.Now(); time.Since(start) < 10*time.Second; time.Sleep(time.Millisecond) {
		resp, err := client.Get(d.url + "/healthz")
		if err != nil {
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return d, nil
		}
	}
	return nil, errors.Join(errors.New("server never became healthy"), d.stop())
}

// stop drains the server and waits for Serve to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	return errors.Join(err, <-d.done)
}

// sample is one completed request.
type sample struct {
	class  string
	key    int
	id     string
	status int
	ms     float64
	ans    answer
	err    error
}

// problem judges a sample on its own: transport errors, unexpected
// statuses and degraded answers fail it. The oracle checks the rest.
func (sm *sample) problem() string {
	switch {
	case sm.err != nil:
		return sm.err.Error()
	case sm.class == "invalid":
		if sm.status != http.StatusBadRequest {
			return fmt.Sprintf("invalid request answered %d, want 400", sm.status)
		}
	case sm.status != http.StatusOK:
		return fmt.Sprintf("status %d", sm.status)
	case sm.ans.Degraded:
		return "degraded answer"
	}
	return ""
}

func (sm *sample) ranSolve() bool {
	return sm.err == nil && sm.status == http.StatusOK && !sm.ans.Cached && !sm.ans.Coalesced
}

func fire(c *http.Client, url string, j job, id string) sample {
	sm := sample{class: j.class, key: j.key, id: id}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/allocate", bytes.NewReader(j.body))
	if err != nil {
		sm.err = err
		return sm
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", id)
	start := time.Now()
	resp, err := c.Do(req)
	if err == nil {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		sm.status = resp.StatusCode
		if err == nil && sm.status == http.StatusOK {
			err = json.Unmarshal(body, &sm.ans)
		}
	}
	sm.ms = float64(time.Since(start).Nanoseconds()) / 1e6
	sm.err = err
	return sm
}

// drive runs the closed loop against url for d and returns every
// completed request with the loop's wall time.
func drive(url string, s *schedule, d time.Duration, idPrefix string) ([]sample, time.Duration) {
	tr := &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	var (
		mu  sync.Mutex
		all []sample
		seq atomic.Int64
		wg  sync.WaitGroup
	)
	start := time.Now()
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for time.Since(start) < d {
				id := fmt.Sprintf("%s-%07d", idPrefix, seq.Add(1))
				mine = append(mine, fire(client, url, s.next(), id))
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all, time.Since(start)
}

// fetchTraces reads the retained span tree of every sample from the
// traced daemon's /debug/traces/{id}.
func fetchTraces(url string, samples []sample, tally *spanTally) error {
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	for _, sm := range samples {
		resp, err := client.Get(url + "/debug/traces/" + sm.id)
		if err != nil {
			return err
		}
		var t obs.RequestTrace
		err = json.NewDecoder(resp.Body).Decode(&t)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			return fmt.Errorf("trace %s: status %d: %v", sm.id, resp.StatusCode, err)
		}
		tally.add(t.Spans)
	}
	return nil
}

// forgetBundled drops the bundled programs' sim memos, so a phase starts
// as cold as a fresh process.
func forgetBundled() error {
	for _, name := range bundled {
		p, err := workload.Shared(name)
		if err != nil {
			return err
		}
		sim.Forget(p)
	}
	return nil
}

// oracle answers r on a standalone cold pipeline: no suite, presolve
// session or warm donor. It also returns the number of traces formed.
func oracle(r request) (answer, int, error) {
	var prog *ir.Program
	var err error
	if r.Workload != "" {
		prog, err = workload.Shared(r.Workload)
	} else {
		prog, err = asm.ParseString(r.Program, "oracle")
		if prog != nil {
			defer sim.Forget(prog)
		}
	}
	if err != nil {
		return answer{}, 0, err
	}
	ctx := context.Background()
	spec := experiments.CacheSpec{Size: r.Hierarchy.CacheBytes, Line: r.Hierarchy.LineBytes, Assoc: r.Hierarchy.Assoc}
	pipe, err := experiments.PrepareProgram(ctx, prog, spec, r.Hierarchy.SPMBytes)
	if err != nil {
		return answer{}, 0, err
	}
	out, err := pipe.RunCASA(ctx)
	if err != nil {
		return answer{}, 0, err
	}
	return answer{
		EnergyMicroJ: out.EnergyMicroJ,
		Cycles:       out.Result.Cycles,
		CacheMisses:  out.Result.CacheMisses,
		PlacedTraces: out.PlacedTraces,
		UsedBytes:    out.UsedBytes,
	}, len(pipe.Set.Traces), nil
}

// judge applies the per-sample rules and the oracle to every sample,
// returning the failure count and each answered key's trace count.
func judge(p *pools, samples []sample) (int, map[int]int, error) {
	want := map[int]answer{}
	traces := map[int]int{}
	failed := 0
	for i := range samples {
		sm := &samples[i]
		why := sm.problem()
		if why == "" && sm.key >= 0 {
			w, ok := want[sm.key]
			if !ok {
				var n int
				var err error
				w, n, err = oracle(p.keys[sm.key])
				if err != nil {
					return 0, nil, fmt.Errorf("oracle for %s: %w", p.bodies[sm.key][:min(len(p.bodies[sm.key]), 80)], err)
				}
				want[sm.key], traces[sm.key] = w, n
			}
			if !sm.ans.sameResult(w) {
				why = fmt.Sprintf("answer %+v differs from the cold oracle %+v", sm.ans, w)
			}
		}
		if why != "" {
			failed++
			if failed <= 3 {
				fmt.Fprintf(os.Stderr, "perfbench: failed request %s (%s): %s\n", sm.id, sm.class, why)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: oracle recomputed %d distinct keys\n", len(want))
	return failed, traces, nil
}

// latencies splits the non-invalid samples' client latencies into all
// and those that ran a solve.
func latencies(samples []sample) (all, cold []float64) {
	for _, sm := range samples {
		if sm.class == "invalid" || sm.err != nil {
			continue
		}
		all = append(all, sm.ms)
		if sm.ranSolve() {
			cold = append(cold, sm.ms)
		}
	}
	return all, cold
}

func printClasses(samples []sample) {
	by := map[string][]float64{}
	for _, sm := range samples {
		by[sm.class] = append(by[sm.class], sm.ms)
	}
	classes := make([]string, 0, len(by))
	for c := range by {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(os.Stderr, "perfbench:   %-8s n=%-6d p50 %.3f ms\n", c, len(by[c]), median(by[c]))
	}
}

func runServe(o options) (*result, error) {
	// Set-up builds the bundled programs and the random programs' asm,
	// then boots a daemon. A set-up-only process exits with the daemon
	// still serving; exiting ends it.
	for _, name := range bundled {
		if _, err := workload.Shared(name); err != nil {
			return nil, err
		}
	}
	p, err := buildPools(o.seed)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(false)
	if err != nil || o.setupOnly {
		return nil, err
	}

	if !o.traced {
		samples, wall := drive(d.url, newSchedule(p, o.seed), o.seconds, "u")
		rss, rssErr := peakRSSMB()
		if err := errors.Join(rssErr, d.stop()); err != nil {
			return nil, err
		}
		printClasses(samples)
		failed, _, err := judge(p, samples)
		if err != nil {
			return nil, err
		}
		lat, cold := latencies(samples)
		res := &result{Correct: failed == 0, Attempted: len(samples), Failed: failed}
		res.Metrics = endToEnd(o.setupS, lat, cold, float64(len(samples))/wall.Seconds(), rss)
		return res, nil
	}

	// Traced run: an untraced half, then a traced half replaying the same
	// schedule on a fresh daemon; both start with cold sim memos.
	half := o.seconds / 2
	var use runtimeUse
	if err := forgetBundled(); err != nil {
		return nil, err
	}
	use.begin()
	plain, _ := drive(d.url, newSchedule(p, o.seed), half, "u")
	use.end(len(plain))
	if err := d.stop(); err != nil {
		return nil, err
	}
	if err := forgetBundled(); err != nil {
		return nil, err
	}
	if d, err = startDaemon(true); err != nil {
		return nil, err
	}
	before := obs.Default.Snapshot()
	traced, _ := drive(d.url, newSchedule(p, o.seed), half, "t")
	counters := obs.Default.Delta(before)
	tally := newSpanTally("server.request_self_ms")
	err = fetchTraces(d.url, traced, tally)
	if err := errors.Join(err, d.stop()); err != nil {
		return nil, err
	}
	printClasses(traced)
	failed, traceCounts, err := judge(p, append(plain, traced...))
	if err != nil {
		return nil, err
	}

	traces, overheadMS, answered := 0, 0.0, 0
	for _, sm := range traced {
		if sm.ranSolve() {
			traces += traceCounts[sm.key]
		}
		if sm.err == nil && sm.status == http.StatusOK {
			overheadMS += sm.ms - sm.ans.ElapsedMS
			answered++
		}
	}
	m := layerMetrics(tally, counters, float64(len(traced)), float64(traces))
	use.report(m)
	m["client.overhead_ms"] = metric{ratio(overheadMS, float64(answered)), "ms"}
	m["obs.trace_overhead_pct"] = metric{100 * (meanMS(traced)/meanMS(plain) - 1), "%"}
	covErr := tally.checkCoverage()
	if covErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", covErr)
	}
	if err := reportLayers(m); err != nil {
		return nil, err
	}
	total := len(plain) + len(traced)
	return &result{Correct: failed == 0 && covErr == nil, Attempted: total, Failed: failed, Metrics: m}, nil
}

// meanMS is the mean client latency of the samples.
func meanMS(samples []sample) float64 {
	sum := 0.0
	for _, sm := range samples {
		sum += sm.ms
	}
	return ratio(sum, float64(len(samples)))
}
