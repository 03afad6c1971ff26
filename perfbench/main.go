// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed time through the program's public entry points,
// checks every output against an oracle, and prints one JSON object as
// the last line of standard output: the end-to-end metrics on an
// untraced run (-trace 0), the per-layer metrics on a traced run
// (-trace 1). README.md describes the workloads, the metrics and what
// counts as a failed operation.
//
//	perfbench -workload fig4-grid|sensitivity-grid|serve-mix -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options are the inputs of one run.
type options struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	// setupOnly makes the runner return right after its set-up: the
	// point where it would start timing.
	setupOnly bool
	// setupS is the measured set-up time, for the end-to-end metrics.
	setupS float64
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*result, error){
	"fig4-grid":        func(o options) (*result, error) { return runGrid(fig4Grid(), o) },
	"sensitivity-grid": func(o options) (*result, error) { return runGrid(sensitivityGrid(), o) },
	"serve-mix":        runServe,
}

// setupReps is how many set-up processes a run times; setup_s is the
// median.
const setupReps = 31

func main() {
	var opts options
	name := flag.String("workload", "", "fig4-grid, sensitivity-grid or serve-mix")
	flag.Uint64Var(&opts.seed, "seed", 1, "workload seed: the serve-mix schedule and its random programs derive only from it")
	seconds := flag.Float64("seconds", 20, "measurement time in seconds")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.BoolVar(&opts.setupOnly, "setup-only", false, "run the workload's set-up, print the time it ended and exit; setup_s times processes started this way")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	opts.seconds = time.Duration(*seconds * float64(time.Second))
	opts.traced = *trace == 1

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if opts.setupOnly {
		if _, err := run(opts); err != nil {
			fail(err)
		}
		// Set-up ends here. The parent times up to this instant, so
		// process exit is not counted.
		fmt.Println(time.Now().UnixNano())
		return
	}
	if !opts.traced {
		setupS, err := timeSetup()
		if err != nil {
			fail(err)
		}
		opts.setupS = setupS
	}
	res, err := run(opts)
	if err == nil {
		err = checkFinite(res)
	}
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(res)
	}
	if err != nil {
		fail(err)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// checkFinite rejects a result JSON cannot carry.
func checkFinite(res *result) error {
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return nil
}

// timeSetup starts setupReps processes that each run this workload's
// set-up, print the wall-clock time at which it ended, and exit. It
// returns the median, in seconds, of the time from just before a process
// starts to the end of its set-up; process exit is not set-up and is not
// counted.
func timeSetup() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	args := append([]string{"-setup-only"}, os.Args[1:]...)
	ds := make([]float64, 0, setupReps)
	for range setupReps {
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		start := time.Now()
		out, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("set-up process: %w", err)
		}
		end, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("set-up process end time: %w", err)
		}
		// The child's reading has no monotonic part, so Sub compares wall
		// clocks.
		ds = append(ds, time.Unix(0, end).Sub(start).Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-up processes (s): %.4f\n", ds)
	return median(ds), nil
}

// median returns the middle value of xs (the mean of the middle two for
// an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest-percentile sample that still has at least
// ten samples above it, with that percentile; with fewer than eleven
// samples it returns the maximum at percentile 100.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 11
	if i < 0 {
		i = len(s) - 1
	}
	return s[i], 100 * float64(i+1) / float64(len(s))
}

// ratio is num/den, or 0 when the base is empty.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runtimeUse accumulates Go runtime costs over measured operations.
type runtimeUse struct {
	allocBytes, gcCycles, pauseNS uint64
	ops                           int
	before                        runtime.MemStats
}

func (u *runtimeUse) begin() { runtime.ReadMemStats(&u.before) }

func (u *runtimeUse) end(ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	u.allocBytes += after.TotalAlloc - u.before.TotalAlloc
	u.gcCycles += uint64(after.NumGC - u.before.NumGC)
	u.pauseNS += after.PauseTotalNs - u.before.PauseTotalNs
	u.ops += ops
}

func (u *runtimeUse) report(m map[string]metric) {
	ops := float64(u.ops)
	m["runtime.alloc_mb_per_op"] = metric{ratio(float64(u.allocBytes)/(1<<20), ops), "MB"}
	m["runtime.gc_cycles_per_op"] = metric{ratio(float64(u.gcCycles), ops), "count"}
	m["runtime.gc_pause_ms"] = metric{ratio(float64(u.pauseNS)/1e6, ops), "ms"}
}

// endToEnd fills the end-to-end metrics shared by every workload. An
// operation is one cold grid or one request; cold holds the latencies of
// operations that ran a solve.
func endToEnd(setupS float64, lat, cold []float64, opsPerS, rssMB float64) map[string]metric {
	tv, tp := tail(lat)
	fmt.Fprintf(os.Stderr, "perfbench: %d operations, tail = p%.1f, %d cold operations\n", len(lat), tp, len(cold))
	return map[string]metric{
		"setup_s":     {setupS, "s"},
		"op_ms_p50":   {median(lat), "ms"},
		"op_ms_tail":  {tv, "ms"},
		"ops_per_s":   {opsPerS, "1/s"},
		"cold_ms_p50": {median(cold), "ms"},
		"peak_rss_mb": {rssMB, "MB"},
	}
}
