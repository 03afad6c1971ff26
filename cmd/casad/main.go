// Command casad is the CASA allocation daemon: it serves scratchpad
// allocations over HTTP (POST /v1/allocate, program + hierarchy as
// JSON) with a sharded result cache, singleflight request coalescing
// and load-adaptive solve budgets. See DESIGN.md §11 and the README
// quickstart for the request schema.
//
// Usage:
//
//	casad [-addr :8344] [-max-inflight N] [-exact-budget 5s]
//	      [-bounded-budget 150ms] [-cache-entries 4096] [-trace]
//	      [-log-level info] [-trace-sample 1.0] [-version]
//	      [-mem-soft-limit 0] [-snapshot path] [-snapshot-every 30s]
//
// Clients can cap how long they wait with an X-Deadline-Ms header (the
// solve budget and pipeline are clamped to it; expiry is a clean 504).
// -mem-soft-limit arms the memory-pressure watchdog, -snapshot makes
// warm state survive restarts — DESIGN.md §14 covers both.
//
// SIGINT/SIGTERM (or POST /quitquitquit) drain gracefully: in-flight
// solves finish, new requests get 503.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/slogx"
	"repro/internal/server"
)

func main() {
	var (
		addr          = flag.String("addr", ":8344", "listen address")
		maxInflight   = flag.Int("max-inflight", 0, "hard cap on concurrent solves (0 = 4×GOMAXPROCS)")
		exactBudget   = flag.Duration("exact-budget", 0, "solve budget at low load (0 = 5s default)")
		boundedBudget = flag.Duration("bounded-budget", 0, "solve budget under pressure (0 = 150ms default)")
		cacheEntries  = flag.Int("cache-entries", 0, "result-cache capacity (0 = 4096 default)")
		drainTimeout  = flag.Duration("drain-timeout", 0, "graceful-shutdown bound (0 = 30s default)")
		memSoftLimit  = flag.Uint64("mem-soft-limit", 0, "heap soft limit in bytes arming the memory-pressure watchdog (0 = off)")
		snapshotPath  = flag.String("snapshot", "", "warm-state snapshot file: restored on boot, saved periodically and on drain (empty = off)")
		snapshotEvery = flag.Duration("snapshot-every", 0, "periodic snapshot interval (0 = 30s default)")
		logLevel      = flag.String("log-level", "info", "structured-log level: debug, info, warn, error or off")
		traceSample   = flag.Float64("trace-sample", 1, "request-trace sampling rate in [0,1]; 0 disables tracing")
		versionFlag   = flag.Bool("version", false, "print build information and exit")
		traceFlag     = flag.Bool("trace", false,
			fmt.Sprintf("log server progress to stderr (same as %s=1)", obs.EnvTrace))
	)
	flag.Parse()
	if *versionFlag {
		revision, goVersion := server.BuildInfo()
		fmt.Printf("casad %s (%s)\n", revision, goVersion)
		return
	}
	if *traceFlag {
		obs.EnableTrace(os.Stderr)
	}
	logger, err := slogx.Setup(os.Stderr, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "casad:", err)
		os.Exit(2)
	}

	cfg := server.Config{
		MaxInflight:       *maxInflight,
		ExactBudget:       *exactBudget,
		BoundedBudget:     *boundedBudget,
		CacheEntries:      *cacheEntries,
		DrainTimeout:      *drainTimeout,
		MemSoftLimitBytes: *memSoftLimit,
		SnapshotPath:      *snapshotPath,
		SnapshotEvery:     *snapshotEvery,
		Logger:            logger,
		TraceSample:       traceSampleConfig(*traceSample),
	}
	if err := serve(cfg, *addr); err != nil {
		fmt.Fprintln(os.Stderr, "casad:", err)
		os.Exit(1)
	}
}

// traceSampleConfig maps the flag convention (0 = off) onto the Config
// convention (0 = unset, which traces everything; negative = off).
func traceSampleConfig(flagVal float64) float64 {
	if flagVal <= 0 {
		return -1
	}
	return flagVal
}

// serve runs the daemon until an error or a clean drain.
func serve(cfg server.Config, addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return serveListener(cfg, l)
}

// serveListener is serve on an existing listener, split out so tests can
// drive the daemon on an ephemeral port they know the address of.
func serveListener(cfg server.Config, l net.Listener) error {
	s := server.New(cfg)
	fmt.Fprintf(os.Stderr, "casad: listening on %s (%s)\n", l.Addr(), s)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "casad: %v — draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "casad: shutdown:", err)
		}
	}()

	err := s.Serve(l)
	obs.MaybeDumpMetrics(os.Stderr)
	return err
}
