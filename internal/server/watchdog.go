package server

import (
	"runtime"
	"time"

	"repro/internal/obs"
)

// Memory-pressure watchdog (DESIGN.md §14). Every cache the daemon
// accumulates — result responses, interned programs with their sim
// memos, warm donors with their trace sets — is an optimization, not an
// obligation; under memory pressure each is better released than kept
// at the price of the kernel's OOM killer choosing for us. The watchdog
// samples the heap every memCheckEvery and, above MemSoftLimitBytes,
// sheds state in priority order (cheapest to rebuild first):
//
//  1. half of the result cache (LRU tail) — rebuilt by one solve each;
//  2. the interned-program table, releasing every custom program's
//     profile/trace/stream memos (sim.Forget) and warm donors — rebuilt
//     by one parse + profile each;
//  3. the warm donor store — only costs later solves their warm start.
//
// After each level it runs a GC and re-samples; it stops as soon as the
// heap is back under the limit, so a mild overshoot only costs the
// cheap state.
var (
	mMemShed   = obs.GetCounter("casa_server_memory_shed_total")
	mHeapBytes = obs.GetGauge("casa_server_heap_bytes")
)

// watchMemory is the background sampler; Shutdown stops it.
func (s *Server) watchMemory() {
	t := time.NewTicker(memCheckEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.maybeShed()
		}
	}
}

// heapOver samples the live heap (exported as casa_server_heap_bytes)
// and reports whether it exceeds the soft limit.
func (s *Server) heapOver() bool {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mHeapBytes.Set(int64(ms.HeapAlloc))
	return ms.HeapAlloc > s.cfg.MemSoftLimitBytes
}

// maybeShed runs one watchdog check, shedding levels in priority order
// until the heap is back under the soft limit. It returns the names of
// the levels shed (tests drive it synchronously; the ticker ignores
// the result).
func (s *Server) maybeShed() []string {
	if s.cfg.MemSoftLimitBytes == 0 || !s.heapOver() {
		return nil
	}
	var shed []string
	steps := []struct {
		name string
		run  func() int
	}{
		{"result-cache", func() int { return s.cache.shed(0.5) }},
		{"interned-programs", func() int { return s.programs.shedAll() }},
		{"warm-donors", func() int { return s.warm.Clear() }},
	}
	for _, step := range steps {
		n := step.run()
		if n > 0 {
			mMemShed.Inc()
			shed = append(shed, step.name)
			s.logger.Warn("memory watchdog shed", "state", step.name, "entries", n)
		}
		runtime.GC()
		if !s.heapOver() {
			break
		}
	}
	return shed
}
