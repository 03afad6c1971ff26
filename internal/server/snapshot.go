package server

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Crash-safe warm state (DESIGN.md §14). Everything casad learns from
// traffic — proven result responses and warm donor selections — dies
// with the process, so a restart used to serve cold until live traffic
// re-earned it. With Config.SnapshotPath set, a background loop
// persists that state every SnapshotEvery (plus once on graceful
// shutdown) and boot restores it, so even a kill -9'd daemon comes back
// at most SnapshotEvery behind: identical answers straight from the
// restored cache, and warm-start cutoffs on the first solves.
//
// The format is versioned JSON (snapshotVersion); a reader refuses any
// other version rather than guessing. Writes go through a temp file and
// os.Rename, so a crash mid-save leaves the previous snapshot intact —
// never a torn one. Only donors for bundled workloads are persisted:
// their trace sets rebuild deterministically from the name via
// experiments.PrepareProgram, where a custom program's source may be
// gone with the intern table. Restored donors are sanity-checked
// (selection length must match the rebuilt trace set) and dropped on
// any mismatch — a stale snapshot degrades to a cold start, never to a
// wrong answer (cutoffs could prune the optimum if they lied).

// snapshotVersion is the only format this build writes and reads.
const snapshotVersion = 1

var (
	mSnapSaves    = obs.GetCounter("casa_server_snapshot_saves_total")
	mSnapRestores = obs.GetCounter("casa_server_snapshot_restores_total")
	mSnapEntries  = obs.GetCounter("casa_server_snapshot_entries_restored_total")
)

// snapCacheEntry is one persisted result-cache entry.
type snapCacheEntry struct {
	Key      string    `json:"key"`
	Response *Response `json:"response"`
}

// snapshotFile is the on-disk layout.
type snapshotFile struct {
	Version   int                     `json:"version"`
	SavedUnix int64                   `json:"saved_unix"`
	Cache     []snapCacheEntry        `json:"cache"`
	Warm      []experiments.WarmDonor `json:"warm"`
}

// SaveSnapshot atomically persists the current warm state to path.
func (s *Server) SaveSnapshot(path string) error {
	snap := snapshotFile{
		Version:   snapshotVersion,
		SavedUnix: time.Now().Unix(),
		Warm:      s.warm.Dump(),
	}
	for _, e := range s.cache.dump() {
		snap.Cache = append(snap.Cache, snapCacheEntry{Key: e.key, Response: e.resp})
	}
	data, err := json.Marshal(&snap)
	if err != nil {
		return fmt.Errorf("snapshot: encode: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	mSnapSaves.Inc()
	return nil
}

// RestoreSnapshot loads path into the result cache and warm store,
// returning how many entries it restored. A missing file is a cold
// start, not an error; a torn or wrong-version file is an error (the
// caller logs and serves cold). Responses go back into the cache as-is;
// warm donors are rebuilt by re-preparing the named workload's
// deterministic trace set and cross-checked against the persisted
// selection length.
func (s *Server) RestoreSnapshot(path string) (int, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		return 0, fmt.Errorf("snapshot: decode %s: %w", path, err)
	}
	if snap.Version != snapshotVersion {
		return 0, fmt.Errorf("snapshot: %s has version %d, this build reads %d", path, snap.Version, snapshotVersion)
	}
	restored := 0
	for _, e := range snap.Cache {
		if e.Key == "" || e.Response == nil || e.Response.Degraded {
			continue
		}
		s.cache.put(e.Key, e.Response)
		restored++
	}
	ctx := context.Background()
	for _, d := range snap.Warm {
		prog, err := workload.Shared(d.Workload)
		if err != nil {
			continue
		}
		pipe, err := experiments.PrepareProgram(ctx, prog, d.Cache(), d.SPMBytes)
		if err != nil || len(pipe.Set.Traces) != len(d.InSPM) {
			continue
		}
		s.warm.Record(pipe, d.InSPM)
		restored++
	}
	if restored > 0 {
		mSnapRestores.Inc()
		mSnapEntries.Add(int64(restored))
	}
	return restored, nil
}

// snapshotLoop persists warm state every SnapshotEvery until Shutdown
// (which takes its own final snapshot after the drain).
func (s *Server) snapshotLoop() {
	t := time.NewTicker(s.cfg.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if err := s.SaveSnapshot(s.cfg.SnapshotPath); err != nil {
				s.logger.Warn("periodic snapshot failed", "path", s.cfg.SnapshotPath, "err", err)
			}
		}
	}
}
