package serving

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"ngramstats"
	"ngramstats/internal/lsm"
)

// Defaults for the corresponding CompactConfig fields.
const (
	DefaultCompactDeltas   = 4
	DefaultCompactInterval = 10 * time.Second
)

// CompactConfig is the background compaction policy CompactLoop
// applies to served LSM chains. A chain is compacted when either
// trigger fires.
type CompactConfig struct {
	// MaxDeltas compacts a chain once it has at least this many delta
	// generations. When both MaxDeltas and MaxRatio are zero, MaxDeltas
	// defaults to DefaultCompactDeltas.
	MaxDeltas int
	// MaxRatio compacts a chain once its summed delta records reach
	// this fraction of the base's records (e.g. 0.5 = deltas half the
	// base). Zero disables the ratio trigger.
	MaxRatio float64
	// Interval is how often CompactLoop polls the served chain
	// manifests (default DefaultCompactInterval). Polling reads only
	// the small chain manifest, never the index data.
	Interval time.Duration
	// TempDir is the scratch directory for the compaction merge sort.
	TempDir string
}

// ErrCompactBusy reports that a compaction of the index is already
// running; POST /v1/admin/compact maps it to 409.
var ErrCompactBusy = errors.New("serving: compaction already running")

// CompactNow compacts the named index's LSM chain into a single base
// and hot-swaps the result in, returning the compaction stats and the
// generation now serving. A plain index or a chain without deltas is a
// successful no-op (stats.Compacted false). Queries are never
// disturbed: the running generation keeps serving the old chain until
// the post-compaction reload swaps the new base in.
func (s *Server) CompactNow(name string) (*ngramstats.CompactStats, int64, error) {
	h, ok := s.handles[name]
	if !ok {
		return nil, 0, fmt.Errorf("serving: unknown index %q", name)
	}
	if !h.compacting.CompareAndSwap(false, true) {
		return nil, 0, fmt.Errorf("%w: index %q", ErrCompactBusy, name)
	}
	defer h.compacting.Store(false)

	var tempDir string
	if s.opts.Compact != nil {
		tempDir = s.opts.Compact.TempDir
	}
	h.chainMu.Lock()
	stats, err := ngramstats.CompactIndex(h.cfg.Dir, ngramstats.CompactOptions{
		TempDir:     tempDir,
		CacheBlocks: h.cfg.CacheBlocks,
	})
	h.chainMu.Unlock()
	if err != nil {
		return nil, 0, fmt.Errorf("serving: compact %q: %w", name, err)
	}
	if stats.Compacted {
		gen, err := s.Reload(name)
		if err != nil {
			return stats, 0, err
		}
		return stats, gen, nil
	}
	var gen int64
	if g := h.acquire(); g != nil {
		gen = g.num
		g.release()
	}
	return stats, gen, nil
}

// shouldCompact evaluates the compaction policy against the chain
// manifest alone — a few hundred bytes — so the loop stays cheap on
// idle chains.
func (s *Server) shouldCompact(h *handle) bool {
	cc := s.opts.Compact
	man, err := lsm.ReadManifest(h.cfg.Dir) // fails on a plain index
	if err != nil || len(man.Deltas) == 0 {
		return false
	}
	if cc.MaxDeltas > 0 && len(man.Deltas) >= cc.MaxDeltas {
		return true
	}
	if cc.MaxRatio > 0 && man.Base.Records > 0 {
		var deltas int64
		for _, g := range man.Deltas {
			deltas += g.Records
		}
		if float64(deltas)/float64(man.Base.Records) >= cc.MaxRatio {
			return true
		}
	}
	return false
}

// CompactLoop polls every served chain at the configured interval and
// compacts the ones the policy (ServerOptions.Compact) selects. It
// returns immediately when no policy is configured; otherwise it
// blocks until ctx is done — run it in its own goroutine.
func (s *Server) CompactLoop(ctx context.Context) {
	if s.opts.Compact == nil {
		return
	}
	t := time.NewTicker(s.opts.Compact.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		for _, name := range s.names {
			if !s.shouldCompact(s.handles[name]) {
				continue
			}
			stats, gen, err := s.CompactNow(name)
			if err != nil {
				if !errors.Is(err, ErrCompactBusy) {
					s.logf("serving: compact loop %q: %v", name, err)
				}
				continue
			}
			if stats.Compacted {
				s.logf("serving: compacted index %q: %d generations into %d records in %s, now generation %d",
					name, stats.Generations, stats.Records, stats.Wallclock.Round(time.Millisecond), gen)
			}
		}
	}
}

// handleCompact answers POST /v1/admin/compact: merge the named (or
// only) index's LSM chain into a single base now and swap it in.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("index")
	if name == "" {
		if len(s.names) != 1 {
			writeError(w, http.StatusBadRequest,
				"index parameter required (serving %d indexes: %v)", len(s.names), s.names)
			return
		}
		name = s.names[0]
	}
	if _, ok := s.handles[name]; !ok {
		writeError(w, http.StatusNotFound, "unknown index %q (serving %v)", name, s.names)
		return
	}
	stats, gen, err := s.CompactNow(name)
	switch {
	case errors.Is(err, ErrCompactBusy):
		writeError(w, http.StatusConflict, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, CompactResponse{
		Index:       name,
		Compacted:   stats.Compacted,
		Generations: stats.Generations,
		Records:     stats.Records,
		WallclockMS: stats.Wallclock.Milliseconds(),
		Generation:  gen,
	})
}
