package simd

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	core "liberty/internal/core"
)

// session.go is the managed experiment-session lifecycle. Each session
// owns one Sim stamped from a cached program. Two locks with distinct
// jobs keep it race-free:
//
//   - mu serializes mutations — step, run, snapshot, restore-on-demand,
//     park, delete. It is TryLock'd by handlers: a second mutation while
//     one is in flight answers 409 rather than queueing behind a long
//     run. The janitor also TryLocks, so parking never stalls traffic.
//   - ptr guards the sim pointer, park path, cached cycle count and
//     lastUsed timestamp. It is held only for field access, never across
//     a Run, so listing and session info never wait behind a run. They
//     report the cycle count as of the last mutation and never read a
//     Sim another goroutine may be stepping; observation, which does
//     read the Sim, takes mu.
//
// A parked session's Sim is closed and its full checkpoint sits on disk
// (Sim.Snapshot gob format, the same bytes the snapshot endpoint
// serves); any later access restores it with Program.Restore —
// bit-identical to never having parked, per the checkpoint oracle.

type session struct {
	id      string
	entry   *programEntry
	seed    int64
	metrics bool
	created time.Time

	mu sync.Mutex // serializes mutations; TryLock -> 409 on contention

	ptr      sync.Mutex
	sim      *core.Sim // nil while parked or closed
	parkPath string    // checkpoint file while parked
	// cycle caches Now() as of the last mutation (stamp, run, restore,
	// park), written by the holder of mu, so session info stays accurate
	// without reading a running Sim or unparking a parked one.
	cycle    uint64
	lastUsed time.Time
	closed   bool
}

// buildOpts are the per-session stamp options (the program's own
// compile-time options are re-applied by NewSim before these).
func (ss *session) buildOpts() []core.BuildOption {
	opts := []core.BuildOption{core.WithSeed(ss.seed)}
	if ss.metrics {
		opts = append(opts, core.WithMetrics())
	}
	return opts
}

// live returns the in-memory Sim, or nil when the session is parked.
func (ss *session) live() *core.Sim {
	ss.ptr.Lock()
	defer ss.ptr.Unlock()
	return ss.sim
}

// noteCycle records the session's cycle count after a mutation. The
// caller holds mu.
func (ss *session) noteCycle(cycle uint64) {
	ss.ptr.Lock()
	ss.cycle = cycle
	ss.ptr.Unlock()
}

func (ss *session) touch(now time.Time) {
	ss.ptr.Lock()
	ss.lastUsed = now
	ss.ptr.Unlock()
}

func (ss *session) info() SessionInfo {
	ss.ptr.Lock()
	defer ss.ptr.Unlock()
	si := SessionInfo{
		ID:        ss.id,
		ProgramID: ss.entry.id,
		Seed:      ss.seed,
		State:     "live",
		CreatedAt: ss.created,
		LastUsed:  ss.lastUsed,
		Cycle:     ss.cycle,
	}
	if ss.sim == nil {
		si.State = "parked"
	}
	return si
}

// ensureLive restores a parked session from its checkpoint. The caller
// holds mu. Restore failure leaves the session parked and the checkpoint
// in place.
func (ss *session) ensureLive() error {
	ss.ptr.Lock()
	sim, path := ss.sim, ss.parkPath
	ss.ptr.Unlock()
	if sim != nil {
		return nil
	}
	if path == "" {
		return fmt.Errorf("session %s has neither a live simulator nor a checkpoint", ss.id)
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("open checkpoint: %w", err)
	}
	defer f.Close()
	restored, err := ss.entry.prog.Restore(f, ss.buildOpts()...)
	if err != nil {
		return fmt.Errorf("restore checkpoint: %w", err)
	}
	ss.ptr.Lock()
	ss.sim = restored
	ss.parkPath = ""
	ss.ptr.Unlock()
	os.Remove(path)
	return nil
}

// park checkpoints the session to dir and closes its Sim. The caller
// holds mu. A failed snapshot aborts the park and keeps the session
// live.
func (ss *session) park(dir string) error {
	ss.ptr.Lock()
	sim := ss.sim
	ss.ptr.Unlock()
	if sim == nil {
		return nil
	}
	path := filepath.Join(dir, ss.id+".ckpt")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sim.Snapshot(f); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return err
	}
	cycle := sim.Now()
	ss.ptr.Lock()
	ss.sim = nil
	ss.parkPath = path
	ss.cycle = cycle
	ss.ptr.Unlock()
	return nil
}

// close releases the session's Sim and checkpoint file. Caller holds mu
// (or owns the session exclusively during server shutdown).
func (ss *session) close() {
	ss.ptr.Lock()
	path := ss.parkPath
	ss.sim = nil
	ss.parkPath = ""
	ss.closed = true
	ss.ptr.Unlock()
	if path != "" {
		os.Remove(path)
	}
	ss.entry.sessions.Add(-1)
}
