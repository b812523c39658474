// Package simd is the simulation-as-a-service daemon core: a versioned
// HTTP/JSON API over the Program/State split. One structural model is
// compiled exactly once — POST /v1/programs dedupes submissions by a
// spec-hash+options key into an LRU cache of compiled core.Programs —
// and any number of managed experiment sessions are then stamped from
// the cached program (POST /v1/programs/{id}/sessions via
// Program.NewSim, zero Tarjan/levelization/lane-election per session),
// stepped, observed, checkpointed over the wire (Sim.Snapshot's gob
// format) and restored into fresh sessions (Program.Restore), each
// bit-identical to an uninterrupted run.
//
// # API surface (version /v1)
//
//	POST   /v1/programs                      submit spec+defines+options; dedup into the program cache
//	GET    /v1/programs                      list cached programs
//	GET    /v1/programs/{id}                 one program's info
//	POST   /v1/programs/{id}/sessions        stamp a session (JSON: seed, metrics)
//	POST   /v1/programs/{id}/sessions/restore  stamp a session from a snapshot (gob body)
//	GET    /v1/sessions                      list sessions
//	GET    /v1/sessions/{id}                 one session's info
//	POST   /v1/sessions/{id}/step            advance N cycles (default 1)
//	POST   /v1/sessions/{id}/run             advance N cycles, cancellable with the request
//	GET    /v1/sessions/{id}/observe         obs JSON statistics snapshot
//	GET    /v1/sessions/{id}/metrics         alias of observe (the old /metrics, per session)
//	GET    /v1/sessions/{id}/debug/vars      process expvar page
//	GET    /v1/sessions/{id}/snapshot        gob checkpoint (restorable by Program.Restore)
//	DELETE /v1/sessions/{id}                 close and forget a session
//	GET    /metrics, /debug/vars             single-session compatibility mode (SetLocal)
//
// Every error response is one JSON envelope {"error": {code, message,
// details}} with a stable LSD0xx code mapped onto 400/404/409/422/503;
// see errors.go.
//
// # Concurrency model
//
// Sessions are mutated (step, run, snapshot, restore-on-demand, delete)
// under a per-session mutex; a second mutation arriving while one is in
// flight answers 409 LSD003 rather than queueing, so a slow run can
// never stack unbounded work behind it. Observation takes the same
// mutex and waits for an in-flight run, because a snapshot reads the
// cycle counter the stepping goroutine owns; listing and session info
// report the cycle count recorded by the last mutation and never wait.
// The single-session /metrics and /debug/vars scrapes read a simulator
// stepped outside any session lock, through its published cycle count
// (core.Sim.PublishedCycle, refreshed every few hundred cycles of a run)
// and its atomic statistics. Across sessions,
// step/run work is bounded by a server-wide worker semaphore
// (Config.StepWorkers, default 2×GOMAXPROCS). Sessions idle longer than
// Config.ParkAfter are checkpointed to disk and their Sim closed
// ("parked"); any later access restores them on demand from the
// checkpoint, bit-identically. Sessions idle longer than
// Config.SessionTTL are evicted entirely.
package simd

// The daemon compiles LSS specifications, so the component libraries'
// templates must be linked in: pcl and ccl register themselves into
// core.DefaultRegistry from their init functions.
import (
	_ "liberty/internal/ccl"
	_ "liberty/internal/pcl"
)
