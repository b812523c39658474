package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"time"

	"liberty/internal/core"
	"liberty/internal/lss"
	"liberty/internal/obs"

	// The component libraries register their templates on import, as
	// they do for lsc and lsd.
	_ "liberty/internal/ccl"
	_ "liberty/internal/pcl"
)

// meshSpec is the Figure 2(a) fabric as lsc users run it: a 4×4 torus,
// one cyclic SCC, handler-bound.
const meshSpec = "specs/mesh.lss"

const (
	meshChunk   = 100 // cycles per point (one Sim.Run call)
	meshWarmup  = 5   // untimed points before the measured phase
	ckptCycles  = 500 // cycles both sessions run after a checkpoint
	traceShares = 4   // a traced run spends 1/traceShares of its time untraced, for the overhead
)

// runMesh is the mesh-steady workload: parse, compile and stamp
// specs/mesh.lss unchanged, step it for the whole measured phase, check
// the statistics against the sequential engine, then checkpoint.
func runMesh(cfg config) (*result, error) {
	r := newResult(cfg)
	tr := r.tr
	src, err := os.ReadFile(meshSpec)
	if err != nil {
		return nil, fmt.Errorf("mesh-steady: %w", err)
	}

	// Set-up, repeated: spec text → a session ready to step. One recipe
	// serves every repetition, elaborating the latest parse, so earlier
	// repetitions leave nothing live behind.
	var (
		f      *lss.File
		prog   *core.Program
		sim    *core.Sim
		setups []float64
	)
	rc := &recipe{fn: func(b *core.Builder) error { return lss.NewElaborator(b).ElaborateWith(f, nil) }, tr: tr}
	for i, start := 0, time.Now(); cfg.moreSetup(i, start); i++ {
		if sim != nil {
			sim.Close()
		}
		root := tr.begin("setup", 0, 0)
		t0 := time.Now()
		if f, err = parseLSS(tr, root, meshSpec, string(src)); err != nil {
			return nil, fmt.Errorf("mesh-steady: %w", err)
		}
		if prog, err = rc.compile(root); err != nil {
			return nil, fmt.Errorf("mesh-steady: compile: %w", err)
		}
		if sim, err = rc.stamp(prog, root, core.WithSeed(cfg.seed)); err != nil {
			return nil, fmt.Errorf("mesh-steady: stamp: %w", err)
		}
		setups = append(setups, elapsed(t0))
		tr.end(root)
	}
	setupS := median(setups)
	r.notef("mesh-steady: %s, %d instances, %d conns, engine %s", meshSpec, prog.Instances(), prog.Conns(), prog.Scheduler())

	// The measured phase. A traced run first measures untraced steps on
	// the set-up session, then stamps a metrics-enabled session and
	// traces that one for the rest of the time.
	measureFor := cfg.seconds
	var calib pointRun
	if tr == nil {
		r.set("setup_s", "s", setupS)
		r.set("heap_mb", "MiB", heapMiB())
	} else {
		if _, err := runPoints(nil, 0, sim, meshWarmup, 0); err != nil {
			return nil, err
		}
		if calib, err = runPoints(nil, 0, sim, 0, cfg.seconds/traceShares); err != nil {
			return nil, err
		}
		measureFor -= cfg.seconds / traceShares
		sim.Close()
		if sim, err = rc.stamp(prog, 0, core.WithSeed(cfg.seed), core.WithMetrics()); err != nil {
			return nil, fmt.Errorf("mesh-steady: stamp: %w", err)
		}
	}
	if _, err := runPoints(tr, 0, sim, meshWarmup, 0); err != nil {
		return nil, err
	}
	before := readMem()
	phase := tr.begin("phase.run", 0, 0)
	run, err := runPoints(tr, phase, sim, 0, measureFor)
	if err != nil {
		return nil, err
	}
	tr.end(phase)
	after := readMem()
	// The profile is read before the checkpoint phase steps the session on.
	profiled := obs.TakeSnapshot(sim)
	if tr == nil {
		r.pointMetrics(run.points, steady(run.slices), 1, run.wall)
	}

	// Correctness: the sequential engine is the executable semantics.
	ref, err := referenceRun(src, cfg.seed, sim.Now())
	r.op("mesh-steady run vs sequential reference", err, diffSnapshots(statsOnly(sim), ref))

	ck := checkpointPhase(r, tr, prog, sim, cfg.seed)

	if tr != nil {
		layers := tr.byName()
		if err := constructMetrics(r, layers, rc); err != nil {
			return nil, fmt.Errorf("mesh-steady: %w", err)
		}
		prof := newStepProfile()
		prof.add(profiled, pkgMap(sim))
		prof.set(r, layers["core.run"].totalTime())
		r.set("allocs_per_cycle", "count", float64(after.mallocs-before.mallocs)/float64(run.cycles))
		r.gcMetrics(before, after)
		ck.set(r)
		r.set("trace.overhead_frac", "frac", steady(run.slices)/steady(calib.slices)-1)
		r.set("trace.unattributed_frac", "frac", unattributed(layers, "setup", "phase.run"))
		notExercised(r, "simd", "mono")
	}
	return r, nil
}

// pointRun is the outcome of a loop of Sim.Run calls.
type pointRun struct {
	points []time.Duration // one per point
	slices []float64       // host seconds per cycle, one per Run call
	cycles uint64
	wall   float64 // loop seconds
}

// runPoints steps sim in meshChunk-cycle points: n points when n > 0,
// else as many as fit in seconds. Each call is a "core.run" span.
func runPoints(tr *tracer, parent int, sim *core.Sim, n int, seconds float64) (pointRun, error) {
	var pr pointRun
	t0 := time.Now()
	for i := 0; n > 0 && i < n || n == 0 && elapsed(t0) < seconds; i++ {
		id := tr.begin("core.run", parent, 0)
		t := time.Now()
		err := sim.Run(meshChunk)
		d := time.Since(t)
		tr.end(id)
		if err != nil {
			return pr, fmt.Errorf("run: %w", err)
		}
		pr.points = append(pr.points, d)
		pr.slices = append(pr.slices, d.Seconds()/meshChunk)
		pr.cycles += meshChunk
	}
	pr.wall = elapsed(t0)
	return pr, nil
}

// referenceRun runs the spec under SchedulerSequential, untimed, for the
// given seed and cycle count and returns its statistics.
func referenceRun(src []byte, seed int64, cycles uint64) (obs.Snapshot, error) {
	f, err := parseLSS(nil, 0, meshSpec, string(src))
	if err != nil {
		return obs.Snapshot{}, err
	}
	return sequentialRun(lssRecipe(f, nil), seed, cycles)
}

// sequentialRun compiles a recipe for SchedulerSequential, stamps a
// session with seed and runs it for cycles.
func sequentialRun(fn func(*core.Builder) error, seed int64, cycles uint64) (obs.Snapshot, error) {
	prog, err := core.Compile(fn, core.WithScheduler(core.SchedulerSequential))
	if err != nil {
		return obs.Snapshot{}, fmt.Errorf("reference compile: %w", err)
	}
	sim, err := prog.NewSim(core.WithSeed(seed))
	if err != nil {
		return obs.Snapshot{}, fmt.Errorf("reference stamp: %w", err)
	}
	defer sim.Close()
	if err := sim.Run(cycles); err != nil {
		return obs.Snapshot{}, fmt.Errorf("reference run: %w", err)
	}
	return statsOnly(sim), nil
}

// ckptResult is the checkpoint phase's layer timings.
type ckptResult struct {
	snapshot, restore []float64 // ms per attempt
	bytes             []float64
	failures          int
}

func (c ckptResult) set(r *result) {
	r.set("core.snapshot_ms", "ms", median(c.snapshot))
	r.set("core.snapshot_bytes", "bytes", median(c.bytes))
	r.set("core.restore_ms", "ms", median(c.restore))
	r.set("core.ckpt_failures", "count", float64(c.failures))
}

// checkpointPhase takes Sim.Snapshot → Program.Restore twice — on a fresh
// session before its first cycle, and on the measured session after its
// run — then runs the original and the restored session ckptCycles more
// cycles each and requires equal statistics. Each round trip is one
// operation; it is timed apart from the run and from set-up.
func checkpointPhase(r *result, tr *tracer, prog *core.Program, measured *core.Sim, seed int64) ckptResult {
	var ck ckptResult
	phase := tr.begin("phase.ckpt", 0, 0)
	defer tr.end(phase)
	fresh, err := prog.NewSim(core.WithSeed(seed))
	if err != nil {
		r.op("checkpoint at cycle 0", fmt.Errorf("stamp: %w", err), "")
		ck.failures++
		return ck
	}
	defer fresh.Close()
	for _, round := range []struct {
		what string
		sim  *core.Sim
	}{{"checkpoint at cycle 0", fresh}, {fmt.Sprintf("checkpoint at cycle %d", measured.Now()), measured}} {
		mismatch, err := ck.roundTrip(tr, phase, prog, round.sim)
		if err != nil || mismatch != "" {
			ck.failures++
		}
		r.op(round.what, err, mismatch)
		if knownCkptFailure(err) {
			r.known++
			r.notef("  (the documented checkpoint failure of %s)", meshSpec)
		}
	}
	return ck
}

// knownCkptFailure reports whether err is one of the two ways Sim.Snapshot
// is documented to fail on mesh.lss (README.md, "Baseline facts"): before
// the first cycle a ccl instance with lifecycle handlers is not
// core.Stateful, and after it the gob encoding of in-flight ccl.Packet
// values is not registered.
func knownCkptFailure(err error) bool {
	if err == nil {
		return false
	}
	msg := err.Error()
	return strings.HasPrefix(msg, "snapshot: ") &&
		(strings.Contains(msg, "instance has lifecycle handlers but does not implement core.Stateful") ||
			strings.Contains(msg, "gob: type not registered for interface: ccl.Packet"))
}

// roundTrip snapshots sim, restores the snapshot into a new session and
// compares the two over ckptCycles further cycles.
func (ck *ckptResult) roundTrip(tr *tracer, parent int, prog *core.Program, sim *core.Sim) (mismatch string, err error) {
	var buf bytes.Buffer
	id := tr.begin("core.snapshot", parent, 0)
	t0 := time.Now()
	err = sim.Snapshot(&buf)
	ck.snapshot = append(ck.snapshot, ms(time.Since(t0))[0])
	tr.end(id)
	ck.bytes = append(ck.bytes, float64(buf.Len()))
	if err != nil {
		return "", fmt.Errorf("snapshot: %w", err)
	}
	id = tr.begin("core.restore", parent, 0)
	t0 = time.Now()
	restored, err := prog.Restore(&buf)
	ck.restore = append(ck.restore, ms(time.Since(t0))[0])
	tr.end(id)
	if err != nil {
		return "", fmt.Errorf("restore: %w", err)
	}
	defer restored.Close()
	if err := sim.Run(ckptCycles); err != nil {
		return "", fmt.Errorf("run original: %w", err)
	}
	if err := restored.Run(ckptCycles); err != nil {
		return "", fmt.Errorf("run restored: %w", err)
	}
	return diffSnapshots(statsOnly(restored), statsOnly(sim)), nil
}
