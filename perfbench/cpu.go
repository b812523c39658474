package main

import (
	"fmt"
	"time"

	"liberty/internal/core"
	"liberty/internal/isa"
	"liberty/internal/mono"
	"liberty/internal/obs"
	"liberty/internal/upl"
)

const (
	// cpuMaxCycles bounds one program run; ProgLong halts in ~10^5 cycles.
	cpuMaxCycles = 5_000_000
	// cpuSlice is the length of one timed RunUntil call.
	cpuSlice = 10_000
)

// monoRef is the independent model's answer for the C4 program.
type monoRef struct {
	cycles, retired uint64
	regs            [isa.NumRegs]uint32
}

// runCPU is the cpu-c4 workload: the structural in-order CPU on
// isa.ProgLong, a fresh session stamped from one compiled Program per
// point, each checked against the monolithic baseline in internal/mono.
func runCPU(cfg config) (*result, error) {
	r := newResult(cfg)
	tr := r.tr

	// Set-up, repeated: program text → a session ready to step. One recipe
	// serves every repetition, building the latest assembly.
	var (
		prog   *core.Program
		cur    *upl.InOrderCPU // the CPU of the last recipe run
		bin    *isa.Program
		setups []float64
		err    error
	)
	rc := &recipe{tr: tr, fn: func(b *core.Builder) (err error) {
		cur, err = upl.NewInOrderCPU(b, "cpu", bin, upl.CPUCfg{})
		return err
	}}
	for i, start := 0, time.Now(); cfg.moreSetup(i, start); i++ {
		root := tr.begin("setup", 0, 0)
		t0 := time.Now()
		id := tr.begin("isa.assemble", root, 0)
		bin, err = isa.Assemble(isa.ProgLong)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("cpu-c4: assemble: %w", err)
		}
		if prog, err = rc.compile(root); err != nil {
			return nil, fmt.Errorf("cpu-c4: compile: %w", err)
		}
		sim, err := rc.stamp(prog, root, core.WithSeed(cfg.seed))
		if err != nil {
			return nil, fmt.Errorf("cpu-c4: stamp: %w", err)
		}
		setups = append(setups, elapsed(t0))
		tr.end(root)
		sim.Close()
	}
	setupS := median(setups)
	r.notef("cpu-c4: upl.NewInOrderCPU on isa.ProgLong, %d instances, %d conns, engine %s", prog.Instances(), prog.Conns(), prog.Scheduler())

	w := &cpuWork{r: r, rc: rc, prog: prog, cur: &cur, seed: cfg.seed, prof: newStepProfile()}
	if w.ref, _, err = monoRun(nil, bin, 1); err != nil {
		return nil, err
	}
	r.notef("cpu-c4: reference (internal/mono): %d cycles, %d retired, v0=%d", w.ref.cycles, w.ref.retired, w.ref.regs[isa.RegV0])

	measureFor := cfg.seconds
	var untraced pointRun
	if tr == nil {
		r.set("setup_s", "s", setupS)
		r.set("heap_mb", "MiB", heapMiB())
	} else {
		// Untraced points first: the base for the tracing overhead and
		// the structural side of c4_overhead_x.
		if untraced, err = w.loop(0, cfg.seconds/traceShares); err != nil {
			return nil, err
		}
		measureFor -= cfg.seconds / traceShares
	}
	before := readMem()
	phase := tr.begin("phase.run", 0, 0)
	run, err := w.loop(phase, measureFor)
	if err != nil {
		return nil, err
	}
	tr.end(phase)
	after := readMem()
	if tr == nil {
		r.pointMetrics(run.points, steady(run.slices), 1, run.wall)
		return r, nil
	}

	// The monolithic reference, timed untraced in the same process.
	reps := max(1, int(cfg.seconds/(2*traceShares)/(monoPerCycleGuess*float64(w.ref.cycles))))
	_, monoSlices, err := monoRun(tr, bin, reps)
	if err != nil {
		return nil, err
	}
	monoPerCycle := steady(monoSlices)
	r.set("mono.cycles_per_s", "1/s", 1/monoPerCycle)
	r.set("c4_overhead_x", "x", steady(untraced.slices)/monoPerCycle)
	layers := tr.byName()
	if err := constructMetrics(r, layers, rc); err != nil {
		return nil, fmt.Errorf("cpu-c4: %w", err)
	}
	w.prof.set(r, layers["core.run"].totalTime())
	r.set("allocs_per_cycle", "count", float64(after.mallocs-before.mallocs)/float64(run.cycles))
	r.gcMetrics(before, after)
	r.set("trace.overhead_frac", "frac", steady(run.slices)/steady(untraced.slices)-1)
	r.set("trace.unattributed_frac", "frac", unattributed(layers, "setup", "point"))
	notExercised(r, "ckpt", "simd")
	return r, nil
}

// monoPerCycleGuess sizes the timed mono phase (host seconds per cycle).
const monoPerCycleGuess = 150e-9

// cpuWork is the cpu-c4 point loop's state.
type cpuWork struct {
	r    *result
	rc   *recipe
	prog *core.Program
	cur  **upl.InOrderCPU // set by every recipe run
	seed int64
	ref  monoRef
	prof *stepProfile
}

// loop runs points back to back for seconds; with parent != 0 the
// points are traced and their sessions collect scheduler metrics.
func (w *cpuWork) loop(parent int, seconds float64) (pointRun, error) {
	var pr pointRun
	t0 := time.Now()
	for len(pr.points) == 0 || elapsed(t0) < seconds {
		total, err := w.point(parent, &pr)
		if err != nil {
			return pr, err
		}
		pr.points = append(pr.points, total)
	}
	pr.wall = elapsed(t0)
	return pr, nil
}

// point stamps a session, runs the program to its halt in cpuSlice-cycle
// slices recorded into pr, and checks the outcome against the
// reference. It returns the point's time. Only a failure to stamp is
// returned as an error; a failed or wrong run is a failed operation.
func (w *cpuWork) point(parent int, pr *pointRun) (time.Duration, error) {
	tr := w.r.tr
	if parent == 0 {
		tr = nil
	}
	id := tr.begin("point", parent, 0)
	opts := []core.BuildOption{core.WithSeed(w.seed)}
	if tr != nil {
		opts = append(opts, core.WithMetrics())
	}
	t0 := time.Now()
	w.rc.tr = tr
	sim, err := w.rc.stamp(w.prog, id, opts...)
	if err != nil {
		tr.end(id)
		return 0, fmt.Errorf("cpu-c4: stamp: %w", err)
	}
	defer sim.Close()
	cpu := *w.cur
	halted := func(*core.Sim) bool { return cpu.Done() }
	done := false
	for !done && err == nil && sim.Now() < cpuMaxCycles {
		from := sim.Now()
		rid := tr.begin("core.run", id, 0)
		t := time.Now()
		done, err = sim.RunUntil(halted, cpuSlice)
		d := time.Since(t)
		tr.end(rid)
		if n := sim.Now() - from; n > 0 {
			pr.slices = append(pr.slices, d.Seconds()/float64(n))
			pr.cycles += n
		}
	}
	total := time.Since(t0)
	tr.end(id)
	if err == nil && !done {
		err = fmt.Errorf("did not halt within %d cycles", cpuMaxCycles)
	}
	w.r.op("cpu-c4 program run vs internal/mono", err, diffCPU(monoRef{sim.Now(), cpu.Retired(), cpu.Emu().R}, w.ref))
	if tr != nil {
		w.prof.add(obs.TakeSnapshot(sim), pkgMap(sim))
	}
	return total, nil
}

// monoRun runs the monolithic baseline reps times under "mono.run" spans
// and returns its result and each run's host seconds per simulated cycle.
func monoRun(tr *tracer, bin *isa.Program, reps int) (monoRef, []float64, error) {
	var ref monoRef
	var slices []float64
	for i := 0; i < reps; i++ {
		p, err := mono.NewPipeline(bin, upl.CPUCfg{})
		if err != nil {
			return ref, nil, fmt.Errorf("cpu-c4: mono: %w", err)
		}
		id := tr.begin("mono.run", 0, 0)
		t0 := time.Now()
		res, err := p.Run(cpuMaxCycles)
		d := time.Since(t0)
		tr.end(id)
		if err != nil {
			return ref, nil, fmt.Errorf("cpu-c4: mono: %w", err)
		}
		if !p.Done() {
			return ref, nil, fmt.Errorf("cpu-c4: mono did not halt within %d cycles", cpuMaxCycles)
		}
		ref = monoRef{res.Cycles, res.Retired, p.Emu().R}
		slices = append(slices, d.Seconds()/float64(res.Cycles))
	}
	return ref, slices, nil
}

// diffCPU compares a structural run with the monolithic reference on
// cycle count, retired count and the register file (v0 included).
func diffCPU(got, want monoRef) string {
	switch {
	case got.cycles != want.cycles:
		return fmt.Sprintf("%d cycles, reference %d", got.cycles, want.cycles)
	case got.retired != want.retired:
		return fmt.Sprintf("%d retired, reference %d", got.retired, want.retired)
	case got.regs != want.regs:
		return fmt.Sprintf("registers %v, reference %v (v0 %d vs %d)", got.regs, want.regs, got.regs[isa.RegV0], want.regs[isa.RegV0])
	}
	return ""
}
