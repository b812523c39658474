package core_test

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	core "liberty/internal/core"
)

// statusRecorder fingerprints every cycle: at OnCycleEnd it snapshots the
// three signal statuses of every connection, in id order. Two runs are
// bit-identical iff their recorders collect equal fingerprints.
type statusRecorder struct {
	sim    *core.Sim
	cycles []string
}

func (r *statusRecorder) OnCycleBegin(uint64)                             {}
func (r *statusRecorder) OnResolve(*core.Conn, core.SigKind, core.Status) {}
func (r *statusRecorder) Attach(s *core.Sim)                              { r.sim = s }

func (r *statusRecorder) OnCycleEnd(n uint64) {
	fp := ""
	for _, c := range r.sim.Conns() {
		var v any
		v, _ = c.Data()
		fp += fmt.Sprintf("%d:%s/%s/%s=%v;", c.ID(),
			c.Status(core.SigData), c.Status(core.SigEnable), c.Status(core.SigAck), v)
	}
	r.cycles = append(r.cycles, fp)
}

func runNetlistStatuses(t *testing.T, seed int64, cycles uint64, opts ...core.BuildOption) ([][]int, []string) {
	t.Helper()
	rec := &statusRecorder{}
	opts = append(opts, core.WithTracer(rec))
	sim, sinks := buildRandomNetlistOpts(t, seed, opts...)
	if err := sim.Run(cycles); err != nil {
		t.Fatalf("Run (seed=%d): %v", seed, err)
	}
	out := make([][]int, len(sinks))
	for i, s := range sinks {
		out[i] = s.got
	}
	return out, rec.cycles
}

// TestLevelizedMatchesSequential is the static scheduling engine's
// correctness property: the levelized scheduler — alone, with a worker
// pool, and against the parallel fixed point — must produce per-cycle
// signal statuses bit-identical to the sequential scanner on arbitrary
// netlists.
func TestLevelizedMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		seqOut, seqFP := runNetlistStatuses(t, seed, 50, core.WithScheduler(core.SchedulerSequential))
		for _, tc := range []struct {
			name string
			opts []core.BuildOption
		}{
			{"levelized", []core.BuildOption{core.WithScheduler(core.SchedulerLevelized)}},
			{"levelized-pooled", []core.BuildOption{core.WithWorkers(4), core.WithScheduler(core.SchedulerLevelized)}},
			{"auto", nil},
			{"parallel", []core.BuildOption{core.WithScheduler(core.SchedulerParallel), core.WithWorkers(4)}},
		} {
			out, fp := runNetlistStatuses(t, seed, 50, tc.opts...)
			if !reflect.DeepEqual(seqOut, out) {
				t.Logf("seed=%d %s: sink outputs diverge: seq=%v got=%v", seed, tc.name, seqOut, out)
				return false
			}
			if !reflect.DeepEqual(seqFP, fp) {
				t.Logf("seed=%d %s: cycle status fingerprints diverge", seed, tc.name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestScheduleInfoAcyclic: the fan-out netlist has no cycles, so the
// whole netlist lands in the static sweep and nothing in the residue.
func TestScheduleInfoAcyclic(t *testing.T) {
	sim := buildFanout(t, core.WithScheduler(core.SchedulerLevelized))
	info := sim.Schedule()
	if info == nil {
		t.Fatal("Schedule() = nil for levelized scheduler")
	}
	if sim.Scheduler() != core.SchedulerLevelized {
		t.Errorf("Scheduler() = %v, want levelized", sim.Scheduler())
	}
	if info.Modules != 3 || info.SCCs != 3 {
		t.Errorf("modules/SCCs = %d/%d, want 3/3", info.Modules, info.SCCs)
	}
	if info.CyclicSCCs != 0 || len(info.BreakSites) != 0 {
		t.Errorf("cyclic SCCs = %d, break sites = %v, want none", info.CyclicSCCs, info.BreakSites)
	}
	if info.SweepConns != 2 || info.ResidueConns != 0 {
		t.Errorf("fwd sweep/residue = %d/%d, want 2/0", info.SweepConns, info.ResidueConns)
	}
	if info.AckSweepConns != 2 || info.AckResidueConns != 0 {
		t.Errorf("ack sweep/residue = %d/%d, want 2/0", info.AckSweepConns, info.AckResidueConns)
	}
	if info.ForwardLevels != 1 || info.AckLevels != 1 {
		t.Errorf("levels fwd/ack = %d/%d, want 1/1", info.ForwardLevels, info.AckLevels)
	}
}

// TestScheduleInfoCyclic: two modules wired into a loop form one cyclic
// SCC; all connections fall into the residue and the break site is the
// loop's lowest-id connection.
func TestScheduleInfoCyclic(t *testing.T) {
	b := core.NewBuilder() // default = auto = levelized
	x := newDeadEnd("x")
	y := newDeadEnd("y")
	b.Add(x)
	b.Add(y)
	b.Connect(x, "out", y, "in")
	b.Connect(y, "out", x, "in")
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	info := sim.Schedule()
	if info == nil {
		t.Fatal("Schedule() = nil under the auto default")
	}
	if info.SCCs != 1 || info.CyclicSCCs != 1 || info.LargestSCC != 2 {
		t.Errorf("SCCs/cyclic/largest = %d/%d/%d, want 1/1/2",
			info.SCCs, info.CyclicSCCs, info.LargestSCC)
	}
	if info.ResidueConns != 2 || info.AckResidueConns != 2 {
		t.Errorf("residue fwd/ack = %d/%d, want 2/2", info.ResidueConns, info.AckResidueConns)
	}
	if info.SweepConns != 0 || info.AckSweepConns != 0 {
		t.Errorf("sweep fwd/ack = %d/%d, want 0/0", info.SweepConns, info.AckSweepConns)
	}
	if len(info.BreakSites) != 1 {
		t.Fatalf("break sites = %v, want exactly one", info.BreakSites)
	}
	if want := sim.Conns()[0].String(); info.BreakSites[0] != want {
		t.Errorf("break site = %q, want lowest-id loop conn %q", info.BreakSites[0], want)
	}
}

// TestScheduleNilForLegacySchedulers: only the levelized engine carries a
// static schedule.
func TestScheduleNilForLegacySchedulers(t *testing.T) {
	seq := buildFanout(t, core.WithScheduler(core.SchedulerSequential))
	if seq.Schedule() != nil {
		t.Error("sequential scheduler reports a static schedule")
	}
	if seq.Scheduler() != core.SchedulerSequential || seq.Workers() != 1 {
		t.Errorf("sequential resolved to %v/%d workers", seq.Scheduler(), seq.Workers())
	}
	par := buildFanout(t, core.WithScheduler(core.SchedulerParallel), core.WithWorkers(4))
	if par.Schedule() != nil {
		t.Error("parallel scheduler reports a static schedule")
	}
	if par.Scheduler() != core.SchedulerParallel || par.Workers() != 4 {
		t.Errorf("WithWorkers(4) resolved to %v/%d workers, want parallel/4", par.Scheduler(), par.Workers())
	}
}

// TestLevelizedMetricsGolden pins the levelized scheduler's counts on the
// golden fan-out netlist: same wakes, reacts and enable fallbacks as the
// sequential engine (TestSchedulerMetricsGolden), but zero fixed-point
// iterations — the netlist is acyclic, so every default lands in the
// static sweep.
func TestLevelizedMetricsGolden(t *testing.T) {
	const cycles = 5
	sim := buildFanout(t, core.WithScheduler(core.SchedulerLevelized), core.WithMetrics())
	if err := sim.Run(cycles); err != nil {
		t.Fatal(err)
	}
	m := sim.Metrics()
	if got := m.Wakes(); got != 4*cycles {
		t.Errorf("wakes = %d, want %d", got, 4*cycles)
	}
	if got := m.Reacts(); got != 4*cycles {
		t.Errorf("reacts = %d, want %d", got, 4*cycles)
	}
	if got := m.FixedPointIters(); got != 0 {
		t.Errorf("fixed-point iters = %d, want 0 on an acyclic netlist", got)
	}
	if got := m.DefaultFallbacks(core.SigEnable); got != 2*cycles {
		t.Errorf("enable fallbacks = %d, want %d", got, 2*cycles)
	}
	for _, k := range []core.SigKind{core.SigData, core.SigEnable, core.SigAck} {
		if got := m.CycleBreaks(k); got != 0 {
			t.Errorf("cycle breaks[%s] = %d, want 0", k, got)
		}
	}
}

// TestLevelizedResidueIters: on the two-module loop every default is a
// residue worklist step, so the levelized iteration count equals the
// defaults applied — and cycle breaks match the sequential engine's.
func TestLevelizedResidueIters(t *testing.T) {
	b := core.NewBuilder(core.WithMetrics(), core.WithScheduler(core.SchedulerLevelized))
	x := newDeadEnd("x")
	y := newDeadEnd("y")
	b.Add(x)
	b.Add(y)
	b.Connect(x, "out", y, "in")
	b.Connect(y, "out", x, "in")
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 3
	if err := sim.Run(cycles); err != nil {
		t.Fatal(err)
	}
	m := sim.Metrics()
	// Two defaults per kind per cycle, all via the residue worklist.
	if got := m.FixedPointIters(); got != 3*2*cycles {
		t.Errorf("fixed-point iters = %d, want %d", got, 3*2*cycles)
	}
	for _, k := range []core.SigKind{core.SigData, core.SigEnable, core.SigAck} {
		if got := m.CycleBreaks(k); got != cycles {
			t.Errorf("cycle breaks[%s] = %d, want %d", k, got, cycles)
		}
	}
}
