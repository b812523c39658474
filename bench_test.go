// The benchmark harness: one Benchmark per experiment in DESIGN.md's
// index (Figure 1, Figure 2(a)-(d), claims C1-C8, ablations A1-A2).
// EXPERIMENTS.md records the measured shapes against the paper's claims.
package liberty_test

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"liberty/internal/ccl"
	core "liberty/internal/core"
	"liberty/internal/isa"
	"liberty/internal/mono"
	"liberty/internal/obs"
	"liberty/internal/pcl"
	"liberty/internal/systems"
	"liberty/internal/upl"
	"liberty/lse"
)

func mustReadSpec(b *testing.B, path string) string {
	b.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	return string(src)
}

// BenchmarkFig1ConstructSimulator measures the Figure 1 pipeline: LSS in,
// executable simulator out (parse + elaborate + netlist checks).
func BenchmarkFig1ConstructSimulator(b *testing.B) {
	for _, spec := range []string{"specs/quickstart.lss", "specs/pipeline.lss", "specs/mesh.lss"} {
		src := mustReadSpec(b, spec)
		b.Run(spec, func(b *testing.B) {
			var instances int
			for i := 0; i < b.N; i++ {
				sim, err := lse.LoadLSS(src)
				if err != nil {
					b.Fatal(err)
				}
				instances = len(sim.Instances())
			}
			b.ReportMetric(float64(instances), "instances")
		})
	}
}

func runToDone(b *testing.B, sim *core.Sim, done func() bool, max uint64) uint64 {
	b.Helper()
	ok, err := sim.RunUntil(func(*core.Sim) bool { return done() }, max)
	if err != nil {
		b.Fatal(err)
	}
	if !ok {
		b.Fatalf("system did not finish within %d cycles", max)
	}
	return sim.Now()
}

// BenchmarkFig2aCMP simulates the Figure 2(a) chip multiprocessor to
// completion of its workload.
func BenchmarkFig2aCMP(b *testing.B) {
	var cycles uint64
	var latency float64
	for i := 0; i < b.N; i++ {
		bld := core.NewBuilder(core.WithSeed(1))
		cmp, err := systems.BuildCMP(bld, "cmp", systems.CMPCfg{W: 2, H: 2, RefsPer: 60, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		sim, err := bld.Build()
		if err != nil {
			b.Fatal(err)
		}
		cycles = runToDone(b, sim, cmp.Done, 300_000)
		latency = cmp.MeanLatency()
	}
	b.ReportMetric(float64(cycles), "simcycles")
	b.ReportMetric(latency, "memlat_cycles")
}

// BenchmarkFig2bSensorNode simulates the Figure 2(b) sensor network until
// all samples drain.
func BenchmarkFig2bSensorNode(b *testing.B) {
	var delivered int64
	for i := 0; i < b.N; i++ {
		bld := core.NewBuilder(core.WithSeed(5))
		net, err := systems.BuildSensorNet(bld, "sn", 3, 20, 40)
		if err != nil {
			b.Fatal(err)
		}
		sim, err := bld.Build()
		if err != nil {
			b.Fatal(err)
		}
		runToDone(b, sim, net.Exhausted, 200_000)
		delivered = net.Base.Received()
	}
	b.ReportMetric(float64(delivered), "readings")
}

// BenchmarkFig2cGrid simulates the Figure 2(c) grid-in-a-box (torus
// backplane) to completion.
func BenchmarkFig2cGrid(b *testing.B) {
	var cycles uint64
	for i := 0; i < b.N; i++ {
		bld := core.NewBuilder(core.WithSeed(2))
		grid, err := systems.BuildCMP(bld, "grid", systems.CMPCfg{
			W: 4, H: 2, Torus: true, RefsPer: 40, Seed: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		sim, err := bld.Build()
		if err != nil {
			b.Fatal(err)
		}
		cycles = runToDone(b, sim, grid.Done, 300_000)
	}
	b.ReportMetric(float64(cycles), "simcycles")
}

// BenchmarkFig2dSystemOfSystems simulates the Figure 2(d) hierarchy.
func BenchmarkFig2dSystemOfSystems(b *testing.B) {
	var summaries int64
	for i := 0; i < b.N; i++ {
		bld := core.NewBuilder(core.WithSeed(9))
		sos, err := systems.BuildSoS(bld, "sos", systems.SoSCfg{
			Clusters: 2, SensorsPer: 2, SamplesPer: 16, Threshold: 10, Batch: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		sim, err := bld.Build()
		if err != nil {
			b.Fatal(err)
		}
		runToDone(b, sim, func() bool {
			return sos.Grid.Done() && sos.SummariesDelivered() >= 4
		}, 300_000)
		summaries = sos.SummariesDelivered()
	}
	b.ReportMetric(float64(summaries), "summaries")
}

// BenchmarkC1QueueReuse exercises the identical pcl.Queue template in its
// three §2.1 roles: router I/O buffer (FIFO), instruction window
// (dataflow-ready selection) and reorder buffer (completed-prefix
// selection), measuring simulated throughput in each role.
func BenchmarkC1QueueReuse(b *testing.B) {
	type role struct {
		name   string
		params core.Params
	}
	ready := map[int]bool{}
	windowSelect := pcl.SelectFn(func(entries []any) []int {
		var out []int
		for i, e := range entries {
			if ready[e.(int)%4] {
				out = append(out, i)
			}
		}
		return out
	})
	robSelect := pcl.SelectFn(func(entries []any) []int {
		var out []int
		for i, e := range entries {
			if !ready[e.(int)%4] {
				break
			}
			out = append(out, i)
		}
		return out
	})
	for k := 0; k < 4; k++ {
		ready[k] = true
	}
	roles := []role{
		{"router-buffer", core.Params{"capacity": 8}},
		{"instruction-window", core.Params{"capacity": 8, "select": windowSelect}},
		{"reorder-buffer", core.Params{"capacity": 8, "select": robSelect}},
	}
	for _, r := range roles {
		b.Run(r.name, func(b *testing.B) {
			bld := core.NewBuilder()
			src, err := pcl.NewSource("src", nil)
			if err != nil {
				b.Fatal(err)
			}
			q, err := pcl.NewQueue("q", r.params)
			if err != nil {
				b.Fatal(err)
			}
			snk, err := pcl.NewSink("snk", nil)
			if err != nil {
				b.Fatal(err)
			}
			bld.Add(src)
			bld.Add(q)
			bld.Add(snk)
			bld.Connect(src, "out", q, "in")
			bld.Connect(q, "out", snk, "in")
			sim, err := bld.Build()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sim.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(snk.Received())/float64(b.N), "items/cycle")
		})
	}
}

// BenchmarkC2MixedAbstraction drives the same crossbar with a statistical
// generator and with a detailed pipeline behind an NI.
func BenchmarkC2MixedAbstraction(b *testing.B) {
	b.Run("statistical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bld := core.NewBuilder(core.WithSeed(3))
			nw, err := ccl.BuildCrossbar(bld, "net", 2, 4)
			if err != nil {
				b.Fatal(err)
			}
			src, err := pcl.NewSource("gen", core.Params{
				"rate": 0.2, "count": 50,
				"gen": pcl.GenFn(func(rng *rand.Rand, cycle, seq uint64) (any, bool) {
					return &ccl.Packet{ID: seq, Src: 0, Dst: 1, Size: 2, Injected: cycle}, true
				}),
			})
			if err != nil {
				b.Fatal(err)
			}
			snk, _ := pcl.NewSink("snk", nil)
			drain, _ := pcl.NewSink("drain", nil)
			bld.Add(src)
			bld.Add(snk)
			bld.Add(drain)
			nw.ConnectSource(bld, 0, src, "out")
			nw.ConnectSink(bld, 1, snk, "in")
			nw.ConnectSink(bld, 0, drain, "in")
			sim, err := bld.Build()
			if err != nil {
				b.Fatal(err)
			}
			runToDone(b, sim, src.Exhausted, 100_000)
		}
	})
	b.Run("detailed-cpu-ni", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bld := core.NewBuilder(core.WithSeed(3))
			nw, err := ccl.BuildCrossbar(bld, "net", 2, 4)
			if err != nil {
				b.Fatal(err)
			}
			cpu, err := upl.NewInOrderCPU(bld, "cpu", isa.MustAssemble(isa.ProgSum), upl.CPUCfg{})
			if err != nil {
				b.Fatal(err)
			}
			ni := newCommitNI("ni", cpu)
			snk, _ := pcl.NewSink("snk", nil)
			drain, _ := pcl.NewSink("drain", nil)
			bld.Add(ni)
			bld.Add(snk)
			bld.Add(drain)
			nw.ConnectSource(bld, 0, ni, "out")
			nw.ConnectSink(bld, 1, snk, "in")
			nw.ConnectSink(bld, 0, drain, "in")
			sim, err := bld.Build()
			if err != nil {
				b.Fatal(err)
			}
			runToDone(b, sim, cpu.Done, 100_000)
		}
	})
}

// BenchmarkC4StructuralVsMonolithic compares host-time cost of the
// structural five-stage pipeline against the hand-written monolithic
// baseline on the same program — the overhead the paper's optimization
// work ([22]) attacks.
func BenchmarkC4StructuralVsMonolithic(b *testing.B) {
	prog := isa.MustAssemble(isa.ProgSum)
	b.Run("monolithic", func(b *testing.B) {
		var res mono.PipelineResult
		for i := 0; i < b.N; i++ {
			p, err := mono.NewPipeline(prog, upl.CPUCfg{})
			if err != nil {
				b.Fatal(err)
			}
			res, err = p.Run(1_000_000)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(res.IPC(), "ipc")
		b.ReportMetric(float64(res.Cycles), "simcycles")
	})
	b.Run("structural", func(b *testing.B) {
		var cycles uint64
		var ipc float64
		for i := 0; i < b.N; i++ {
			bld := core.NewBuilder()
			cpu, err := upl.NewInOrderCPU(bld, "cpu", prog, upl.CPUCfg{})
			if err != nil {
				b.Fatal(err)
			}
			sim, err := bld.Build()
			if err != nil {
				b.Fatal(err)
			}
			cycles = runToDone(b, sim, cpu.Done, 1_000_000)
			ipc = cpu.IPC(sim)
		}
		b.ReportMetric(ipc, "ipc")
		b.ReportMetric(float64(cycles), "simcycles")
	})
}

// BenchmarkC5OrionSweep regenerates the Orion load/latency/power curve on
// an 8x8 mesh under uniform traffic (three representative points; run
// cmd/orion for the full table).
func BenchmarkC5OrionSweep(b *testing.B) {
	for _, rate := range []float64{0.05, 0.15, 0.3} {
		b.Run(fmt.Sprintf("rate=%.2f", rate), func(b *testing.B) {
			var pt ccl.SweepPoint
			for i := 0; i < b.N; i++ {
				var err error
				pt, err = ccl.MeasurePoint(ccl.SweepCfg{
					W: 8, H: 8, Cycles: 1000, Seed: 1,
				}, rate)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pt.MeanLatency, "latency_cycles")
			b.ReportMetric(pt.Throughput, "pkts/node/cycle")
			b.ReportMetric(pt.PowerMw, "power_mW")
			b.ReportMetric(pt.DynamicMw, "dynamic_mW")
		})
	}
}

// BenchmarkC7NICThroughput measures the programmable NIC's receive-path
// packet rate against frame size — per-frame firmware overhead dominates
// small frames, DMA bandwidth dominates large ones.
func BenchmarkC7NICThroughput(b *testing.B) {
	for _, payload := range []int{46, 242, 1010, 1486} {
		b.Run(fmt.Sprintf("frame=%dB", payload+18), func(b *testing.B) {
			var framesPerKcycle float64
			for i := 0; i < b.N; i++ {
				framesPerKcycle = nicThroughput(b, payload, 30)
			}
			b.ReportMetric(framesPerKcycle, "frames/kcycle")
		})
	}
}

// BenchmarkA1ParallelScheduler measures host ns per simulated cycle of a
// 4x4 mesh under the sequential and parallel fixed-point schedulers.
func BenchmarkA1ParallelScheduler(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := []core.BuildOption{core.WithScheduler(core.SchedulerSequential)}
			if workers > 1 {
				opts = []core.BuildOption{core.WithScheduler(core.SchedulerParallel), core.WithWorkers(workers)}
			}
			sim := buildMeshTraffic(b, opts...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sim.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// buildMeshTraffic assembles the 4x4 mesh under uniform traffic shared by
// the scheduler benchmarks.
func buildMeshTraffic(b testing.TB, opts ...core.BuildOption) *core.Sim {
	b.Helper()
	bld := core.NewBuilder(append(append([]core.BuildOption(nil), opts...), core.WithSeed(1))...)
	nw, err := ccl.BuildMesh(bld, "net", ccl.MeshCfg{W: 4, H: 4})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < nw.Nodes; i++ {
		src, _ := pcl.NewSource(fmt.Sprintf("src%d", i), core.Params{
			"rate": 0.2,
			"gen":  ccl.PacketGen(i, nw.Nodes, ccl.UniformPattern, ccl.FixedSize(2)),
		})
		snk, _ := pcl.NewSink(fmt.Sprintf("snk%d", i), nil)
		bld.Add(src)
		bld.Add(snk)
		nw.ConnectSource(bld, i, src, "out")
		nw.ConnectSink(bld, i, snk, "in")
	}
	sim, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	return sim
}

// meshTrafficAssemble is buildMeshTraffic as a core.Compile recipe, so
// the Program/Sim benchmarks stamp sessions from one compiled netlist.
func meshTrafficAssemble(bld *core.Builder) error {
	nw, err := ccl.BuildMesh(bld, "net", ccl.MeshCfg{W: 4, H: 4})
	if err != nil {
		return err
	}
	for i := 0; i < nw.Nodes; i++ {
		src, err := pcl.NewSource(fmt.Sprintf("src%d", i), core.Params{
			"rate": 0.2,
			"gen":  ccl.PacketGen(i, nw.Nodes, ccl.UniformPattern, ccl.FixedSize(2)),
		})
		if err != nil {
			return err
		}
		snk, err := pcl.NewSink(fmt.Sprintf("snk%d", i), nil)
		if err != nil {
			return err
		}
		bld.Add(src)
		bld.Add(snk)
		if err := nw.ConnectSource(bld, i, src, "out"); err != nil {
			return err
		}
		if err := nw.ConnectSink(bld, i, snk, "in"); err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkNewSimFromProgram measures the Program/State split's payoff:
// stamping a session from the compiled 4x4-mesh program (re-running only
// the assembly recipe — no Tarjan, levelization or lane election) versus
// compiling the whole program from scratch. The stamp path is what a
// thousand-session parameter sweep pays per point.
func BenchmarkNewSimFromProgram(b *testing.B) {
	b.Run("compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prog, err := core.Compile(meshTrafficAssemble, core.WithSeed(1))
			if err != nil {
				b.Fatal(err)
			}
			_ = prog
		}
	})
	b.Run("stamp", func(b *testing.B) {
		prog, err := core.Compile(meshTrafficAssemble, core.WithSeed(1))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim, err := prog.NewSim()
			if err != nil {
				b.Fatal(err)
			}
			sim.Close()
		}
	})
}

// benchScheduler steps sim b.N cycles and reports fixed-point iterations
// per simulated cycle — the work the static schedule removes.
func benchScheduler(b *testing.B, sim *core.Sim) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.Step(); err != nil {
			b.Fatal(err)
		}
	}
	if m := sim.Metrics(); m != nil {
		b.ReportMetric(float64(m.FixedPointIters())/float64(b.N), "fpiters/cycle")
	}
}

// BenchmarkLevelizedPipeline compares the dynamic fixed-point path against
// the levelized static schedule on a 256-deep pipeline of handler-less
// modules — the netlist shape default control exists for (§2.1: modules
// may omit control code entirely). Every signal falls to default control;
// the sequential scanner's backward ack round degenerates to O(conns²)
// rescans while the static sweep resolves each level in order. The
// levelized engine must report zero fixed-point iterations: the chain is
// acyclic, so every default lands in the statically ordered sweep.
func BenchmarkLevelizedPipeline(b *testing.B) {
	b.Run("fixedpoint", func(b *testing.B) {
		benchScheduler(b, buildDefaultChain(b, 256,
			core.WithScheduler(core.SchedulerSequential), core.WithMetrics()))
	})
	b.Run("levelized", func(b *testing.B) {
		sim := buildDefaultChain(b, 256,
			core.WithScheduler(core.SchedulerLevelized), core.WithMetrics())
		benchScheduler(b, sim)
		if got := sim.Metrics().FixedPointIters(); got != 0 {
			b.Fatalf("acyclic chain reported %d fixed-point iterations, want 0", got)
		}
	})
}

// BenchmarkLevelizedMesh compares the same engines on a 16x16 torus mesh
// of handler-less modules: one large cyclic SCC where the residue
// worklist (dirty-signal seeded, precomputed dependency lists) replaces
// the sequential scanner's full-netlist eligibility rescans between cycle
// breaks.
func BenchmarkLevelizedMesh(b *testing.B) {
	b.Run("fixedpoint", func(b *testing.B) {
		benchScheduler(b, buildDefaultMesh(b, 16, 16,
			core.WithScheduler(core.SchedulerSequential), core.WithMetrics()))
	})
	b.Run("levelized", func(b *testing.B) {
		benchScheduler(b, buildDefaultMesh(b, 16, 16,
			core.WithScheduler(core.SchedulerLevelized), core.WithMetrics()))
	})
}

// BenchmarkWovenPipeline is the weaving acceptance gate on the 256-deep
// default-control pipeline: every connection is handler-free and
// control-free, so the woven plan compiles the entire netlist into
// constant replay — a steady cycle touches no per-connection state at
// all, against the levelized engine's full per-level interpreted sweep.
// The issue target is ≥2x over interpreted levelized at 0 allocs/op.
func BenchmarkWovenPipeline(b *testing.B) {
	b.Run("levelized", func(b *testing.B) {
		benchScheduler(b, buildDefaultChain(b, 256,
			core.WithScheduler(core.SchedulerLevelized), core.WithMetrics()))
	})
	b.Run("woven", func(b *testing.B) {
		benchScheduler(b, buildDefaultChain(b, 256,
			core.WithScheduler(core.SchedulerWoven), core.WithMetrics()))
	})
}

// BenchmarkWovenMesh runs the same comparison on a 16x16 acyclic grid —
// the torus's 2D fan-in/fan-out shape without its cyclic SCC. The torus
// itself is useless here (one big cycle is all interpreted residue, and
// both engines would run the identical worklist); the acyclic grid
// levelizes completely, so the woven engine replays all 480 connections
// while the levelized engine re-resolves them level by level.
func BenchmarkWovenMesh(b *testing.B) {
	b.Run("levelized", func(b *testing.B) {
		benchScheduler(b, buildDefaultAcyclicGrid(b, 16, 16,
			core.WithScheduler(core.SchedulerLevelized), core.WithMetrics()))
	})
	b.Run("woven", func(b *testing.B) {
		benchScheduler(b, buildDefaultAcyclicGrid(b, 16, 16,
			core.WithScheduler(core.SchedulerWoven), core.WithMetrics()))
	})
}

// BenchmarkSparseIdleMesh compares the levelized engine against the
// activity-gated sparse engine on a 16x16 torus of handler-less modules —
// a fully idle fabric. The levelized engine re-resolves all 512
// connections every cycle; the sparse engine resolves them once on the
// cycle-0 full sweep and replays, so a steady-state cycle touches no
// signal state at all.
func BenchmarkSparseIdleMesh(b *testing.B) {
	b.Run("levelized", func(b *testing.B) {
		benchScheduler(b, buildDefaultMesh(b, 16, 16,
			core.WithScheduler(core.SchedulerLevelized), core.WithMetrics()))
	})
	b.Run("sparse", func(b *testing.B) {
		benchScheduler(b, buildDefaultMesh(b, 16, 16,
			core.WithScheduler(core.SchedulerSparse), core.WithMetrics()))
	})
}

// BenchmarkSparseSensornet compares the engines on the mostly-idle shape
// activity gating targets: three low-rate sensor chains beside a 16x16
// passive fabric. Only the chains (a few percent of the netlist) pay
// per-cycle cost under the sparse engine.
func BenchmarkSparseSensornet(b *testing.B) {
	build := func(opts ...core.BuildOption) *core.Sim {
		return buildMostlyIdle(b, 3, 2, 16, 16, 0.05, 1<<40,
			append(opts, core.WithSeed(1), core.WithMetrics())...)
	}
	b.Run("levelized", func(b *testing.B) {
		benchScheduler(b, build(core.WithScheduler(core.SchedulerLevelized)))
	})
	b.Run("sparse", func(b *testing.B) {
		benchScheduler(b, build(core.WithScheduler(core.SchedulerSparse)))
	})
}

// specMeshWarmup is the cycle count BenchmarkSpecMesh and the steady-state
// allocation guard step before measuring: long enough for the torus to
// fill its buffers and for every FIFO and worklist to reach its working
// capacity.
const specMeshWarmup = 500

// loadSpecMesh builds specs/mesh.lss, unchanged, under the given engine
// and steps it past its warm-up.
func loadSpecMesh(tb testing.TB, kind core.SchedulerKind) *core.Sim {
	tb.Helper()
	src, err := os.ReadFile("specs/mesh.lss")
	if err != nil {
		tb.Fatal(err)
	}
	sim, err := lse.LoadLSS(string(src), lse.WithSeed(1), lse.WithScheduler(kind))
	if err != nil {
		tb.Fatal(err)
	}
	if err := sim.Run(specMeshWarmup); err != nil {
		tb.Fatal(err)
	}
	return sim
}

// BenchmarkSpecMesh measures steady-state ns/cycle and allocs/cycle on
// the shipped specs/mesh.lss — the paper's 4x4 torus under statistical
// traffic, handler-bound, with one cyclic SCC — under each one-worker
// engine. sparse is the Auto default; the bench-smoke gate keeps it from
// falling behind levelized on this fabric.
func BenchmarkSpecMesh(b *testing.B) {
	for _, eng := range []struct {
		name string
		kind core.SchedulerKind
	}{
		{"sequential", core.SchedulerSequential},
		{"levelized", core.SchedulerLevelized},
		{"sparse", core.SchedulerSparse},
		{"woven", core.SchedulerWoven},
	} {
		b.Run(eng.name, func(b *testing.B) {
			sim := loadSpecMesh(b, eng.kind)
			defer sim.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sim.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTypedPipeline isolates payload-boxing cost on a payload-heavy
// pipeline: a 256-lane source → sink chain moving one uint64 per lane per
// cycle. The typed variant declares payload="uint64" end to end, so every
// value rides the scalar fast lane (SendUint64 stores, TransferredUint64
// reads) and a steady-state cycle performs zero heap allocations; the
// boxed variant moves the identical values through the []any spill lane,
// paying one interface allocation per item plus GC write barriers and a
// spill-hit count on every data-lane store. The chain is deliberately
// minimal — no intermediate buffering — so the measured difference is the
// per-item transport representation, not module bookkeeping.
func BenchmarkTypedPipeline(b *testing.B) {
	const width = 256
	run := func(b *testing.B, payload string, gen pcl.GenFn) {
		b.Helper()
		bld := core.NewBuilder(core.WithScheduler(core.SchedulerLevelized))
		srcParams := core.Params{"payload": payload}
		if gen != nil {
			srcParams["gen"] = gen
		}
		src, err := pcl.NewSource("src", srcParams)
		if err != nil {
			b.Fatal(err)
		}
		snk, err := pcl.NewSink("snk", core.Params{"payload": payload})
		if err != nil {
			b.Fatal(err)
		}
		bld.Add(src)
		bld.Add(snk)
		for i := 0; i < width; i++ {
			bld.Connect(src, "out", snk, "in")
		}
		sim, err := bld.Build()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sim.Step(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(snk.Received())/float64(b.N), "items/cycle")
		b.ReportMetric(float64(sim.SpillHits())/float64(b.N), "spills/cycle")
	}
	b.Run("typed", func(b *testing.B) {
		run(b, "uint64", nil) // default typed generator: the sequence number
	})
	b.Run("boxed", func(b *testing.B) {
		// The same values, boxed: seq is already a uint64, so the boxed
		// variant measures pure representation cost, not generator cost.
		run(b, "any", func(rng *rand.Rand, cycle, seq uint64) (any, bool) {
			return seq, true
		})
	})
}

// BenchmarkA2ContractCost isolates the 3-signal handshake's host cost: a
// three-stage queue chain under the engine versus the same FIFO dataflow
// as direct Go calls.
func BenchmarkA2ContractCost(b *testing.B) {
	b.Run("structural-handshake", func(b *testing.B) {
		bld := core.NewBuilder()
		src, _ := pcl.NewSource("src", nil)
		q1, _ := pcl.NewQueue("q1", core.Params{"capacity": 4})
		q2, _ := pcl.NewQueue("q2", core.Params{"capacity": 4})
		q3, _ := pcl.NewQueue("q3", core.Params{"capacity": 4})
		snk, _ := pcl.NewSink("snk", nil)
		bld.Add(src)
		bld.Add(q1)
		bld.Add(q2)
		bld.Add(q3)
		bld.Add(snk)
		bld.Connect(src, "out", q1, "in")
		bld.Connect(q1, "out", q2, "in")
		bld.Connect(q2, "out", q3, "in")
		bld.Connect(q3, "out", snk, "in")
		sim, err := bld.Build()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sim.Step(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(snk.Received())/float64(b.N), "items/cycle")
	})
	b.Run("direct-calls", func(b *testing.B) {
		// The same per-cycle dataflow, hand-inlined: three bounded FIFOs.
		var q1, q2, q3 []int
		const capQ = 4
		next := 0
		received := 0
		step := func() {
			if len(q3) > 0 {
				q3 = q3[1:]
				received++
			}
			if len(q2) > 0 && len(q3) < capQ {
				q3 = append(q3, q2[0])
				q2 = q2[1:]
			}
			if len(q1) > 0 && len(q2) < capQ {
				q2 = append(q2, q1[0])
				q1 = q1[1:]
			}
			if len(q1) < capQ {
				q1 = append(q1, next)
				next++
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
		b.ReportMetric(float64(received)/float64(b.N), "items/cycle")
	})
}

// BenchmarkA3Topology compares 16-node fabrics at the same offered load:
// mesh vs torus vs single-stage crossbar.
func BenchmarkA3Topology(b *testing.B) {
	build := map[string]func(bld *core.Builder) (*ccl.Network, error){
		"mesh-4x4": func(bld *core.Builder) (*ccl.Network, error) {
			return ccl.BuildMesh(bld, "net", ccl.MeshCfg{W: 4, H: 4})
		},
		"torus-4x4": func(bld *core.Builder) (*ccl.Network, error) {
			return ccl.BuildMesh(bld, "net", ccl.MeshCfg{W: 4, H: 4, Torus: true})
		},
		"xbar-16": func(bld *core.Builder) (*ccl.Network, error) {
			return ccl.BuildCrossbar(bld, "net", 16, 4)
		},
	}
	for _, name := range []string{"mesh-4x4", "torus-4x4", "xbar-16"} {
		b.Run(name, func(b *testing.B) {
			var lat float64
			var thr float64
			for i := 0; i < b.N; i++ {
				bld := core.NewBuilder(core.WithSeed(5))
				nw, err := build[name](bld)
				if err != nil {
					b.Fatal(err)
				}
				var sinks []*pcl.Sink
				for n := 0; n < nw.Nodes; n++ {
					src, _ := pcl.NewSource(fmt.Sprintf("src%d", n), core.Params{
						"rate": 0.1,
						"gen":  ccl.PacketGen(n, nw.Nodes, ccl.UniformPattern, ccl.FixedSize(2)),
					})
					snk, _ := pcl.NewSink(fmt.Sprintf("snk%d", n), nil)
					bld.Add(src)
					bld.Add(snk)
					nw.ConnectSource(bld, n, src, "out")
					nw.ConnectSink(bld, n, snk, "in")
					sinks = append(sinks, snk)
				}
				sim, err := bld.Build()
				if err != nil {
					b.Fatal(err)
				}
				if err := sim.Run(1500); err != nil {
					b.Fatal(err)
				}
				var sum float64
				var cnt, recv int64
				for _, s := range sinks {
					recv += s.Received()
					h := sim.Stats().Histogram(s.Name() + ".latency")
					if h != nil {
						sum += h.Sum()
						cnt += h.Count()
					}
				}
				if cnt > 0 {
					lat = sum / float64(cnt)
				}
				thr = float64(recv) / 1500 / float64(nw.Nodes)
			}
			b.ReportMetric(lat, "latency_cycles")
			b.ReportMetric(thr, "pkts/node/cycle")
		})
	}
}

// BenchmarkA4VirtualChannels sweeps VC count on a mesh under transpose
// traffic (adversarial for XY routing): more VCs relieve head-of-line
// blocking at the cost of buffer area/leakage.
func BenchmarkA4VirtualChannels(b *testing.B) {
	for _, vcs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("vcs=%d", vcs), func(b *testing.B) {
			var lat, thr, leak float64
			for i := 0; i < b.N; i++ {
				bld := core.NewBuilder(core.WithSeed(7))
				nw, err := ccl.BuildMesh(bld, "net", ccl.MeshCfg{W: 4, H: 4, VCs: vcs})
				if err != nil {
					b.Fatal(err)
				}
				var sinks []*pcl.Sink
				for n := 0; n < nw.Nodes; n++ {
					src, _ := pcl.NewSource(fmt.Sprintf("src%d", n), core.Params{
						"rate": 0.15,
						"gen":  ccl.PacketGen(n, nw.Nodes, ccl.TransposePattern(4), ccl.FixedSize(2)),
					})
					snk, _ := pcl.NewSink(fmt.Sprintf("snk%d", n), nil)
					bld.Add(src)
					bld.Add(snk)
					nw.ConnectSource(bld, n, src, "out")
					nw.ConnectSink(bld, n, snk, "in")
					sinks = append(sinks, snk)
				}
				sim, err := bld.Build()
				if err != nil {
					b.Fatal(err)
				}
				if err := sim.Run(1500); err != nil {
					b.Fatal(err)
				}
				var sum float64
				var cnt, recv int64
				for _, s := range sinks {
					recv += s.Received()
					h := sim.Stats().Histogram(s.Name() + ".latency")
					if h != nil {
						sum += h.Sum()
						cnt += h.Count()
					}
				}
				if cnt > 0 {
					lat = sum / float64(cnt)
				}
				thr = float64(recv) / 1500 / float64(nw.Nodes)
				leak = ccl.MeasurePower(sim, nw, ccl.DefaultPowerParams()).LeakageTotal()
			}
			b.ReportMetric(lat, "latency_cycles")
			b.ReportMetric(thr, "pkts/node/cycle")
			b.ReportMetric(leak, "leakage_mW")
		})
	}
}

// BenchmarkA5SampledSimulation compares full-detail against sampled
// simulation of the same program: host time drops with the detail share
// while the cycle estimate stays close.
func BenchmarkA5SampledSimulation(b *testing.B) {
	prog := isa.MustAssemble(isa.ProgLong)
	b.Run("full-detail", func(b *testing.B) {
		var cycles uint64
		for i := 0; i < b.N; i++ {
			bld := core.NewBuilder()
			cpu, err := upl.NewInOrderCPU(bld, "cpu", prog, upl.CPUCfg{})
			if err != nil {
				b.Fatal(err)
			}
			sim, err := bld.Build()
			if err != nil {
				b.Fatal(err)
			}
			cycles = runToDone(b, sim, cpu.Done, 5_000_000)
		}
		b.ReportMetric(float64(cycles), "simcycles")
	})
	b.Run("sampled-10pct", func(b *testing.B) {
		var res upl.SampledResult
		for i := 0; i < b.N; i++ {
			bld := core.NewBuilder()
			cpu, err := upl.NewInOrderCPU(bld, "cpu", prog, upl.CPUCfg{})
			if err != nil {
				b.Fatal(err)
			}
			sim, err := bld.Build()
			if err != nil {
				b.Fatal(err)
			}
			res, err = upl.RunSampled(sim, cpu, upl.SampleCfg{DetailInsts: 300, SkipInsts: 2700})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.EstCycles), "simcycles")
		b.ReportMetric(res.DetailedShare, "detail_share")
	})
}

// BenchmarkObsOverhead quantifies the cost of the observability layer on
// the structural in-order pipeline from C4: "off" is the baseline every
// other benchmark pays (one nil check per scheduler event), "metrics"
// adds the atomic scheduler counters and sampled react timing, "events"
// additionally streams every resolution through a filtered ring tracer.
// Acceptance: off stays within 2% of the pre-observability engine.
func BenchmarkObsOverhead(b *testing.B) {
	prog := isa.MustAssemble(isa.ProgSum)
	run := func(b *testing.B, opts ...core.BuildOption) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			bld := core.NewBuilder(opts...)
			cpu, err := upl.NewInOrderCPU(bld, "cpu", prog, upl.CPUCfg{})
			if err != nil {
				b.Fatal(err)
			}
			sim, err := bld.Build()
			if err != nil {
				b.Fatal(err)
			}
			runToDone(b, sim, cpu.Done, 1_000_000)
		}
	}
	b.Run("off", func(b *testing.B) { run(b) })
	b.Run("metrics", func(b *testing.B) { run(b, core.WithMetrics()) })
	b.Run("events", func(b *testing.B) {
		run(b, core.WithMetrics(),
			core.WithTracer(obs.NewEventTracer(4096).FilterInstances("cpu.*")))
	})
}

// BenchmarkDataflowAnalyze measures the whole-program dataflow analysis
// (the engine behind LSE009–LSE013 and WithDataflowPrune) over the 16x16
// torus mesh — one large cyclic SCC, the fixed-point engine's worst
// case: no finite round count converges, so the run pays the full
// iteration budget and then the SCC widening.
func BenchmarkDataflowAnalyze(b *testing.B) {
	sim := buildDefaultMesh(b, 16, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.AnalyzeFlow(sim)
	}
}

// busyCell is a torus node with real per-react compute: every cycle it
// offers its state east and south, and reacting to the west/north
// arrivals runs a short xorshift spin before acking — the compute-bound
// shape the partitioned engine's worker-affine shards target. All four
// ports declare uint64 payloads, so the traffic rides the scalar fast
// lane and the benchmark measures scheduling plus compute, not boxing.
type busyCell struct {
	core.Base
	east, south *core.Port
	west, north *core.Port
	state       uint64
}

func newBusyCell(name string, seed uint64) *busyCell {
	c := &busyCell{state: seed | 1}
	c.Init(name, c)
	typed := core.PortOpts{MinWidth: 1, MaxWidth: 1, Payload: core.PayloadUint64}
	c.east = c.AddOutPort("e", typed)
	c.south = c.AddOutPort("s", typed)
	c.west = c.AddInPort("w", typed)
	c.north = c.AddInPort("n", typed)
	c.OnCycleStart(c.cycleStart)
	c.OnReact(c.react)
	c.OnCycleEnd(c.cycleEnd)
	return c
}

func (c *busyCell) cycleStart() {
	c.east.SendUint64(0, c.state)
	c.east.Enable(0)
	c.south.SendUint64(0, c.state^0x9e3779b97f4a7c15)
	c.south.Enable(0)
}

// churn is the per-arrival compute: a few hundred xorshift rounds —
// roughly the work of a small router's allocation pass.
func (c *busyCell) churn(v uint64) uint64 {
	x := v ^ c.state
	for i := 0; i < 400; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

func (c *busyCell) react() {
	for _, in := range [2]*core.Port{c.west, c.north} {
		if in.DataStatus(0) == core.Yes && !in.AckStatus(0).Known() {
			c.state ^= c.churn(in.Uint64(0))
			in.Ack(0)
		}
	}
}

func (c *busyCell) cycleEnd() {
	for _, in := range [2]*core.Port{c.west, c.north} {
		if v, ok := in.TransferredUint64(0); ok {
			c.state = c.state*6364136223846793005 + v
		}
	}
}

// busyTorusAssemble wires w×h busyCells into a torus (east and south
// neighbors, wrap-around) as a core.Compile recipe, so every worker
// count in BenchmarkPartitionedMesh stamps sessions from one compiled
// program and inherits the same partition.
func busyTorusAssemble(w, h int) func(*core.Builder) error {
	return func(bld *core.Builder) error {
		grid := make([][]*busyCell, h)
		for y := range grid {
			grid[y] = make([]*busyCell, w)
			for x := range grid[y] {
				grid[y][x] = newBusyCell(fmt.Sprintf("c%d_%d", y, x), uint64(y*w+x+1))
				bld.Add(grid[y][x])
			}
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if err := bld.Connect(grid[y][x], "e", grid[y][(x+1)%w], "w"); err != nil {
					return err
				}
				if err := bld.Connect(grid[y][x], "s", grid[(y+1)%h][x], "n"); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// BenchmarkPartitionedMesh is the partitioned engine's headline row: a
// 32x32 busy torus (1024 compute-bound cells, 2048 typed connections)
// compiled once with the partitioned scheduler, then stepped by sessions
// at 1, 2, 4 and 8 workers. The per-react xorshift spin gives the
// worker-affine shards real work to divide; on a multicore host the
// 8-worker row targets >=4x the 1-worker row, and on any host it must
// not be slower (the benchguard -notslower gate). Run with
// `make bench-par` to sweep -cpu 1,2,4,8.
func BenchmarkPartitionedMesh(b *testing.B) {
	prog, err := core.Compile(busyTorusAssemble(32, 32),
		core.WithScheduler(core.SchedulerPartitioned),
		core.WithShards(16),
		core.WithParallelThreshold(64))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sim, err := prog.NewSim(core.WithSeed(1), core.WithWorkers(workers))
			if err != nil {
				b.Fatal(err)
			}
			defer sim.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sim.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPrunedMesh compares sparse sessions of the same mixed netlist
// — a few live low-rate chains beside many provably dead rate-0 chains —
// with and without WithDataflowPrune. Unpruned, every dead source's
// cycle-start handler and every dead instance's commit handler still run
// each cycle (cycle-start handlers are always-active seeds); pruned,
// that structure is deleted from the schedule and only replays its
// settled resolution.
func BenchmarkPrunedMesh(b *testing.B) {
	assemble := assemblePrunable(2, 16, 8)
	for _, tc := range []struct {
		name string
		opts []core.BuildOption
	}{
		{"unpruned", []core.BuildOption{core.WithScheduler(core.SchedulerSparse)}},
		{"pruned", []core.BuildOption{core.WithScheduler(core.SchedulerSparse), core.WithDataflowPrune()}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			prog, err := core.Compile(assemble, tc.opts...)
			if err != nil {
				b.Fatal(err)
			}
			sim, err := prog.NewSim(core.WithSeed(1))
			if err != nil {
				b.Fatal(err)
			}
			defer sim.Close()
			benchScheduler(b, sim)
		})
	}
}
