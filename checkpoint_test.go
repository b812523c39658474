package liberty_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"

	core "liberty/internal/core"
	"liberty/internal/pcl"
	"liberty/lse"
)

// checkpointAssemble returns the deterministic recipe the checkpoint and
// concurrency tests compile: two rate-gated sources competing through an
// arbiter into a queue → delay → sink pipeline, plus an independent
// chain. Every pcl template with behavioral state (source sequence/
// pending, arbiter grant rotor, queue entries, delay lanes) is on the
// path, and the sub-unit rates keep the RNG streams hot so checkpointing
// must replay stream positions exactly. payload="uint64" swaps the
// independent chain onto the scalar fast lane.
func checkpointAssemble(payload string) func(*core.Builder) error {
	return func(b *core.Builder) error {
		add := func(inst core.Instance, err error) (core.Instance, error) {
			if err != nil {
				return nil, err
			}
			b.Add(inst)
			return inst, nil
		}
		src0, err := add(pcl.NewSource("src0", core.Params{"rate": 0.7}))
		if err != nil {
			return err
		}
		src1, err := add(pcl.NewSource("src1", core.Params{"rate": 0.45}))
		if err != nil {
			return err
		}
		arb, err := add(pcl.NewArbiter("arb", nil))
		if err != nil {
			return err
		}
		q, err := add(pcl.NewQueue("q", core.Params{"capacity": int64(3)}))
		if err != nil {
			return err
		}
		dly, err := add(pcl.NewDelay("dly", core.Params{"latency": int64(2)}))
		if err != nil {
			return err
		}
		snk, err := add(pcl.NewSink("snk", nil))
		if err != nil {
			return err
		}
		for _, c := range [][4]any{
			{src0, "out", arb, "in"},
			{src1, "out", arb, "in"},
			{arb, "out", q, "in"},
			{q, "out", dly, "in"},
			{dly, "out", snk, "in"},
		} {
			if err := b.Connect(c[0].(core.Instance), c[1].(string), c[2].(core.Instance), c[3].(string)); err != nil {
				return err
			}
		}
		// Independent chain; payload="uint64" puts it on the scalar lane.
		tsrc, err := add(pcl.NewSource("tsrc", core.Params{"rate": 0.6, "payload": payload}))
		if err != nil {
			return err
		}
		tq, err := add(pcl.NewQueue("tq", core.Params{"capacity": int64(2), "payload": payload}))
		if err != nil {
			return err
		}
		tsnk, err := add(pcl.NewSink("tsnk", core.Params{"payload": payload}))
		if err != nil {
			return err
		}
		if err := b.Connect(tsrc, "out", tq, "in"); err != nil {
			return err
		}
		return b.Connect(tq, "out", tsnk, "in")
	}
}

// lateDrawAssemble is a recipe whose random stream is idle at the
// snapshot cycle: a rate-1 source (which never draws to gate injection)
// whose generator offers nothing before cycle lateDrawFrom and draws
// each payload from the instance's stream after it, into a queue and a
// sink. A rate-gated source beside it draws every cycle. Snapshotted
// before lateDrawFrom, the late source's stream has never been created;
// the restored session must create it on its first draw at exactly the
// state the uninterrupted run reaches.
func lateDrawAssemble(b *core.Builder) error {
	const lateDrawFrom = 80
	late, err := pcl.NewSource("late", core.Params{"gen": pcl.GenFn(
		func(rng *rand.Rand, cycle, seq uint64) (any, bool) {
			if cycle < lateDrawFrom {
				return nil, true
			}
			return rng.Intn(1 << 20), true
		})})
	if err != nil {
		return err
	}
	busy, err := pcl.NewSource("busy", core.Params{"rate": 0.5})
	if err != nil {
		return err
	}
	arb, err := pcl.NewArbiter("arb", nil)
	if err != nil {
		return err
	}
	q, err := pcl.NewQueue("q", core.Params{"capacity": int64(2)})
	if err != nil {
		return err
	}
	snk, err := pcl.NewSink("snk", nil)
	if err != nil {
		return err
	}
	for _, inst := range []core.Instance{late, busy, arb, q, snk} {
		b.Add(inst)
	}
	for _, c := range []struct {
		src  core.Instance
		port string
		dst  core.Instance
		in   string
	}{{late, "out", arb, "in"}, {busy, "out", arb, "in"}, {arb, "out", q, "in"}, {q, "out", snk, "in"}} {
		if err := b.Connect(c.src, c.port, c.dst, c.in); err != nil {
			return err
		}
	}
	return nil
}

// runStamped stamps a session from prog with a cycle hasher attached,
// runs it for cycles and returns the hash sequence and statistics dump.
func runStamped(t *testing.T, prog *core.Program, cycles uint64) ([]uint64, string) {
	t.Helper()
	h := &cycleHasher{}
	sim, err := prog.NewSim(core.WithTracer(h))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Run(cycles); err != nil {
		t.Fatal(err)
	}
	var st bytes.Buffer
	sim.Stats().Dump(&st)
	return h.hashes, st.String()
}

// ckptNetlist is one netlist the checkpoint oracles run: a compile
// function per engine and the cycle the snapshot is taken at.
type ckptNetlist struct {
	name    string
	compile func(core.SchedulerKind) (*core.Program, error)
	snapAt  int
}

// checkpointNetlists returns the checkpoint oracles' netlists: the pcl
// recipe with boxed and typed (uint64-lane) payloads, a recipe with a
// stream that first draws after the snapshot, and the shipped
// specs/mesh.lss — ccl links carrying boxed *ccl.Packet values through a
// cyclic torus — snapshotted both before its first cycle and mid-run.
func checkpointNetlists(t *testing.T) []ckptNetlist {
	t.Helper()
	mesh, err := os.ReadFile("specs/mesh.lss")
	if err != nil {
		t.Fatal(err)
	}
	recipe := func(payload string) func(core.SchedulerKind) (*core.Program, error) {
		return func(kind core.SchedulerKind) (*core.Program, error) {
			return core.Compile(checkpointAssemble(payload), core.WithSeed(7), core.WithScheduler(kind))
		}
	}
	meshSpec := func(kind core.SchedulerKind) (*core.Program, error) {
		return lse.CompileLSS(string(mesh), lse.WithSeed(7), lse.WithScheduler(kind))
	}
	return []ckptNetlist{
		{"any", recipe("any"), 60},
		{"uint64", recipe("uint64"), 60},
		{"late-draw", func(kind core.SchedulerKind) (*core.Program, error) {
			return core.Compile(lateDrawAssemble, core.WithSeed(7), core.WithScheduler(kind))
		}, 60},
		{"mesh-at0", meshSpec, 0},
		{"mesh-at60", meshSpec, 60},
	}
}

// TestCheckpointRestoreBitIdentical is the checkpoint oracle: run a
// session to cycle k, snapshot, restore onto a fresh session and run the
// remainder. The restored run's per-cycle scheddiff hashes and its final
// statistics dump must be bit-identical to an uninterrupted run — across
// the sequential, levelized, sparse and woven engines, across boxed and
// typed (uint64-lane) payloads, and on the shipped mesh.
func TestCheckpointRestoreBitIdentical(t *testing.T) {
	const total = 140
	engines := []struct {
		name string
		kind core.SchedulerKind
	}{
		{"sequential", core.SchedulerSequential},
		{"levelized", core.SchedulerLevelized},
		{"sparse", core.SchedulerSparse},
		{"woven", core.SchedulerWoven},
	}
	for _, nl := range checkpointNetlists(t) {
		snapAt := nl.snapAt
		for _, eng := range engines {
			t.Run(fmt.Sprintf("%s/%s", nl.name, eng.name), func(t *testing.T) {
				prog, err := nl.compile(eng.kind)
				if err != nil {
					t.Fatal(err)
				}
				refHashes, refStats := runStamped(t, prog, total)
				if len(refHashes) != total {
					t.Fatalf("reference run hashed %d cycles, want %d", len(refHashes), total)
				}

				h1 := &cycleHasher{}
				simA, err := prog.NewSim(core.WithTracer(h1))
				if err != nil {
					t.Fatal(err)
				}
				if err := simA.Run(uint64(snapAt)); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := simA.Snapshot(&buf); err != nil {
					t.Fatal(err)
				}
				simA.Close()
				for i := 0; i < snapAt; i++ {
					if h1.hashes[i] != refHashes[i] {
						t.Fatalf("pre-snapshot run diverges from reference at cycle %d", i)
					}
				}

				h2 := &cycleHasher{}
				simB, err := prog.Restore(bytes.NewReader(buf.Bytes()), core.WithTracer(h2))
				if err != nil {
					t.Fatal(err)
				}
				defer simB.Close()
				if got := simB.Now(); got != uint64(snapAt) {
					t.Fatalf("restored session resumes at cycle %d, want %d", got, snapAt)
				}
				if err := simB.Run(uint64(total - snapAt)); err != nil {
					t.Fatal(err)
				}
				if len(h2.hashes) != total-snapAt {
					t.Fatalf("restored run hashed %d cycles, want %d", len(h2.hashes), total-snapAt)
				}
				for i, h := range h2.hashes {
					if h != refHashes[snapAt+i] {
						t.Fatalf("%s/%s: restored run diverges from the uninterrupted one at cycle %d",
							nl.name, eng.name, snapAt+i)
					}
				}
				var st bytes.Buffer
				simB.Stats().Dump(&st)
				if st.String() != refStats {
					t.Fatalf("restored statistics diverge:\n--- uninterrupted\n%s--- restored\n%s",
						refStats, st.String())
				}
			})
		}
	}
}

// TestCheckpointCrossEngineWoven pins scheduler independence of the
// snapshot format: the fingerprint hashes structure, not the engine, so
// a snapshot taken under the woven engine restores into a levelized
// compile of the same recipe (and vice versa) and continues the
// reference hash sequence bit-for-bit. This is the woven engine's
// strongest external soundness check — its replayed region must land
// exactly the state the interpreted engines compute.
func TestCheckpointCrossEngineWoven(t *testing.T) {
	const total = 140
	for _, nl := range checkpointNetlists(t) {
		snapAt := nl.snapAt
		for _, dir := range []struct {
			name     string
			from, to core.SchedulerKind
		}{
			{"woven-to-levelized", core.SchedulerWoven, core.SchedulerLevelized},
			{"levelized-to-woven", core.SchedulerLevelized, core.SchedulerWoven},
		} {
			t.Run(fmt.Sprintf("%s/%s", nl.name, dir.name), func(t *testing.T) {
				progFrom, err := nl.compile(dir.from)
				if err != nil {
					t.Fatal(err)
				}
				progTo, err := nl.compile(dir.to)
				if err != nil {
					t.Fatal(err)
				}
				refHashes, refStats := runStamped(t, progTo, total)

				simA, err := progFrom.NewSim()
				if err != nil {
					t.Fatal(err)
				}
				if err := simA.Run(uint64(snapAt)); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := simA.Snapshot(&buf); err != nil {
					t.Fatal(err)
				}
				simA.Close()

				h := &cycleHasher{}
				simB, err := progTo.Restore(bytes.NewReader(buf.Bytes()), core.WithTracer(h))
				if err != nil {
					t.Fatal(err)
				}
				defer simB.Close()
				if err := simB.Run(uint64(total - snapAt)); err != nil {
					t.Fatal(err)
				}
				for i, got := range h.hashes {
					if got != refHashes[snapAt+i] {
						t.Fatalf("cross-engine restore diverges from the %s reference at cycle %d",
							dir.to, snapAt+i)
					}
				}
				var st bytes.Buffer
				simB.Stats().Dump(&st)
				if st.String() != refStats {
					t.Fatalf("cross-engine statistics diverge:\n--- reference\n%s--- restored\n%s",
						refStats, st.String())
				}
			})
		}
	}
}

// TestRestoreRejectsForeignSnapshot pins the fingerprint guard: a
// snapshot taken under one program must not restore into a structurally
// different one.
func TestRestoreRejectsForeignSnapshot(t *testing.T) {
	progA, err := core.Compile(checkpointAssemble("any"), core.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	progB, err := core.Compile(checkpointAssemble("uint64"), core.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := progA.NewSim()
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := progB.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("restore accepted a snapshot from a structurally different program")
	}
}

// TestProgramConcurrentSims stamps many sessions from one compiled
// program across goroutines and runs them in parallel — the tentpole
// claim of the Program/State split. Run under -race in CI; with a shared
// seed every session must also produce the identical hash sequence,
// proving the sessions share only immutable artifacts.
func TestProgramConcurrentSims(t *testing.T) {
	prog, err := core.Compile(checkpointAssemble("uint64"), core.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	n := 2 * runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	hashes := make([][]uint64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := &cycleHasher{}
			sim, err := prog.NewSim(core.WithTracer(h))
			if err != nil {
				errs[i] = err
				return
			}
			defer sim.Close()
			if err := sim.Run(100); err != nil {
				errs[i] = err
				return
			}
			hashes[i] = h.hashes
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if len(hashes[i]) != len(hashes[0]) {
			t.Fatalf("session %d hashed %d cycles, session 0 hashed %d", i, len(hashes[i]), len(hashes[0]))
		}
		for c := range hashes[i] {
			if hashes[i][c] != hashes[0][c] {
				t.Fatalf("session %d diverges from session 0 at cycle %d under a shared seed", i, c)
			}
		}
	}
}
