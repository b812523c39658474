package liberty_test

import (
	"os"
	"runtime"
	"strings"
	"testing"

	core "liberty/internal/core"
	"liberty/lse"
)

// TestSpecMeshSteadyAllocs guards the allocation-free step path on the
// shipped specs/mesh.lss. Once the torus is warm, the only allocation a
// steady cycle needs is the *ccl.Packet each injection creates; the
// engines, the ccl links and the pcl queues, arbiters and routes must
// reuse their storage. The bound is the packets injected during the
// measured window plus a small slack: one per source for packets
// generated but still pending at the window's edges, and one allocation
// per ten cycles for amortized growth of the sinks' receive logs.
func TestSpecMeshSteadyAllocs(t *testing.T) {
	const cycles = 300
	for _, eng := range []struct {
		name string
		kind core.SchedulerKind
	}{
		{"sequential", core.SchedulerSequential},
		{"levelized", core.SchedulerLevelized},
		{"sparse", core.SchedulerSparse},
		{"woven", core.SchedulerWoven},
	} {
		t.Run(eng.name, func(t *testing.T) {
			sim := loadSpecMesh(t, eng.kind)
			defer sim.Close()
			var sources []*core.Counter
			st := sim.Stats()
			for _, name := range st.Names() {
				if strings.HasSuffix(name, ".injected") {
					sources = append(sources, st.Counter(name))
				}
			}
			if len(sources) == 0 {
				t.Fatal("mesh.lss registered no injection counters")
			}
			injected := func() int64 {
				var n int64
				for _, c := range sources {
					n += c.Value()
				}
				return n
			}
			const runs = 3
			var calls int
			var measured int64
			allocs := testing.AllocsPerRun(runs, func() {
				before := injected()
				if err := sim.Run(cycles); err != nil {
					t.Fatal(err)
				}
				if calls > 0 { // the first call is AllocsPerRun's warm-up
					measured += injected() - before
				}
				calls++
			})
			perRun := float64(measured) / runs
			limit := perRun + float64(len(sources)) + cycles/10
			t.Logf("%s: %.0f allocs per %d cycles, %.0f packets injected (limit %.0f)",
				eng.name, allocs, cycles, perRun, limit)
			if perRun == 0 {
				t.Fatal("no packets injected in the measured window")
			}
			if allocs > limit {
				t.Fatalf("%s: %.0f allocations per %d steady cycles, want at most %.0f (%.0f packets injected + slack)",
					eng.name, allocs, cycles, limit, perRun)
			}
		})
	}
}

// TestSpecMeshStampMemory guards the cost of stamping a session: a
// NewSim from the compiled specs/mesh.lss program must allocate what the
// session's state needs — instances, ports, connections, the signal
// plane — and no per-instance random-generator tables up front (each
// math/rand source is ~5 KB; the streams are created on first use).
// Eager seeding allocated ~1.9 MiB per stamp; the bound is 1 MiB,
// measured as the TotalAlloc delta averaged over several stamps.
func TestSpecMeshStampMemory(t *testing.T) {
	const (
		stamps = 8
		limit  = 1 << 20
	)
	src, err := os.ReadFile("specs/mesh.lss")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lse.CompileLSS(string(src), lse.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	stamp := func() {
		sim, err := prog.NewSim()
		if err != nil {
			t.Fatal(err)
		}
		sim.Close()
	}
	stamp() // warm any lazily built program state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < stamps; i++ {
		stamp()
	}
	runtime.ReadMemStats(&after)
	perStamp := (after.TotalAlloc - before.TotalAlloc) / stamps
	t.Logf("mesh.lss stamp allocates %d bytes (limit %d)", perStamp, limit)
	if perStamp >= limit {
		t.Fatalf("stamping mesh.lss allocates %d bytes per NewSim, want under %d", perStamp, limit)
	}
}
