package liberty_test

import (
	"strings"
	"testing"

	core "liberty/internal/core"
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
