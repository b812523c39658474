package liberty_test

import (
	"os"
	"runtime"
	"sync"
	"testing"

	core "liberty/internal/core"
	"liberty/internal/obs"
	"liberty/lse"
)

// TestSingleWriterHandoffRace pins the single-writer contract of the
// step path (DESIGN.md Appendix C). A one-worker session touches its
// signal plane and scheduled flags with plain loads and stores, which is
// sound only because exactly one goroutine steps it at a time and every
// hand-off between goroutines goes through a happens-before edge. Here
// one session of specs/mesh.lss is stepped alternately by two
// goroutines, handed off through a mutex the way the lsd service
// serializes requests on a session, while a scraper polls it: Metrics,
// SpillHits, the statistics and obs.TakeLiveSnapshot without the mutex
// (they are atomic or lock-protected, and the live snapshot reads the
// published cycle count), and obs.TakeSnapshot — which also reads the
// cycle counter, a plain field of the stepping goroutine — under it. Run
// under -race (CI does), the detector proves the hand-off suffices and
// that the lock-free reads touch only scrape-safe state. The handed-off
// run must also hash bit-identically, cycle for cycle, to the same
// session stepped on one goroutine, and a one-worker session's scheduler counts
// must match too.
func TestSingleWriterHandoffRace(t *testing.T) {
	const (
		total = 210
		chunk = 7 // cycles per hand-off, like one lsd run request
	)
	src, err := os.ReadFile("specs/mesh.lss")
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []struct {
		name    string
		kind    core.SchedulerKind
		workers int
	}{
		{"sequential", core.SchedulerSequential, 1},
		{"levelized", core.SchedulerLevelized, 1},
		{"sparse", core.SchedulerSparse, 1},
		{"woven", core.SchedulerWoven, 1},
		// A multi-worker session keeps the atomic path; hand-offs must
		// compose with its pool too.
		{"parallel-w2", core.SchedulerParallel, 2},
	} {
		t.Run(eng.name, func(t *testing.T) {
			load := func(h *cycleHasher) *core.Sim {
				sim, err := lse.LoadLSS(string(src), lse.WithSeed(3), lse.WithMetrics(),
					lse.WithScheduler(eng.kind), lse.WithWorkers(eng.workers), lse.WithTracer(h))
				if err != nil {
					t.Fatal(err)
				}
				return sim
			}
			refH := &cycleHasher{}
			ref := load(refH)
			defer ref.Close()
			if err := ref.Run(total); err != nil {
				t.Fatal(err)
			}

			h := &cycleHasher{}
			sim := load(h)
			defer sim.Close()
			var (
				mu   sync.Mutex
				cond = sync.NewCond(&mu)
				turn int // which stepper runs the next chunk
				errs [2]error
				ran  [2]int
				wg   sync.WaitGroup
			)
			done := make(chan struct{})
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					mu.Lock()
					defer mu.Unlock()
					for {
						for turn != g {
							cond.Wait()
						}
						if sim.Now() >= total || errs[1-g] != nil {
							turn = 1 - g
							cond.Broadcast()
							return
						}
						if errs[g] = sim.Run(chunk); errs[g] != nil {
							turn = 1 - g
							cond.Broadcast()
							return
						}
						ran[g]++
						turn = 1 - g
						cond.Broadcast()
					}
				}(g)
			}
			scraped := make(chan int)
			go func() {
				n := 0
				for {
					m := sim.Metrics()
					_ = m.Cycles() + m.Wakes() + m.Reacts() + m.DefaultFallbacks(core.SigData)
					_ = sim.SpillHits()
					st := sim.Stats()
					for _, name := range st.Names() {
						if c := st.Counter(name); c != nil {
							_ = c.Value()
						}
					}
					_ = obs.TakeLiveSnapshot(sim)
					mu.Lock()
					_ = obs.TakeSnapshot(sim)
					mu.Unlock()
					n++
					select {
					case <-done:
						scraped <- n
						return
					default:
						runtime.Gosched()
					}
				}
			}()
			wg.Wait()
			close(done)
			n := <-scraped
			for g, err := range errs {
				if err != nil {
					t.Fatalf("stepper %d: %v", g, err)
				}
			}
			if ran[0] == 0 || ran[1] == 0 {
				t.Fatalf("steppers ran %d and %d chunks; both must step the session", ran[0], ran[1])
			}
			if n == 0 {
				t.Fatal("the scraper never ran")
			}
			if len(h.hashes) != len(refH.hashes) {
				t.Fatalf("handed-off run hashed %d cycles, reference %d", len(h.hashes), len(refH.hashes))
			}
			for c := range h.hashes {
				if h.hashes[c] != refH.hashes[c] {
					t.Fatalf("handed-off run diverges from the one-goroutine run at cycle %d", c)
				}
			}
			if eng.workers > 1 {
				return // pooled rounds make wake counts timing-dependent
			}
			got, want := sim.Metrics(), ref.Metrics()
			if got.Wakes() != want.Wakes() || got.Reacts() != want.Reacts() ||
				got.DefaultFallbacks(core.SigAck) != want.DefaultFallbacks(core.SigAck) {
				t.Fatalf("scheduler counts differ: wakes %d/%d reacts %d/%d ack defaults %d/%d",
					got.Wakes(), want.Wakes(), got.Reacts(), want.Reacts(),
					got.DefaultFallbacks(core.SigAck), want.DefaultFallbacks(core.SigAck))
			}
		})
	}
}
