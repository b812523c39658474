package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

type phase uint8

const (
	phaseIdle phase = iota
	phaseStart
	phaseReact
	phaseEnd
)

// Sim is an executable simulator constructed from a netlist. Simulated
// time advances one cycle per Step; within a cycle, module reactive
// handlers run to a monotonic fixed point, default control resolves the
// remaining signals, and state commits.
type Sim struct {
	seed      int64
	sched     SchedulerKind // resolved: Sequential, Parallel, Levelized, Sparse, Partitioned or Woven
	workers   int
	parMin    int // parallel rounds below this size drain inline
	tracer    Tracer
	prog      *Program // the compiled structure this session executes
	instances []Instance
	bases     []*Base // instances[i].base(), resolved once at bind
	byName    map[string]Instance
	conns     []*Conn
	plane     sigPlane // dense signal state, indexed by conn id
	stats     *StatSet
	metrics   *Metrics      // nil unless built with WithMetrics
	schedule  *progSchedule // shared: nil unless a statically scheduled engine is selected
	sparse    *progSparse   // shared: nil unless the sparse scheduler is selected
	weave     *progWeave    // shared: nil unless the woven scheduler is selected
	pruned    []bool        // shared: instance id -> handlers never run (WithDataflowPrune); nil otherwise
	pool      *workerPool
	part      *progPartition // shared: nil unless the partitioned scheduler is selected
	ppool     *partPool      // partitioned phase pool; nil unless partitioned with workers > 1

	// stealCount counts rounds entries this session's workers claimed
	// from shards they do not own (see ScheduleInfo.StealCount).
	stealCount atomic.Uint64

	// needFull requests a full sweep from the next Step (cycle 0, after
	// InvalidateActivity, a Step error or a Restore) under the engines
	// that replay settled resolutions on steady cycles (sparse and
	// woven). Session state — the compiled activity partition and woven
	// plan themselves are shared and never written.
	needFull bool

	// Levelized residue-worklist scratch, per session (the id lists it
	// walks are the program's). schedRemaining is allocated lazily on the
	// first residue run, so acyclic netlists never pay for it.
	schedRemaining []int32 // conn id -> unresolved dep count; -1 = not pending
	schedReady     []int32

	phase phase
	// writable mirrors phase ∈ {phaseStart, phaseReact} as one flag so
	// mustWritePhase — the guard on every signal write — is a single
	// load-and-branch that inlines. Maintained by setPhase only.
	writable bool
	cycle    uint64

	// released is set at commit and cleared at the top of the next Step:
	// between cycles, data-value reads (Conn.Data, TransferredData and
	// their typed counterparts) report "not driven" on both lanes even
	// though the statuses still read Yes. This makes the post-commit read
	// path explicit — a tracer can never observe a released spill value
	// or a stale scalar.
	released bool

	// spillHits counts data-Yes stores that landed on the boxed spill
	// lane. Always on: only the spill path — which boxes anyway — pays
	// the atomic add, so the scalar fast lane costs nothing.
	spillHits atomic.Uint64

	// published is cycle as of its last publication, for scrapers on
	// other goroutines (PublishedCycle). The Run loops store it every
	// publishEvery cycles and on return; Step never does, so the step
	// path carries no locked instruction.
	published atomic.Uint64

	// resolved counts this cycle's resolutions per signal kind. It is
	// maintained only on the single-worker resolve path (a plain
	// increment; parallel workers would contend on it), so consumers may
	// rely on it only as a lower bound: resolved[k] == len(conns) proves
	// kind k is fully resolved and the default sweep for it can be
	// skipped; a smaller count proves nothing. Reset each Step.
	resolved [3]int

	queue  []*Base // sequential work queue (FIFO by wake order)
	qhead  int
	par    bool // inside a parallel drain round
	wakeMu sync.Mutex
	wakes  []*Base // wakes collected during a parallel round
	batch  []*Base // reused parallel round buffer

	// Residue-worklist plumbing (levelized scheduler): while a residue
	// run is active, raise() reports each kind-matching resolution here.
	residueOn   bool
	residueKind SigKind
	resolvedBuf []*Conn
}

// Close releases the simulator's worker pool, if any, and is idempotent:
// repeated calls are no-ops. A finalizer releases pooled workers when the
// simulator is garbage collected; Close makes the release deterministic,
// which matters when many short-lived sessions are stamped from one
// Program (a sweep that relies on the finalizer leaks worker goroutines
// until the collector catches up). The simulator must not be stepped
// after Close.
func (s *Sim) Close() {
	if s.pool != nil {
		s.pool.close()
		s.pool = nil
		runtime.SetFinalizer(s, nil)
	}
	if s.ppool != nil {
		s.ppool.close()
		s.ppool = nil
		runtime.SetFinalizer(s, nil)
	}
}

// Program returns the compiled program this session executes. Every Sim
// has one; only programs built with Compile (or lse.CompileLSS) carry an
// assembly recipe and can stamp further sessions.
func (s *Sim) Program() *Program { return s.prog }

// Seed returns the simulator's random seed.
func (s *Sim) Seed() int64 { return s.seed }

// Now returns the current cycle number (the number of completed cycles).
// It reads the stepping goroutine's own counter: call it from that
// goroutine, or after a happens-before edge with it. Other goroutines
// use PublishedCycle.
func (s *Sim) Now() uint64 { return s.cycle }

// publishEvery is how often, in cycles, the Run loops publish the cycle
// count mid-run. A power of two.
const publishEvery = 256

// PublishedCycle returns the cycle count as of its last publication. It
// is safe to call from any goroutine while another steps the simulator —
// the live-metrics scrape reads it. Run, RunContext, RunUntil and
// RunUntilContext publish every 256 cycles and when they return, and a
// restored session starts published at its snapshot cycle; a bare Step
// publishes nothing, so a caller that steps by hand publishes through
// its next Run.
func (s *Sim) PublishedCycle() uint64 { return s.published.Load() }

func (s *Sim) publishCycle() { s.published.Store(s.cycle) }

// Stats returns the simulator's statistics set.
func (s *Sim) Stats() *StatSet { return s.stats }

// Metrics returns the simulator's scheduler metrics, or nil when the
// simulator was built without WithMetrics.
func (s *Sim) Metrics() *Metrics { return s.metrics }

// Instances returns the netlist's instances in assembly order.
func (s *Sim) Instances() []Instance { return s.instances }

// Instance returns the named instance, or nil.
func (s *Sim) Instance(name string) Instance { return s.byName[name] }

// Conns returns the netlist's connections.
func (s *Sim) Conns() []*Conn { return s.conns }

// SpillHits returns the cumulative number of data-Yes resolutions stored
// on the boxed spill lane — each one an interface store (and usually an
// allocation) the scalar fast lane would have avoided. Divide by the
// cycle count for a per-cycle boxing rate.
func (s *Sim) SpillHits() uint64 { return s.spillHits.Load() }

func (s *Sim) onResolve(c *Conn, k SigKind, st Status) {
	if s.tracer != nil {
		s.tracer.OnResolve(c, k, st)
	}
}

// setPhase moves the simulator to phase p, keeping the writable mirror
// flag (read by mustWritePhase on every signal write) in sync.
func (s *Sim) setPhase(p phase) {
	s.phase = p
	s.writable = p == phaseStart || p == phaseReact
}

// wake schedules an instance's reactive handler. b is never nil: every
// caller passes a built instance's Base (connection endpoints and the
// instance list are fixed at Build). A one-worker session owns the
// scheduled flag outright, so its already-scheduled early-out is a plain
// load that inlines into resolve's hot path — the common case on busy
// netlists, where every resolution wakes an endpoint. A multi-worker
// session's pool workers race on the flag, so its wakes always take the
// compare-and-swap in wakeSlow.
func (s *Sim) wake(b *Base) {
	if s.workers == 1 && (b.react == nil || b.scheduled != 0) {
		return
	}
	s.wakeSlow(b)
}

func (s *Sim) wakeSlow(b *Base) {
	if s.workers == 1 {
		b.scheduled = 1
	} else if b.react == nil || atomic.LoadUint32(&b.scheduled) != 0 ||
		!atomic.CompareAndSwapUint32(&b.scheduled, 0, 1) {
		return
	}
	if m := s.metrics; m != nil {
		m.wakes.Add(1)
	}
	if s.par {
		if s.ppool != nil {
			// Partitioned phase: the wake lands on the woken instance's
			// shard queue — usually owned by the waking worker itself, so
			// the per-shard mutex is uncontended, unlike the global
			// wake mutex below.
			s.ppool.ph.wake(b, s.part.instShard[b.id])
			return
		}
		s.wakeMu.Lock()
		s.wakes = append(s.wakes, b)
		s.wakeMu.Unlock()
		return
	}
	s.queue = append(s.queue, b)
}

// unschedule clears b's scheduled flag on the stepping goroutine: a plain
// store in a one-worker session, an atomic one when pool workers may
// read the flag concurrently.
func (s *Sim) unschedule(b *Base) {
	if s.workers == 1 {
		b.scheduled = 0
		return
	}
	atomic.StoreUint32(&b.scheduled, 0)
}

func (s *Sim) drain() {
	if s.workers > 1 && len(s.queue)-s.qhead >= s.parMin {
		if s.ppool != nil {
			s.drainPartitioned()
		} else {
			s.drainParallel()
		}
		return
	}
	// Sequential worklist — also the parallel engine's small-round path:
	// rounds below the parallel threshold cost more in barrier latency
	// and wake-mutex traffic than the work is worth (BENCH_2: workers=2
	// ran 2.1x slower than workers=1 on handshake-bound rounds of 2-4
	// instances), so they run inline on the calling goroutine and only
	// escalate to pooled rounds if the worklist grows past the threshold.
	ran := s.qhead < len(s.queue)
	size := len(s.queue) - s.qhead
	for s.qhead < len(s.queue) {
		if s.workers > 1 && len(s.queue)-s.qhead >= s.parMin {
			if m := s.metrics; m != nil {
				// Account the inline prefix as one round.
				m.rounds.Add(1)
				m.roundSize.Observe(float64(size))
				if s.schedule == nil {
					m.iters.Add(1)
				}
			}
			if s.ppool != nil {
				s.drainPartitioned()
			} else {
				s.drainParallel()
			}
			return
		}
		b := s.queue[s.qhead]
		s.qhead++
		s.unschedule(b)
		s.runReact(b)
	}
	s.queue = s.queue[:0]
	s.qhead = 0
	if m := s.metrics; m != nil && ran {
		if s.workers > 1 {
			m.rounds.Add(1)
			m.roundSize.Observe(float64(size))
		}
		// Under the levelized scheduler, fixed-point iterations are
		// counted by the residue worklist instead (zero on acyclic
		// netlists).
		if s.schedule == nil {
			m.iters.Add(1)
		}
	}
}

// runReact invokes one reactive handler, recording invocation counts and
// sampled wall time when metrics are enabled.
func (s *Sim) runReact(b *Base) {
	m := s.metrics
	if m == nil {
		b.react()
		return
	}
	m.reacts.Add(1)
	im := &m.insts[b.id]
	if n := im.reacts.Add(1); n&reactSampleMask != 1 {
		b.react()
		return
	}
	t0 := time.Now()
	b.react()
	im.nanos.Add(time.Since(t0).Nanoseconds())
	im.sampled.Add(1)
}

// drainParallel runs the reactive fixed point in barrier-synchronized
// rounds on the persistent worker pool. Within a round the ready set is
// claimed by the workers; signal resolution is atomic and
// single-assignment, and each signal has a unique driving instance, so
// rounds race only on wake bookkeeping. Monotonic confluence makes the
// result identical to sequential execution.
func (s *Sim) drainParallel() {
	// Move any sequentially-queued wakes (from cycle-start) into the
	// round set.
	batch := append(s.batch[:0], s.queue[s.qhead:]...)
	s.queue = s.queue[:0]
	s.qhead = 0
	s.wakes = s.wakes[:0]
	s.par = true
	defer func() {
		s.par = false
		s.batch = batch[:0]
	}()
	for len(batch) > 0 {
		batch = sortWakes(batch)
		if m := s.metrics; m != nil {
			m.rounds.Add(1)
			if s.schedule == nil {
				m.iters.Add(1)
			}
			m.roundSize.Observe(float64(len(batch)))
		}
		if len(batch) < s.parMin {
			// Small rounds cost more in barrier latency and wake-mutex
			// traffic than the work is worth (BENCH_2: workers=2 ran 2.1x
			// slower than workers=1 on handshake-bound rounds of 2-4
			// instances). Drain the round as a sequential worklist on the
			// calling goroutine: with s.par off, wakes append straight to
			// the queue, mutex-free, and run in the same pass. Monotonic
			// confluence keeps the result identical; if the worklist grows
			// back past the threshold the remainder returns to pooled
			// rounds.
			s.par = false
			s.queue = append(s.queue[:0], batch...)
			s.qhead = 0
			for s.qhead < len(s.queue) && len(s.queue)-s.qhead < s.parMin {
				b := s.queue[s.qhead]
				s.qhead++
				atomic.StoreUint32(&b.scheduled, 0)
				s.runReact(b)
			}
			batch = append(batch[:0], s.queue[s.qhead:]...)
			s.queue = s.queue[:0]
			s.qhead = 0
			s.par = true
			continue
		}
		s.pool.run(s, batch)
		batch = append(batch[:0], s.wakes...)
		s.wakes = s.wakes[:0]
	}
}

// sortWakes puts a round batch into deterministic id order and drops
// duplicates. Cycle-start broadcasts arrive already ordered, so the
// common case is a single linear scan with no sort.
func sortWakes(batch []*Base) []*Base {
	sorted := true
	for i := 1; i < len(batch); i++ {
		if batch[i].id <= batch[i-1].id {
			sorted = false
			break
		}
	}
	if sorted {
		return batch
	}
	sort.Slice(batch, func(i, j int) bool { return batch[i].id < batch[j].id })
	out := batch[:1]
	for _, b := range batch[1:] {
		if b != out[len(out)-1] {
			out = append(out, b)
		}
	}
	return out
}

// applyDefaults resolves still-Unknown signals using default control
// semantics, in three deterministic rounds (data, then enable, then ack),
// re-running the reactive fixed point after every applied default so
// modules can react to defaulted values before their own signals are
// defaulted.
//
// Within a round, defaults are applied dependency-aware: a connection's
// signal is only defaulted once the module that should have driven it has
// every same-kind input it could be mirroring already resolved — data and
// enable propagate forward, so their driver's dependencies are the
// driver's input connections; acks propagate backward, so an ack's
// dependencies are the receiving module's own downstream acks. This makes
// arbitrarily deep combinational mirror chains (queue → route → arbiter →
// sink) resolve from the leaves inward instead of being pessimistically
// killed at the head. A genuine dependency cycle is broken at the
// lowest-id unresolved connection.
func (s *Sim) applyDefaults(full bool) {
	if !full {
		if s.sparse != nil {
			s.applyDefaultsSparse()
			return
		}
		if s.weave != nil {
			s.applyDefaultsWoven()
			return
		}
	}
	if s.schedule != nil {
		if s.part != nil {
			s.applyDefaultsPartitioned()
		} else {
			s.applyDefaultsLevelized()
		}
		return
	}
	s.defaultRound(SigData)
	s.defaultRound(SigEnable)
	s.defaultRound(SigAck)
}

func (s *Sim) defaultRound(k SigKind) {
	for {
		if s.resolved[k] == len(s.conns) {
			return // fully resolved by reactions; nothing to default
		}
		progress := false
		unresolved := false
		for _, c := range s.conns {
			if c.status(k) != Unknown {
				continue
			}
			if !s.defaultDepsResolved(c, k) {
				unresolved = true
				continue
			}
			s.applyDefault(c, k)
			progress = true
			s.drain()
		}
		if !unresolved {
			return
		}
		if !progress {
			for _, c := range s.conns {
				if c.status(k) == Unknown {
					if m := s.metrics; m != nil {
						m.breaks[k].Add(1)
					}
					s.applyDefault(c, k)
					s.drain()
					break
				}
			}
		}
	}
}

// defaultDepsResolved reports whether the module responsible for driving
// connection c's signal k has all of its same-kind upstream inputs
// resolved, i.e. whether defaulting now cannot pre-empt a mirror the
// module would still perform.
func (s *Sim) defaultDepsResolved(c *Conn, k SigKind) bool {
	if k == SigAck {
		owner := c.dst.owner
		for _, p := range owner.portList {
			if p.owner != owner || p.dir != Out {
				continue
			}
			for _, oc := range p.conns {
				if oc.status(SigAck) == Unknown {
					return false
				}
			}
		}
		return true
	}
	owner := c.src.owner
	for _, p := range owner.portList {
		if p.owner != owner || p.dir != In {
			continue
		}
		for _, ic := range p.conns {
			if ic.status(k) == Unknown {
				return false
			}
		}
	}
	return true
}

func (s *Sim) applyDefault(c *Conn, k SigKind) {
	if m := s.metrics; m != nil {
		m.defaults[k].Add(1)
	}
	switch k {
	case SigData:
		c.raise(SigData, No, nil)
	case SigEnable:
		st := Unknown
		if fn := c.src.opts.Control; fn != nil {
			st = fn(c.status(SigData), Unknown, c.dataValue())
		}
		if st == Unknown {
			st = c.src.opts.DefaultEnable
		}
		if st == Unknown {
			st = c.status(SigData)
			if st == Unknown { // cannot happen after the data round
				st = No
			}
		}
		c.raise(SigEnable, st, nil)
	case SigAck:
		st := Unknown
		if fn := c.dst.opts.Control; fn != nil {
			st = fn(c.status(SigData), c.status(SigEnable), c.dataValue())
		}
		if st == Unknown {
			st = c.dst.opts.DefaultAck
		}
		if st == Unknown {
			if c.status(SigData) == Yes && c.status(SigEnable) == Yes {
				st = Yes
			} else {
				st = No
			}
		}
		c.raise(SigAck, st, nil)
	}
}

func (s *Sim) verifyResolved(conns []*Conn) {
	for _, c := range conns {
		for _, k := range [...]SigKind{SigData, SigEnable, SigAck} {
			if c.status(k) == Unknown {
				contractPanic("resolve", c.String(),
					fmt.Sprintf("%s signal unresolved after default rounds", k))
			}
		}
	}
}

// verifyResolvedIDs is verifyResolved over the program's shared id lists
// (the sparse scheduler's active region).
func (s *Sim) verifyResolvedIDs(ids []int32) {
	for _, id := range ids {
		c := s.conns[id]
		for _, k := range [...]SigKind{SigData, SigEnable, SigAck} {
			if c.status(k) == Unknown {
				contractPanic("resolve", c.String(),
					fmt.Sprintf("%s signal unresolved after default rounds", k))
			}
		}
	}
}

// Step advances the simulation by one cycle. Contract violations raised by
// module handlers are returned as *ContractError.
func (s *Sim) Step() (err error) {
	defer func() {
		if r := recover(); r != nil {
			ce, ok := r.(*ContractError)
			if !ok {
				panic(r)
			}
			s.setPhase(phaseIdle)
			// The cycle aborted mid-drain: clear the scheduled flags of
			// anything still queued (the sequential worklist tail and
			// wakes collected during an aborted parallel round), or those
			// instances would be skipped by every future wake.
			for _, b := range s.queue[s.qhead:] {
				s.unschedule(b)
			}
			s.queue = s.queue[:0]
			s.qhead = 0
			for _, b := range s.wakes {
				s.unschedule(b)
			}
			s.wakes = s.wakes[:0]
			s.par = false
			if s.sparse != nil || s.weave != nil {
				// The cycle aborted mid-resolution; the plane holds a
				// partial state no replay may build on.
				s.needFull = true
			}
			err = ce
		}
	}()
	// The sparse scheduler gates the cycle to the active region, and the
	// woven scheduler replays its compiled region, except on full sweeps
	// (cycle 0, after InvalidateActivity, an error or a Restore), which
	// re-establish the replayed region's settled resolution.
	sp, wv := s.sparse, s.weave
	full := (sp == nil && wv == nil) || s.needFull
	s.needFull = false
	if s.tracer != nil {
		s.tracer.OnCycleBegin(s.cycle)
	}
	// Data-value reads are live again from here until commit.
	s.released = false
	s.resolved = [3]int{}
	if full {
		// Bulk reset: each status lane is one memclr (Unknown is the zero
		// status). The data lane was already released at the previous
		// commit — except when a replaying engine's full sweep invalidates
		// settled values, which must go with their statuses.
		s.plane.clearStatus()
		if sp != nil || wv != nil {
			clear(s.plane.data)
		}
	} else if sp != nil {
		// Steady replaying cycle: reset only the dirty region, one memclr
		// per status lane per contiguous id run. Its spill values were
		// already released at the previous commit.
		s.plane.resetRuns(sp.dirtyRuns)
	} else {
		s.plane.resetRuns(wv.dirtyRuns)
	}
	s.setPhase(phaseStart)
	if wv != nil {
		for _, id := range wv.startList {
			s.bases[id].start()
		}
	} else {
		for i, b := range s.bases {
			if b.start != nil && (s.pruned == nil || !s.pruned[i]) {
				b.start()
			}
		}
	}
	s.setPhase(phaseReact)
	switch {
	case wv != nil:
		// Full and steady woven cycles wake the same set: every reactive,
		// unpruned instance (the compiled roster just skips the
		// O(instances) nil-handler scan).
		for _, id := range wv.reactWake {
			s.wake(s.bases[id])
		}
	case full:
		for i, b := range s.bases {
			if s.pruned != nil && s.pruned[i] {
				continue
			}
			s.wake(b)
		}
	default:
		for _, id := range sp.reactWake {
			s.wake(s.bases[id])
		}
	}
	if m := s.metrics; m != nil && sp != nil {
		if full {
			m.activeInsts.Add(uint64(len(s.instances)))
		} else {
			m.activeInsts.Add(uint64(sp.activeInsts))
			m.skippedWakes.Add(uint64(sp.gatedReacts))
		}
	}
	s.drain()
	s.applyDefaults(full)
	switch {
	case full:
		// The resolution counters prove full resolution without a scan
		// when every signal resolved through the single-worker path.
		if s.resolved[SigData]+s.resolved[SigEnable]+s.resolved[SigAck] != 3*len(s.conns) {
			s.verifyResolved(s.conns)
		}
	case sp != nil:
		// Sparse steady cycle: the gated region replays resolved cells,
		// so every counted resolution landed in the dirty region, and
		// 3*len(dirty) of them prove it fully resolved without a scan.
		if s.resolved[SigData]+s.resolved[SigEnable]+s.resolved[SigAck] != 3*len(sp.dirty) {
			s.verifyResolvedIDs(sp.dirty)
		}
	default:
		// Woven steady cycle: the replayed region is resolved by
		// construction; the counters (bulk replay accounting plus
		// single-worker fallback resolutions) prove the rest without a
		// scan in the common case.
		if s.resolved[SigData]+s.resolved[SigEnable]+s.resolved[SigAck] != 3*len(s.conns) {
			s.verifyResolvedIDs(wv.dirty)
		}
	}
	s.setPhase(phaseEnd)
	if s.tracer != nil {
		s.tracer.OnCycleEnd(s.cycle)
	}
	if wv != nil {
		for _, id := range wv.endList {
			s.bases[id].end()
		}
	} else {
		for i, b := range s.bases {
			if b.end != nil && (s.pruned == nil || !s.pruned[i]) {
				b.end()
			}
		}
	}
	s.setPhase(phaseIdle)
	// Commit: release transferred data values now instead of pinning them
	// until the next cycle's reset. The replaying engines release only
	// the region the next steady cycle resets — on full cycles too, so a
	// steady cycle never has spill values to drop — while the sparse
	// gated region and the woven compiled region keep theirs: they are
	// the replayed resolution. The released flag makes both lanes read as
	// "not driven" until the next Step, so the kept values (and stale
	// scalars, which are never cleared) stay unobservable between cycles.
	s.released = true
	switch {
	case sp != nil:
		s.plane.releaseRuns(sp.dirtyRuns)
	case wv != nil:
		for _, id := range wv.spill {
			s.plane.data[id] = nil
		}
	default:
		clear(s.plane.data)
	}
	s.cycle++
	if m := s.metrics; m != nil {
		m.cycles.Add(1)
	}
	return nil
}

// Run advances the simulation n cycles, stopping at the first error.
func (s *Sim) Run(n uint64) error { return s.RunContext(context.Background(), n) }

// RunContext advances the simulation n cycles, stopping at the first
// error or when ctx is cancelled (returning ctx.Err()). Cancellation is
// checked between cycles, so a cancelled run always stops on a cycle
// boundary with the simulator in a consistent state.
func (s *Sim) RunContext(ctx context.Context, n uint64) error {
	defer s.publishCycle()
	done := ctx.Done()
	for i := uint64(0); i < n; i++ {
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		if err := s.Step(); err != nil {
			return fmt.Errorf("cycle %d: %w", s.cycle, err)
		}
		if s.cycle%publishEvery == 0 {
			s.publishCycle()
		}
	}
	return nil
}

// RunUntil advances the simulation until pred returns true or max cycles
// elapse. It reports whether pred was satisfied.
func (s *Sim) RunUntil(pred func(*Sim) bool, max uint64) (bool, error) {
	return s.RunUntilContext(context.Background(), pred, max)
}

// RunUntilContext is RunUntil with cancellation: it additionally stops,
// returning ctx.Err(), when ctx is cancelled between cycles.
func (s *Sim) RunUntilContext(ctx context.Context, pred func(*Sim) bool, max uint64) (bool, error) {
	defer s.publishCycle()
	done := ctx.Done()
	for i := uint64(0); i < max; i++ {
		if pred(s) {
			return true, nil
		}
		if done != nil {
			select {
			case <-done:
				return false, ctx.Err()
			default:
			}
		}
		if err := s.Step(); err != nil {
			return false, fmt.Errorf("cycle %d: %w", s.cycle, err)
		}
		if s.cycle%publishEvery == 0 {
			s.publishCycle()
		}
	}
	return pred(s), nil
}
