package core

import (
	"sync"
	"sync/atomic"
)

// workerPool is the persistent goroutine pool behind parallel reactive
// rounds. Workers are spawned once at Build and fed one poolRound per
// barrier round; work within a round is claimed by atomic counter, so a
// slow instance does not idle the other workers. The pool replaces the
// per-round goroutine spawn the parallel scheduler used previously.
type workerPool struct {
	n     int
	tasks chan *poolRound
	stop  sync.Once
	round poolRound // reused across rounds; run() is single-caller
}

// poolRound is one barrier round: a pre-sorted batch of scheduled
// instances to react, shared by up to n workers.
type poolRound struct {
	sim   *Sim
	batch []*Base
	next  atomic.Int64
	wg    sync.WaitGroup

	panicMu sync.Mutex
	panicV  any
}

func newWorkerPool(n int) *workerPool {
	p := &workerPool{n: n, tasks: make(chan *poolRound, n)}
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

func (p *workerPool) worker() {
	for r := range p.tasks {
		p.runOne(r)
	}
}

func (p *workerPool) runOne(r *poolRound) {
	defer func() {
		// A contract violation inside a handler must reach Sim.Step's
		// recover on the stepping goroutine, not kill the process from a
		// pool worker; capture it and let run re-raise it. Before
		// releasing the barrier, drain the rest of the batch — claim
		// every remaining entry and clear its scheduled flag without
		// reacting — so the round's counter is never left mid-batch: a
		// stranded scheduled=true instance would be skipped by every
		// future wake and never run again on restart.
		if e := recover(); e != nil {
			r.panicMu.Lock()
			if r.panicV == nil {
				r.panicV = e
			}
			r.panicMu.Unlock()
			for {
				i := int(r.next.Add(1)) - 1
				if i >= len(r.batch) {
					break
				}
				atomic.StoreUint32(&r.batch[i].scheduled, 0)
			}
		}
		r.wg.Done()
	}()
	for {
		i := int(r.next.Add(1)) - 1
		if i >= len(r.batch) {
			return
		}
		b := r.batch[i]
		atomic.StoreUint32(&b.scheduled, 0)
		r.sim.runReact(b)
	}
}

// run executes one round and blocks until every batch entry has reacted.
// The calling goroutine participates as an executor, so a round needs
// only k-1 worker wakeups — and none at all when the caller claims the
// whole batch before a worker arrives, which keeps small rounds at small
// worker counts off the futex path entirely. A panic captured in any
// executor is re-raised here, on the caller's goroutine.
func (p *workerPool) run(s *Sim, batch []*Base) {
	// The round descriptor is reused across rounds: run() has a single
	// caller (the stepping goroutine) and wg.Wait() below guarantees no
	// worker still holds the previous round, so resetting in place is
	// race-free and keeps steady-state rounds allocation-free.
	r := &p.round
	r.sim, r.batch = s, batch
	r.next.Store(0)
	r.panicV = nil
	k := p.n
	if k > len(batch) {
		k = len(batch)
	}
	r.wg.Add(k)
	for i := 0; i < k-1; i++ {
		p.tasks <- r
	}
	p.runOne(r)
	r.wg.Wait()
	r.sim, r.batch = nil, nil // don't pin the Sim from the pool
	if v := r.panicV; v != nil {
		r.panicV = nil
		panic(v)
	}
}

// close releases the workers. Safe to call more than once; invoked by
// Sim.Close and by the simulator's finalizer.
func (p *workerPool) close() {
	p.stop.Do(func() { close(p.tasks) })
}
