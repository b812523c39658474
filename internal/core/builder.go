package core

import (
	"errors"
	"fmt"
	"runtime"
)

// Builder assembles a netlist — instances and their connections — and
// constructs the simulator, the programmatic equivalent of the Liberty
// simulator constructor consuming an LSS. Builder methods record errors
// internally so wiring code can be written straight-line; Build returns
// the accumulated errors.
type Builder struct {
	reg       *Registry
	seed      int64
	sched     SchedulerKind
	workers   int
	shards    int // partitioned shard count; 0 = default
	parMin    int // parallel round threshold; 0 = default
	tracer    Tracer
	metrics   bool
	prune     bool // WithDataflowPrune: delete provably-dead structure
	instances []Instance
	byName    map[string]Instance
	conns     []*Conn
	errs      []error
	built     bool
	at        Pos // current spec position; stamped onto instances, conns, errors
	postBuild []func(*Sim) error
	// prog, when set, marks the builder as a session stamp for an already
	// compiled program: Build validates the re-assembled netlist against
	// it and binds its shared artifacts instead of recompiling.
	prog *Program
}

// NewBuilder returns a Builder using DefaultRegistry, seed 0 and
// automatic scheduler selection (see WithScheduler), then applies opts.
func NewBuilder(opts ...BuildOption) *Builder {
	b := &Builder{reg: DefaultRegistry, workers: 1, byName: make(map[string]Instance)}
	for _, o := range opts {
		o(b)
	}
	return b
}

// addTracer composes t with any tracer already attached.
func (b *Builder) addTracer(t Tracer) {
	if t == nil {
		return
	}
	switch cur := b.tracer.(type) {
	case nil:
		b.tracer = t
	case MultiTracer:
		b.tracer = append(cur, t)
	default:
		b.tracer = MultiTracer{cur, t}
	}
}

// Err returns the errors recorded so far, joined.
func (b *Builder) Err() error { return errors.Join(b.errs...) }

// At sets the specification position stamped onto subsequently created
// instances, connections and build errors, until the next call. Front
// ends (the LSS elaborator) call it before translating each statement so
// build failures and static-analysis diagnostics can point back into the
// spec; pure Go wiring code never needs it. A zero Pos clears the cursor.
func (b *Builder) At(pos Pos) *Builder { b.at = pos; return b }

func (b *Builder) fail(err error) error {
	if be, ok := err.(*BuildError); ok && be.Pos.IsZero() {
		be.Pos = b.at
	}
	b.errs = append(b.errs, err)
	return err
}

// Add places a directly-constructed instance into the netlist. It returns
// inst for chaining. Adding two distinct instances with the same name is
// an error.
func (b *Builder) Add(inst Instance) Instance {
	if inst == nil || inst.base().self == nil {
		b.fail(&BuildError{Op: "add", Where: "?", Detail: "instance is nil or Base.Init not called"})
		return inst
	}
	name := inst.Name()
	if prev, ok := b.byName[name]; ok {
		if prev != inst {
			b.fail(&BuildError{Op: "add", Where: name, Detail: "duplicate instance name"})
		}
		return inst
	}
	b.byName[name] = inst
	b.instances = append(b.instances, inst)
	if inst.base().pos.IsZero() {
		inst.base().pos = b.at
	}
	return inst
}

// Instantiate constructs an instance of the named template, customized
// with p, and adds it to the netlist.
func (b *Builder) Instantiate(template, name string, p Params) (Instance, error) {
	t, ok := b.reg.Lookup(template)
	if !ok {
		return nil, b.fail(&BuildError{Op: "instantiate", Where: name,
			Detail: fmt.Sprintf("unknown template %q", template)})
	}
	inst, err := t.Build(b, name, p)
	if err != nil {
		return nil, b.fail(&BuildError{Op: "instantiate", Where: name,
			Detail: fmt.Sprintf("template %q: %v", template, err)})
	}
	b.Add(inst)
	return inst, nil
}

// Connect wires srcPort on src to dstPort on dst, appending one connection
// at the next free index of each port. Composite exports resolve to the
// underlying child ports.
func (b *Builder) Connect(src Instance, srcPort string, dst Instance, dstPort string) error {
	sp, err := resolvePort(src, srcPort)
	if err != nil {
		return b.fail(err)
	}
	dp, err := resolvePort(dst, dstPort)
	if err != nil {
		return b.fail(err)
	}
	return b.ConnectPorts(sp, dp)
}

// ConnectPorts wires two resolved ports directly.
func (b *Builder) ConnectPorts(sp, dp *Port) error {
	if sp == nil || dp == nil {
		return b.fail(&BuildError{Op: "connect", Where: "?", Detail: "nil port"})
	}
	// The error location is only built on a failure path: connecting is
	// on every stamp's recipe rerun.
	fail := func(detail string) error {
		return b.fail(&BuildError{Op: "connect", Where: sp.fullName() + " -> " + dp.fullName(), Detail: detail})
	}
	if sp.dir != Out {
		return fail("source must be an Out port")
	}
	if dp.dir != In {
		return fail("destination must be an In port")
	}
	if max := sp.opts.MaxWidth; max > 0 && len(sp.conns) >= max {
		return fail(fmt.Sprintf("source port width limited to %d", max))
	}
	if max := dp.opts.MaxWidth; max > 0 && len(dp.conns) >= max {
		return fail(fmt.Sprintf("destination port width limited to %d", max))
	}
	c := &Conn{id: len(b.conns), src: sp, dst: dp, srcIdx: len(sp.conns), dstIdx: len(dp.conns), pos: b.at}
	sp.conns = append(sp.conns, c)
	dp.conns = append(dp.conns, c)
	b.conns = append(b.conns, c)
	return nil
}

// Build validates the netlist, compiles it into a Program (unless the
// builder is stamping a session for an already compiled one) and binds
// one session to it, applying any remaining configuration options first.
// The Builder must not be reused afterwards. The returned simulator's
// Program is available via Sim.Program; programs that should mint many
// sessions are compiled with Compile instead.
func (b *Builder) Build(opts ...BuildOption) (*Sim, error) {
	for _, o := range opts {
		o(b)
	}
	if b.built {
		return nil, &BuildError{Op: "build", Where: "?", Detail: "builder already built"}
	}
	for _, inst := range b.instances {
		for _, p := range inst.base().portList {
			if p.owner != inst.base() {
				continue // composite export; validated on its owner
			}
			if len(p.conns) < p.opts.MinWidth {
				b.fail(&BuildError{Op: "build", Where: p.fullName(), Pos: inst.base().pos,
					Detail: fmt.Sprintf("port requires at least %d connection(s), has %d",
						p.opts.MinWidth, len(p.conns))})
			}
		}
	}
	if err := b.Err(); err != nil {
		return nil, err
	}
	b.built = true
	sched, workers := resolveScheduler(b.sched, b.workers)
	if b.prune && sched != SchedulerSparse && sched != SchedulerWoven {
		return nil, &BuildError{Op: "build", Where: "?",
			Detail: fmt.Sprintf("WithDataflowPrune requires the sparse (default) or woven scheduler, not %s: pruning moves provably-dead structure into the replayed region", sched)}
	}
	// The compiled artifacts index by instance and connection id; assign
	// instance ids (assembly order) before compiling or validating.
	// Connection ids were assigned at Connect time.
	for i, inst := range b.instances {
		inst.base().id = i
	}
	p := b.prog
	if p == nil {
		// Compile path: this netlist defines the program.
		p = compileProgram(b.instances, b.conns, sched, b.prune, b.shards)
	} else {
		// Session-stamp path (Program.NewSim): the expensive artifacts —
		// Tarjan/levelization, activity partition, lane election — are
		// already compiled; validate the re-assembled netlist matches and
		// bind. This is the 0-rebuild-work spin-up path.
		if err := p.checkStamp(b.instances, b.conns, sched); err != nil {
			return nil, err
		}
	}
	s := &Sim{
		seed:      b.seed,
		sched:     sched,
		workers:   workers,
		parMin:    b.parMin,
		tracer:    b.tracer,
		prog:      p,
		instances: b.instances,
		byName:    b.byName,
		conns:     b.conns,
		plane:     newSigPlane(planeSize(p, len(b.conns))),
		stats:     newStatSet(),
		schedule:  p.schedule,
		sparse:    p.sparse,
		weave:     p.weave,
	}
	if s.sparse != nil || s.weave != nil {
		s.needFull = true // cycle 0 establishes the replayed region's values
	}
	if p.pruned != nil {
		s.pruned = p.pruned.insts
	}
	if s.parMin == 0 {
		s.parMin = defaultParallelThreshold * workers
	}
	if b.metrics {
		s.metrics = newMetrics(s)
	}
	s.bases = make([]*Base, len(s.instances))
	for i, inst := range s.instances {
		base := inst.base()
		base.attach(s, i)
		s.bases[i] = base
	}
	for i, c := range s.conns {
		c.sim = s
		c.scalar = p.scalar[c.id]
		c.slot = int32(i)
	}
	if pt := p.partition; pt != nil {
		s.part = pt
		for _, c := range s.conns {
			c.slot = pt.slot[c.id]
		}
	}
	if workers > 1 {
		if s.part != nil {
			s.ppool = newPartPool(workers, s.part.nShards)
		} else {
			s.pool = newWorkerPool(workers)
		}
		// Workers hold only pool-internal references, so the simulator
		// stays collectable; release them when it goes.
		runtime.SetFinalizer(s, (*Sim).Close)
	}
	// Tracers that need the finished netlist (e.g. the VCD tracer's
	// variable definitions) hook in here.
	if at, ok := s.tracer.(interface{ Attach(*Sim) }); ok {
		at.Attach(s)
	}
	// Post-build checks (WithPostBuildCheck) see the finished simulator;
	// any failure aborts construction. Static strict-analysis mode
	// (internal/analysis.StrictOption) is implemented on this hook.
	for _, chk := range b.postBuild {
		if err := chk(s); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// resolveScheduler pins the scheduler selection down to a concrete
// engine and worker count.
func resolveScheduler(sched SchedulerKind, workers int) (SchedulerKind, int) {
	if workers < 1 {
		workers = 1
	}
	switch sched {
	case SchedulerAuto:
		sched = SchedulerSparse
	case SchedulerSequential:
		workers = 1
	case SchedulerParallel:
		if workers < 2 {
			workers = runtime.GOMAXPROCS(0)
		}
	case SchedulerPartitioned:
		// Workers honored exactly as given (default one): the shard
		// partition is compiled into the Program, and a session's
		// phases cap their live executors at GOMAXPROCS anyway.
	case SchedulerWoven:
		// Workers honored exactly as given (default one); extra workers
		// only parallelize the interpreted fallback's reactive rounds.
	}
	return sched, workers
}

// planeSize returns the signal-plane length for a program: the padded
// partitioned layout when one was compiled, else one slot per conn.
func planeSize(p *Program, nConns int) int {
	if p.partition != nil {
		return p.partition.planeSize
	}
	return nConns
}

// Sub composes a hierarchical child-instance name.
func Sub(parent, child string) string { return parent + "/" + child }
