package core

import "fmt"

// program.go separates the two halves the paper keeps distinct: structure
// and behavior. A Program is the immutable compiled form of a netlist —
// the static schedule, the activity partition, the payload-lane election
// and the assembly recipe that reproduces the instance graph. A Sim is
// one behavioral session over that structure: a dense signal plane, the
// instances' mutable state, a cycle counter, per-instance RNG streams and
// statistics. Build compiles a Program exactly once; Program.NewSim
// stamps fresh sessions from it without re-running Tarjan, levelization
// or lane election, so thousands of concurrent simulations can share one
// compiled artifact.
//
// Sharing contract (DESIGN.md Appendix E): everything reachable from a
// Program after Compile returns is read-only. Sessions index the shared
// [][]int32 schedule levels and residues by connection id but write only
// their own plane, scratch and instance state, which is what makes
// concurrent NewSim+Run sessions data-race-free.

// Program is the immutable compiled form of a netlist. It is safe for
// concurrent use: any number of goroutines may call NewSim and run the
// resulting simulators in parallel.
type Program struct {
	// assemble re-runs the netlist recipe to stamp a fresh instance graph
	// for each session. Nil for programs extracted from a direct
	// Builder.Build call, whose one pre-stamped session is the Sim that
	// Build returned; such programs cannot mint further sessions.
	assemble func(*Builder) error
	// opts are the compile-time options, re-applied to every session's
	// builder before session-specific options.
	opts []BuildOption

	sched       SchedulerKind // resolved engine, fixed at compile time
	nInsts      int
	nConns      int
	fingerprint uint64 // structural hash validating recipe determinism
	scalar      []bool // conn id -> uint64 fast-lane election
	scalarConns int

	schedule  *progSchedule  // nil unless levelized/sparse/partitioned/woven
	sparse    *progSparse    // nil unless sparse
	pruned    *progPrune     // nil unless compiled with WithDataflowPrune
	partition *progPartition // nil unless partitioned
	weave     *progWeave     // nil unless woven
}

// Compile runs the assembly recipe once, compiles the resulting netlist
// and returns the shared Program. The recipe must be deterministic: every
// NewSim re-runs it to stamp a fresh instance graph, and a structural
// fingerprint (instance names, handler shapes, connection endpoints,
// payload kinds) is checked against this compilation's on every stamp.
// Build-time validation — port widths, post-build checks such as strict
// static analysis — runs here, on a probe session that is discarded.
func Compile(assemble func(*Builder) error, opts ...BuildOption) (*Program, error) {
	if assemble == nil {
		return nil, &BuildError{Op: "compile", Where: "?", Detail: "nil assemble function"}
	}
	b := NewBuilder(opts...)
	if err := assemble(b); err != nil {
		b.fail(err)
	}
	probe, err := b.Build()
	if err != nil {
		return nil, err
	}
	p := probe.prog
	probe.Close()
	p.assemble = assemble
	p.opts = opts
	return p, nil
}

// NewSim stamps a new simulation session from the compiled program: the
// assembly recipe re-creates the instance graph (fresh mutable module
// state), and the session binds the shared schedule, activity partition
// and lane election without recompiling any of them. Session options are
// applied after the program's compile-time options, so per-session seeds,
// tracers, worker counts and metrics compose naturally; selecting a
// different scheduler than the program was compiled for is an error.
func (p *Program) NewSim(opts ...BuildOption) (*Sim, error) {
	if p.assemble == nil {
		return nil, &BuildError{Op: "new sim", Where: "program",
			Detail: "program has no assembly recipe; compile it with core.Compile (or load it with lse.CompileLSS) to stamp new sessions"}
	}
	b := NewBuilder(p.opts...)
	for _, o := range opts {
		o(b)
	}
	b.prog = p
	if err := p.assemble(b); err != nil {
		b.fail(err)
	}
	return b.Build()
}

// Scheduler returns the engine the program was compiled for.
func (p *Program) Scheduler() SchedulerKind { return p.sched }

// Instances returns the number of instances in the compiled netlist.
func (p *Program) Instances() int { return p.nInsts }

// Conns returns the number of connections in the compiled netlist.
func (p *Program) Conns() int { return p.nConns }

// Fingerprint returns the structural hash of the compiled netlist —
// instance names and handler shapes plus connection endpoints and payload
// kinds. Snapshots embed it so Restore can reject state from a different
// program.
func (p *Program) Fingerprint() uint64 { return p.fingerprint }

// Schedule returns a copy of the static-schedule introspection info, or
// nil when the program uses none of the statically scheduled engines
// (levelized, sparse, partitioned, woven).
// The Workers field is zero: worker counts are a session property (see
// Sim.Schedule).
func (p *Program) Schedule() *ScheduleInfo {
	if p.schedule == nil {
		return nil
	}
	info := p.schedule.info
	return &info
}

// compileProgram compiles the immutable artifacts from an assembled,
// validated netlist: lane election, structural fingerprint and — for the
// levelized and sparse engines — the static schedule and activity
// partition. Instance ids must already be assigned (assembly order).
func compileProgram(instances []Instance, conns []*Conn, sched SchedulerKind, prune bool, shards int) *Program {
	p := &Program{sched: sched, nInsts: len(instances), nConns: len(conns)}
	// Payload-lane inference: a connection joins the uint64 scalar fast
	// lane when its driver declares PayloadUint64 and its sink does not
	// demand the boxed path (PayloadAny — mixed payload kinds force the
	// spill lane). Everything else spills to the boxed []any lane, the
	// always-correct slow path.
	p.scalar = make([]bool, len(conns))
	for i, c := range conns {
		p.scalar[i] = c.src.opts.Payload == PayloadUint64 && c.dst.opts.Payload != PayloadAny
		if p.scalar[i] {
			p.scalarConns++
		}
	}
	p.fingerprint = fingerprintNetlist(instances, conns)
	if sched == SchedulerLevelized || sched == SchedulerSparse || sched == SchedulerPartitioned || sched == SchedulerWoven {
		p.schedule = buildSchedule(instances, conns)
		p.schedule.info.Scheduler = sched
		p.schedule.info.ScalarConns = p.scalarConns
		p.schedule.info.SpillConns = len(conns) - p.scalarConns
	}
	if sched == SchedulerPartitioned {
		if shards <= 0 {
			shards = defaultShards
		}
		p.partition = buildPartition(instances, conns, p.schedule, shards)
	}
	if sched == SchedulerSparse {
		p.sparse = buildSparse(instances, conns, p.schedule)
		if prune {
			// Dataflow pruning: run the whole-program analysis and move
			// provably-dead structure out of the per-cycle schedule before
			// the partition is shared. The structural fingerprint is
			// deliberately prune-independent — pruning changes which
			// compiled artifacts a session binds, never the netlist shape
			// sessions re-assemble.
			ff := analyzeFlow(instances, conns)
			p.pruned = computePrune(instances, conns, ff)
			applyPrune(p.sparse, p.schedule, instances, conns, p.pruned)
			p.schedule.info.PrunedConns = p.pruned.nConns
			p.schedule.info.PrunedInsts = p.pruned.nInsts
		}
		p.sparse.dirtyRuns = idRuns(p.sparse.dirty)
		p.schedule.info.fillActivity(p.sparse)
	}
	if sched == SchedulerWoven {
		var pr *progPrune
		if prune {
			// Same prune-independence contract as the sparse branch: the
			// fingerprint ignores pruning, only the compiled artifacts a
			// session binds change. The woven compiler consumes the prune
			// result directly — dead connections never get a kernel and
			// leave every per-cycle list — so no schedule rewrite happens.
			ff := analyzeFlow(instances, conns)
			p.pruned = computePrune(instances, conns, ff)
			pr = p.pruned
			p.schedule.info.PrunedConns = pr.nConns
			p.schedule.info.PrunedInsts = pr.nInsts
		}
		p.weave = buildWeave(instances, conns, p.schedule, pr)
		p.schedule.info.fillWeave(p.weave)
	}
	return p
}

// checkStamp validates a freshly re-assembled session netlist against the
// compiled program: same shape, same structural fingerprint, same
// resolved engine. A mismatch means the assembly recipe is not
// deterministic (or the session tried to switch schedulers), either of
// which would let a session run under a schedule compiled for a different
// netlist.
func (p *Program) checkStamp(instances []Instance, conns []*Conn, sched SchedulerKind) error {
	if sched != p.sched {
		return &BuildError{Op: "new sim", Where: "program",
			Detail: fmt.Sprintf("program compiled for the %s scheduler; sessions cannot select %s (recompile instead)",
				p.sched, sched)}
	}
	if len(instances) != p.nInsts || len(conns) != p.nConns {
		return &BuildError{Op: "new sim", Where: "program",
			Detail: fmt.Sprintf("assembly recipe is not deterministic: compiled %d instances/%d conns, re-assembly produced %d/%d",
				p.nInsts, p.nConns, len(instances), len(conns))}
	}
	if fp := fingerprintNetlist(instances, conns); fp != p.fingerprint {
		return &BuildError{Op: "new sim", Where: "program",
			Detail: "assembly recipe is not deterministic: re-assembled netlist's structural fingerprint differs from the compiled program's"}
	}
	return nil
}

// fingerprintNetlist hashes the netlist structure the compiled artifacts
// depend on: instance names and handler shapes (which drive the activity
// partition) and connection endpoints with payload kinds (which drive the
// schedule and lane election). FNV-64a over the assembly order: every
// integer as 8 little-endian bytes, every string as its length then its
// bytes. The value is pinned — snapshots, parked lsd sessions and the
// /v1 ProgramInfo embed it — so any rewrite must hash the same bytes.
func fingerprintNetlist(instances []Instance, conns []*Conn) uint64 {
	h := uint64(fnvOffset64)
	str := func(s string) {
		h = fnvUint64(h, uint64(len(s)))
		h = fnvString(h, s)
	}
	h = fnvUint64(h, uint64(len(instances)))
	for _, inst := range instances {
		b := inst.base()
		str(b.name)
		var flags uint64
		if b.react != nil {
			flags |= 1
		}
		if b.start != nil {
			flags |= 2
		}
		if b.end != nil {
			flags |= 4
		}
		if b.autonomous {
			flags |= 8
		}
		if _, ok := inst.(*Composite); ok {
			flags |= 16
		}
		h = fnvUint64(h, flags)
	}
	h = fnvUint64(h, uint64(len(conns)))
	for _, c := range conns {
		str(c.src.owner.name)
		str(c.src.name)
		h = fnvUint64(h, uint64(c.srcIdx))
		str(c.dst.owner.name)
		str(c.dst.name)
		h = fnvUint64(h, uint64(c.dstIdx))
		h = fnvUint64(h, uint64(c.src.opts.Payload)<<8|uint64(c.dst.opts.Payload))
	}
	return h
}

// FNV-64a (the hash/fnv New64a function), inlined: the fingerprint and
// the per-instance seeds are hashed on every stamp, and feeding strings
// through hash.Hash costs a []byte conversion per write.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvString folds the bytes of s into the running FNV-64a hash h.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// fnvUint64 folds v into h as 8 little-endian bytes.
func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= fnvPrime64
	}
	return h
}
