package core

import (
	"fmt"
	"math/rand"
	"sort"
)

// Instance is a module instance in a netlist. Concrete modules obtain the
// interface by embedding Base; the unexported method pins the
// implementation to this package's lifecycle management.
type Instance interface {
	// Name returns the instance's hierarchical name, unique in its netlist.
	Name() string
	base() *Base
}

// Base carries the per-instance engine state every module embeds. A module
// must call Init (usually via Builder-registered constructors) before
// declaring ports or handlers.
type Base struct {
	name       string
	self       Instance
	sim        *Sim
	id         int
	ports      map[string]*Port
	portList   []*Port // declaration order
	react      func()
	start      func()
	end        func()
	autonomous bool       // react depends on Now()/Rand(); never activity-gated
	scheduled  uint32     // 1 while queued; atomic access only in multi-worker sessions
	rng        *rngStream // nil until the first Rand call
	pos        Pos        // spec position the instance was declared at, if known
}

// Init names the instance and records its concrete value. It must be
// called exactly once, before any other Base method.
func (b *Base) Init(name string, self Instance) {
	if b.self != nil {
		contractPanic("init", name, "instance initialized twice")
	}
	if name == "" {
		contractPanic("init", "?", "instance name must be non-empty")
	}
	b.name = name
	b.self = self
	b.ports = make(map[string]*Port)
}

// Name returns the instance's hierarchical name.
func (b *Base) Name() string { return b.name }

func (b *Base) base() *Base { return b }

func (b *Base) addPort(name string, dir Dir, opts PortOpts) *Port {
	if b.self == nil {
		contractPanic("add port", name, "Base.Init not called")
	}
	if _, dup := b.ports[name]; dup {
		contractPanic("add port", b.name+"."+name, "duplicate port name")
	}
	if opts.DefaultAck != Unknown && dir != In {
		contractPanic("add port", b.name+"."+name, "DefaultAck applies to In ports only")
	}
	if opts.DefaultEnable != Unknown && dir != Out {
		contractPanic("add port", b.name+"."+name, "DefaultEnable applies to Out ports only")
	}
	p := &Port{name: name, dir: dir, owner: b, opts: opts}
	b.ports[name] = p
	b.portList = append(b.portList, p)
	return p
}

// AddInPort declares an input port.
func (b *Base) AddInPort(name string, opts ...PortOpts) *Port {
	return b.addPort(name, In, optOf(opts))
}

// AddOutPort declares an output port.
func (b *Base) AddOutPort(name string, opts ...PortOpts) *Port {
	return b.addPort(name, Out, optOf(opts))
}

func optOf(opts []PortOpts) PortOpts {
	if len(opts) > 1 {
		contractPanic("add port", "?", "at most one PortOpts allowed")
	}
	if len(opts) == 1 {
		return opts[0]
	}
	return PortOpts{}
}

// PortByName returns the named port, or nil when the instance has none.
func (b *Base) PortByName(name string) *Port { return b.ports[name] }

// Ports returns the instance's ports in declaration order.
func (b *Base) Ports() []*Port { return b.portList }

// OnReact registers the reactive handler. It may run many times per cycle
// and must be idempotent and monotonic (see package documentation).
func (b *Base) OnReact(fn func()) { b.react = fn }

// OnCycleStart registers the once-per-cycle pre-resolution handler.
func (b *Base) OnCycleStart(fn func()) { b.start = fn }

// OnCycleEnd registers the once-per-cycle post-resolution commit handler.
func (b *Base) OnCycleEnd(fn func()) { b.end = fn }

// MarkAutonomous declares that the instance's reactive handler can
// behave differently from one cycle to the next without any observed
// signal changing — typically because it reads Now() or Rand() (clock
// dividers, jitter models). The sparse scheduler treats autonomous
// instances as always-active seeds: they are woken every cycle and
// anchor their reactive neighborhood in the active region. Instances
// with an OnCycleStart handler are always-active already and need no
// marking.
func (b *Base) MarkAutonomous() { b.autonomous = true }

// Autonomous reports whether MarkAutonomous was called.
func (b *Base) Autonomous() bool { return b.autonomous }

// SourcePos returns the specification position the instance was declared
// at, when the netlist came from a spec front end (see Builder.At); the
// zero Pos otherwise.
func (b *Base) SourcePos() Pos { return b.pos }

// HasHandlers reports which lifecycle handlers the instance registered.
// Analysis passes use it to find modules that receive data but can never
// observe it.
func (b *Base) HasHandlers() (react, start, end bool) {
	return b.react != nil, b.start != nil, b.end != nil
}

// Sim returns the simulator the instance belongs to (nil before Build).
func (b *Base) Sim() *Sim { return b.sim }

// Now returns the current cycle number.
func (b *Base) Now() uint64 { return b.sim.cycle }

// Rand returns the instance's deterministic random source, seeded from
// the simulator seed and the instance name so runs are reproducible and
// independent of netlist assembly order. The stream is created on first
// use, so instances that never draw cost no generator state.
func (b *Base) Rand() *rand.Rand { return &b.stream().r }

// stream returns the instance's random stream, creating it on first use.
func (b *Base) stream() *rngStream {
	if b.rng == nil {
		b.rng = newRNGStream(b.sim.seed ^ int64(fnvString(fnvOffset64, b.name)))
	}
	return b.rng
}

// Counter registers (or retrieves) a statistics counter scoped to this
// instance. Increment counters only from OnCycleStart or OnCycleEnd;
// reactive handlers may run multiple times per cycle.
func (b *Base) Counter(name string) *Counter {
	return b.sim.stats.counter(b.name + "." + name)
}

// Histogram registers (or retrieves) a statistics histogram scoped to
// this instance.
func (b *Base) Histogram(name string) *Histogram {
	return b.sim.stats.histogram(b.name + "." + name)
}

func (b *Base) attach(s *Sim, id int) {
	b.sim = s
	b.id = id
}

// Composite is a hierarchical instance assembled from sub-instances of
// existing templates, the paper's mechanism for building new module
// templates out of old ones. Selected sub-instance ports are exported
// under the composite's own port names; connections made to the composite
// attach directly to the underlying child ports (the netlist flattens).
type Composite struct {
	Base
	children []Instance
}

// AddChild records a sub-instance for enumeration and documentation; the
// Builder has already added it to the netlist.
func (c *Composite) AddChild(inst Instance) { c.children = append(c.children, inst) }

// Children returns the composite's sub-instances.
func (c *Composite) Children() []Instance { return c.children }

// Export publishes a child's port under the given name on the composite.
func (c *Composite) Export(name string, p *Port) {
	if _, dup := c.ports[name]; dup {
		contractPanic("export", c.name+"."+name, "duplicate port name")
	}
	if p == nil {
		contractPanic("export", c.name+"."+name, "nil port")
	}
	c.ports[name] = p
	c.portList = append(c.portList, p)
}

// ExportNames returns the names the composite published child ports
// under, sorted. Pair with PortByName to recover the aliased ports.
func (c *Composite) ExportNames() []string {
	names := make([]string, 0, len(c.ports))
	for n := range c.ports {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PortOf returns the named port of an instance, following composite
// exports — the lookup tooling (e.g. the LSS elaborator) uses to wire
// instances it did not construct.
func PortOf(inst Instance, name string) (*Port, error) { return resolvePort(inst, name) }

// resolvePort finds a port by name on an instance, following composite
// exports (which alias child ports directly).
func resolvePort(inst Instance, name string) (*Port, error) {
	p := inst.base().ports[name]
	if p == nil {
		var have []string
		for n := range inst.base().ports {
			have = append(have, n)
		}
		sort.Strings(have)
		return nil, &BuildError{Op: "resolve port", Where: inst.Name() + "." + name,
			Detail: fmt.Sprintf("no such port; instance has %v", have)}
	}
	return p, nil
}
