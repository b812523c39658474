package main

import (
	"liberty/internal/core"
	"liberty/internal/lss"
)

// recipe wraps an assembly recipe in a span, so the time spent inside it
// is attributed to the recipe, not to the Compile or NewSim call that
// runs it: Compile self time is Compile minus its "lss.elab" child, and
// NewSim self time is NewSim minus its "core.stamp_elab" child.
type recipe struct {
	fn func(*core.Builder) error
	tr *tracer
	// name and parent place the next recipe span.
	name   string
	parent int
	// counting makes the recipe count its own allocations into inner
	// instead of opening a span (see allocs).
	counting bool
	inner    uint64
}

func (rc *recipe) assemble(b *core.Builder) error {
	if rc.counting {
		start := readMem().mallocs
		err := rc.fn(b)
		rc.inner = readMem().mallocs - start
		return err
	}
	id := rc.tr.begin(rc.name, rc.parent, 0)
	defer rc.tr.end(id)
	return rc.fn(b)
}

// lssRecipe elaborates a parsed LSS file with defines: the recipe
// lss.CompileFile builds.
func lssRecipe(f *lss.File, vars map[string]any) func(*core.Builder) error {
	return func(b *core.Builder) error { return lss.NewElaborator(b).ElaborateWith(f, vars) }
}

// call runs one Compile or NewSim under a span named layer whose recipe
// span is named elab.
func (rc *recipe) call(layer, elab string, parent int, f func() error) error {
	id := rc.tr.begin(layer, parent, 0)
	defer rc.tr.end(id)
	rc.name, rc.parent = elab, id
	return f()
}

// compile runs core.Compile over the recipe.
func (rc *recipe) compile(parent int, opts ...core.BuildOption) (prog *core.Program, err error) {
	err = rc.call("core.compile", "lss.elab", parent, func() error {
		prog, err = core.Compile(rc.assemble, opts...)
		return err
	})
	return prog, err
}

// stamp runs Program.NewSim on a program compiled from this recipe.
func (rc *recipe) stamp(prog *core.Program, parent int, opts ...core.BuildOption) (sim *core.Sim, err error) {
	err = rc.call("core.stamp", "core.stamp_elab", parent, func() error {
		sim, err = prog.NewSim(opts...)
		return err
	})
	return sim, err
}

// allocStamps is how many NewSim calls allocs counts per program.
const allocStamps = 3

// allocs counts the heap allocations of one Compile over the recipe and
// of allocStamps NewSim calls on its program, each without the recipe's
// own. runtime.ReadMemStats stops the world, so these calls are made
// apart from the timed ones and open no span; runtime/metrics would not
// stop the world, but its allocation counts lag by the objects of the
// spans each P has cached. The benchmark is the only allocator while
// they run, so the counts belong to the calls.
func (rc *recipe) allocs() (compile float64, stamps []float64, err error) {
	rc.counting = true
	defer func() { rc.counting = false }()
	count := func(f func() error) (float64, error) {
		rc.inner = 0
		start := readMem().mallocs
		err := f()
		return float64(readMem().mallocs - start - rc.inner), err
	}
	var prog *core.Program
	if compile, err = count(func() (err error) { prog, err = core.Compile(rc.assemble); return err }); err != nil {
		return 0, nil, err
	}
	for i := 0; i < allocStamps; i++ {
		var sim *core.Sim
		n, err := count(func() (err error) { sim, err = prog.NewSim(core.WithSeed(int64(i))); return err })
		if err != nil {
			return 0, nil, err
		}
		sim.Close()
		stamps = append(stamps, n)
	}
	return compile, stamps, nil
}

// parseLSS runs lss.ParseFile under an "lss.parse" span.
func parseLSS(tr *tracer, parent int, name, src string) (*lss.File, error) {
	id := tr.begin("lss.parse", parent, 0)
	defer tr.end(id)
	return lss.ParseFile(name, src)
}

// constructMetrics reports the construction layers of a traced run:
// times as medians over the spans recorded, allocation counts as medians
// over the recipes' untimed counting calls.
func constructMetrics(r *result, layers map[string]*layerTime, recipes ...*recipe) error {
	var compileAllocs, stampAllocs []float64
	for _, rc := range recipes {
		c, s, err := rc.allocs()
		if err != nil {
			return err
		}
		compileAllocs = append(compileAllocs, c)
		stampAllocs = append(stampAllocs, s...)
	}
	r.set("lss.parse_ms", "ms", layers["lss.parse"].medianMs())
	r.set("lss.elab_ms", "ms", layers["lss.elab"].medianMs())
	r.set("core.compile_ms", "ms", layers["core.compile"].medianSelfMs())
	r.set("core.compile_allocs", "count", median(compileAllocs))
	r.set("core.stamp_ms", "ms", layers["core.stamp"].medianSelfMs())
	r.set("core.stamp_elab_ms", "ms", layers["core.stamp_elab"].medianMs())
	r.set("core.stamp_allocs", "count", median(stampAllocs))
	return nil
}
