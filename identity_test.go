package liberty_test

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	core "liberty/internal/core"
	"liberty/internal/isa"
	"liberty/internal/upl"
	"liberty/lse"
)

// identity_test.go pins the two hashes a stamped session derives from
// its netlist: the program's structural fingerprint (embedded in every
// snapshot, every parked lsd checkpoint and ProgramInfo.Fingerprint on
// the /v1 wire) and each instance's RNG seed (seed ^ FNV-64a(name)).
// The engine hashes both with an inlined FNV-64a; these tests keep the
// original hash/fnv formulation as the reference, so a rewrite of the
// stamp path can never silently move a value that outlives a process.

const identitySeed = 11

// identityNetlists compiles every shipped specs/*.lss plus the Go
// recipes the benchmarks stamp: the structural in-order CPU and the
// mesh-traffic sweep fabric.
func identityNetlists(t *testing.T) map[string]*core.Program {
	t.Helper()
	specs, err := filepath.Glob("specs/*.lss")
	if err != nil || len(specs) == 0 {
		t.Fatalf("no specs: %v", err)
	}
	progs := map[string]*core.Program{}
	for _, path := range specs {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lse.CompileLSS(string(src), lse.WithSeed(identitySeed))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		progs[filepath.Base(path)] = prog
	}
	cpu, err := core.Compile(func(b *core.Builder) error {
		_, err := upl.NewInOrderCPU(b, "cpu", isa.MustAssemble(isa.ProgLong), upl.CPUCfg{})
		return err
	}, core.WithSeed(identitySeed))
	if err != nil {
		t.Fatal(err)
	}
	progs["upl.NewInOrderCPU"] = cpu
	mesh, err := core.Compile(meshTrafficAssemble, core.WithSeed(identitySeed))
	if err != nil {
		t.Fatal(err)
	}
	progs["mesh-traffic"] = mesh
	return progs
}

// refFingerprint is the structural fingerprint as originally written
// against hash/fnv: FNV-64a over the assembly order, integers as 8
// little-endian bytes, strings as their length then their bytes.
func refFingerprint(sim *core.Sim) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	type shaped interface {
		HasHandlers() (react, start, end bool)
		Autonomous() bool
	}
	u64(uint64(len(sim.Instances())))
	for _, inst := range sim.Instances() {
		str(inst.Name())
		react, start, end := inst.(shaped).HasHandlers()
		var flags uint64
		if react {
			flags |= 1
		}
		if start {
			flags |= 2
		}
		if end {
			flags |= 4
		}
		if inst.(shaped).Autonomous() {
			flags |= 8
		}
		if _, ok := inst.(*core.Composite); ok {
			flags |= 16
		}
		u64(flags)
	}
	u64(uint64(len(sim.Conns())))
	for _, c := range sim.Conns() {
		sp, si := c.Src()
		dp, di := c.Dst()
		str(sp.Owner().Name())
		str(sp.Name())
		u64(uint64(si))
		str(dp.Owner().Name())
		str(dp.Name())
		u64(uint64(di))
		u64(uint64(sp.Opts().Payload)<<8 | uint64(dp.Opts().Payload))
	}
	return h.Sum64()
}

// refInstanceSeed is the per-instance stream seed as originally written.
func refInstanceSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}

// randOf returns an instance's stream; every template embeds core.Base.
func randOf(inst core.Instance) *rand.Rand {
	return inst.(interface{ Rand() *rand.Rand }).Rand()
}

// TestStampIdentitiesMatchReference checks the fingerprint and every
// instance's seed derivation against the hash/fnv reference, on every
// spec and recipe, on a session stamped from the compiled program. The
// fingerprints are also pinned to the values the eager hash/fnv
// implementation produced, so snapshots and parked sessions written
// before the inlined hash keep restoring.
func TestStampIdentitiesMatchReference(t *testing.T) {
	pinned := map[string]uint64{
		"bus.lss":           0xf7e719ef60a0589c,
		"mesh.lss":          0xb1a044319ae57674,
		"pipeline.lss":      0xfc8639e617799705,
		"quickstart.lss":    0xf2f2313fad9e4c89,
		"sensornet.lss":     0x86b45eddd899eb86,
		"typed.lss":         0x4d05b61f8f876bcb,
		"upl.NewInOrderCPU": 0x09f34a064870ba91,
		"mesh-traffic":      0x8615f7d13663c60f,
	}
	for name, prog := range identityNetlists(t) {
		t.Run(name, func(t *testing.T) {
			sim, err := prog.NewSim()
			if err != nil {
				t.Fatal(err)
			}
			defer sim.Close()
			if got, want := prog.Fingerprint(), refFingerprint(sim); got != want {
				t.Fatalf("fingerprint %016x, hash/fnv reference %016x", got, want)
			}
			if want, ok := pinned[name]; !ok || prog.Fingerprint() != want {
				t.Errorf("fingerprint %016x, pinned %016x (present: %v)", prog.Fingerprint(), want, ok)
			}
			for _, inst := range sim.Instances() {
				ref := rand.New(rand.NewSource(refInstanceSeed(sim.Seed(), inst.Name())))
				if got, want := randOf(inst).Int63(), ref.Int63(); got != want {
					t.Fatalf("%s: first draw %d, reference-seeded stream %d", inst.Name(), got, want)
				}
			}
		})
	}
}

// TestLazyStreamsMatchEagerSeeding checks that the lazily created
// per-instance streams are bit-identical to eagerly seeded
// rand.New(rand.NewSource(seed)) streams over their first draws, through
// every draw method the templates use, and again after a reseed.
func TestLazyStreamsMatchEagerSeeding(t *testing.T) {
	const draws = 64
	compare := func(t *testing.T, inst string, got, want *rand.Rand) {
		t.Helper()
		for i := 0; i < draws; i++ {
			var g, w uint64
			switch i % 4 {
			case 0:
				g, w = uint64(got.Int63()), uint64(want.Int63())
			case 1:
				g, w = got.Uint64(), want.Uint64()
			case 2:
				g, w = uint64(got.Float64()*(1<<53)), uint64(want.Float64()*(1<<53))
			default:
				g, w = uint64(got.Intn(1000)), uint64(want.Intn(1000))
			}
			if g != w {
				t.Fatalf("%s: draw %d is %d, eagerly seeded stream gives %d", inst, i, g, w)
			}
		}
	}
	for name, prog := range identityNetlists(t) {
		t.Run(name, func(t *testing.T) {
			sim, err := prog.NewSim(core.WithSeed(identitySeed + 1))
			if err != nil {
				t.Fatal(err)
			}
			defer sim.Close()
			for i, inst := range sim.Instances() {
				eager := rand.New(rand.NewSource(refInstanceSeed(sim.Seed(), inst.Name())))
				compare(t, inst.Name(), randOf(inst), eager)
				reseed := int64(i)*7919 + 1
				randOf(inst).Seed(reseed)
				compare(t, inst.Name()+" after Seed", randOf(inst), rand.New(rand.NewSource(reseed)))
			}
		})
	}
}
