package core

import (
	"strings"
	"testing"
)

// progTestModule is a minimal handler-bearing module for program tests.
type progTestModule struct{ Base }

func newProgTestModule(name string) *progTestModule {
	m := &progTestModule{}
	m.Init(name, m)
	m.AddInPort("in")
	m.AddOutPort("out")
	return m
}

func progTestAssemble(b *Builder) error {
	a := newProgTestModule("a")
	c := newProgTestModule("c")
	b.Add(a)
	b.Add(c)
	return b.Connect(a, "out", c, "in")
}

// TestNewSimSharesCompiledArtifacts is the zero-rebuild guarantee, pinned
// at the pointer level: a stamped session binds the program's compiled
// schedule and activity partition by reference — no Tarjan, levelization
// or lane election re-runs on NewSim.
func TestNewSimSharesCompiledArtifacts(t *testing.T) {
	prog, err := Compile(progTestAssemble, WithScheduler(SchedulerSparse))
	if err != nil {
		t.Fatal(err)
	}
	if prog.schedule == nil || prog.sparse == nil {
		t.Fatal("sparse compile produced no schedule/activity artifacts")
	}
	for i := 0; i < 3; i++ {
		sim, err := prog.NewSim()
		if err != nil {
			t.Fatal(err)
		}
		if sim.prog != prog {
			t.Fatal("stamped session bound a different program")
		}
		if sim.schedule != prog.schedule || sim.sparse != prog.sparse {
			t.Fatal("stamped session rebuilt schedule artifacts instead of sharing the program's")
		}
		sim.Close()
	}
}

// TestNewSimRejectsSchedulerSwitch: sessions cannot select a different
// engine than the program was compiled for.
func TestNewSimRejectsSchedulerSwitch(t *testing.T) {
	prog, err := Compile(progTestAssemble, WithScheduler(SchedulerSequential))
	if err != nil {
		t.Fatal(err)
	}
	_, err = prog.NewSim(WithScheduler(SchedulerLevelized))
	if err == nil {
		t.Fatal("NewSim accepted a scheduler switch")
	}
	if !strings.Contains(err.Error(), "scheduler") {
		t.Fatalf("error does not explain the scheduler mismatch: %v", err)
	}
}

// TestNewSimRejectsNondeterministicRecipe: a recipe that assembles a
// different netlist on re-run fails the structural fingerprint check.
func TestNewSimRejectsNondeterministicRecipe(t *testing.T) {
	calls := 0
	prog, err := Compile(func(b *Builder) error {
		calls++
		name := "a"
		if calls > 1 {
			name = "mutated"
		}
		a := newProgTestModule(name)
		c := newProgTestModule("c")
		b.Add(a)
		b.Add(c)
		return b.Connect(a, "out", c, "in")
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.NewSim(); err == nil {
		t.Fatal("NewSim accepted a nondeterministic assembly recipe")
	}
}

// TestDirectBuildProgramMintsNoSessions: a program extracted from a plain
// Builder.Build has no recipe and says so.
func TestDirectBuildProgramMintsNoSessions(t *testing.T) {
	b := NewBuilder()
	if err := progTestAssemble(b); err != nil {
		t.Fatal(err)
	}
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	prog := sim.Program()
	if prog == nil {
		t.Fatal("direct build bound no program")
	}
	if _, err := prog.NewSim(); err == nil {
		t.Fatal("recipe-less program minted a session")
	}
}

// TestCloseIdempotent: Close is a no-op — repeated calls are harmless and
// the session keeps stepping.
func TestCloseIdempotent(t *testing.T) {
	b := NewBuilder()
	if err := progTestAssemble(b); err != nil {
		t.Fatal(err)
	}
	sim, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sim.Close()
	sim.Close()
	if err := sim.Run(3); err != nil {
		t.Fatalf("Run after Close: %v", err)
	}
}
