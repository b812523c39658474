package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"liberty/internal/core"
	"liberty/internal/lss"
	"liberty/internal/obs"
	"liberty/internal/simd"
)

const (
	sweepCycles  = 200 // cycles per sweep point
	sweepClients = 2   // closed-loop clients, capped at the CPU count
	// rateLiteral is the offered load mesh.lss hard-codes; the sweep
	// turns it into a `rate` binding its define overrides.
	rateLiteral = "rate = 0.1"
)

// sweepRates are the offered loads a point draws from (packets per node
// per cycle): the default -rates of cmd/orion, which run from light load
// past the fabric's saturation. Each is its own cached program, as
// orion -remote submits one program per rate.
var sweepRates = []float64{0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.6, 0.8, 0.95}

// sweepSpec is specs/mesh.lss with its offered load bound by a `let`,
// so a `rate` define selects the load, as orion -remote submits it.
func sweepSpec(src string) (string, error) {
	if strings.Count(src, rateLiteral) != 1 {
		return "", fmt.Errorf("sweep-lsd: %s no longer has exactly one %q", meshSpec, rateLiteral)
	}
	return "let rate = 0.1;\n" + strings.Replace(src, rateLiteral, "rate = rate", 1), nil
}

// service is an in-process simd server on a loopback port.
type service struct {
	srv    *simd.Server
	hs     *http.Server
	served chan error
	tr     *http.Transport
	client *simd.Client
}

// startService starts a server and submits one program per rate: the
// cold compiles. Each submit is a "simd.submit_cold" span.
func startService(tr *tracer, parent int, spec string) (*service, error) {
	srv, err := simd.NewServer(simd.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &service{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1),
		tr: &http.Transport{MaxConnsPerHost: sweepClients, MaxIdleConnsPerHost: sweepClients}}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = &simd.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: s.tr}}
	for _, rate := range sweepRates {
		id := tr.begin("simd.submit_cold", parent, 0)
		_, err := s.client.SubmitProgram(context.Background(), submitRequest(spec, rate))
		tr.end(id)
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("cold submit rate %g: %w", rate, err)
		}
	}
	return s, nil
}

func submitRequest(spec string, rate float64) simd.SubmitProgramRequest {
	return simd.SubmitProgramRequest{Spec: spec, Name: meshSpec, Defines: map[string]any{"rate": rate}}
}

// stop shuts the server down and waits for its serving goroutine.
func (s *service) stop() {
	_ = s.hs.Shutdown(context.Background()) // no request is in flight
	<-s.served
	s.srv.Close()
	s.tr.CloseIdleConnections()
}

// sweepPoint is one completed point, kept for the correctness check.
type sweepPoint struct {
	rate     int
	seed     int64
	observed obs.Snapshot
}

// sweepClient is one closed-loop client: its next point starts when the
// previous one completes.
type sweepClient struct {
	svc     *service
	spec    string
	rng     *rand.Rand
	tr      *tracer
	metrics bool // ask the server for scheduler metrics (traced runs)

	points   []pointTime
	done     []sweepPoint
	failures []error
	hits     int
	submits  int
}

// pointTime is one point's latency as its client saw it; a failed point
// reads as the whole measured window.
type pointTime struct {
	rate int
	d    time.Duration
}

// point runs submit (cache hit) → create → run → observe → delete at
// sweepRates[rate] with a session seed.
func (c *sweepClient) point(ctx context.Context, parent, rate int, seed int64) error {
	pid := c.tr.beginGroup("point", parent)
	defer c.tr.end(pid)
	call := func(name string, f func() error) error {
		id := c.tr.begin(name, pid, pid)
		defer c.tr.end(id)
		return f()
	}
	var (
		info obs.Snapshot
		sess simd.SessionInfo
	)
	var prog simd.ProgramInfo
	err := call("simd.submit", func() (err error) {
		prog, err = c.svc.client.SubmitProgram(ctx, submitRequest(c.spec, sweepRates[rate]))
		c.submits++
		if prog.CacheHit {
			c.hits++
		}
		return err
	})
	if err == nil {
		err = call("simd.create", func() (err error) {
			sess, err = c.svc.client.NewSession(ctx, prog.ID, simd.CreateSessionRequest{Seed: seed, Metrics: c.metrics})
			return err
		})
	}
	if err != nil {
		return err
	}
	err = call("simd.run", func() error {
		_, err := c.svc.client.Run(ctx, sess.ID, sweepCycles)
		return err
	})
	if err == nil {
		err = call("simd.observe", func() (err error) {
			info, err = c.svc.client.Observe(ctx, sess.ID)
			return err
		})
	}
	err = errors.Join(err, call("simd.delete", func() error { return c.svc.client.CloseSession(ctx, sess.ID) }))
	if err == nil {
		c.done = append(c.done, sweepPoint{rate, seed, info})
	}
	return err
}

// loop runs points until the deadline, and at least one.
func (c *sweepClient) loop(parent int, seconds float64) {
	t0 := time.Now()
	for first := true; first || elapsed(t0) < seconds; first = false {
		rate, seed := c.rng.Intn(len(sweepRates)), c.rng.Int63()
		t := time.Now()
		if err := c.point(context.Background(), parent, rate, seed); err != nil {
			c.failures = append(c.failures, err)
			c.points = append(c.points, pointTime{rate, time.Duration(seconds * float64(time.Second))})
			continue
		}
		c.points = append(c.points, pointTime{rate, time.Since(t)})
	}
}

// runClients runs the closed loop with every client for seconds and
// returns the clients and the loop's wall time.
func runClients(svc *service, spec string, tr *tracer, parent int, seed int64, seconds float64, metrics bool) ([]*sweepClient, float64) {
	n := min(sweepClients, runtime.NumCPU())
	clients := make([]*sweepClient, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range clients {
		c := &sweepClient{svc: svc, spec: spec, tr: tr, metrics: metrics,
			rng: rand.New(rand.NewSource(seed*int64(sweepClients) + int64(i)))}
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(parent, seconds)
		}()
	}
	wg.Wait()
	return clients, elapsed(t0)
}

// runSweep is the sweep-lsd workload: the orion -remote flow as a closed
// loop of clients against an in-process simd server, every point checked
// against an in-process SchedulerSequential run.
func runSweep(cfg config) (*result, error) {
	r := newResult(cfg)
	tr := r.tr
	src, err := os.ReadFile(meshSpec)
	if err != nil {
		return nil, fmt.Errorf("sweep-lsd: %w", err)
	}
	spec, err := sweepSpec(string(src))
	if err != nil {
		return nil, err
	}

	// Set-up, repeated: server start plus the cold compiles.
	var (
		svc    *service
		setups []float64
	)
	for i, start := 0, time.Now(); cfg.moreSetup(i, start); i++ {
		if svc != nil {
			svc.stop()
		}
		root := tr.begin("setup", 0, 0)
		t0 := time.Now()
		if svc, err = startService(tr, root, spec); err != nil {
			return nil, fmt.Errorf("sweep-lsd: %w", err)
		}
		setups = append(setups, elapsed(t0))
		tr.end(root)
		if i == 0 && tr == nil {
			// Read before later repetitions leave stopped servers'
			// connection goroutines winding down.
			r.set("heap_mb", "MiB", heapMiB())
		}
	}
	defer svc.stop()
	r.notef("sweep-lsd: %s with rate defines %v, %d-cycle points, %d closed-loop clients", meshSpec, sweepRates, sweepCycles, min(sweepClients, runtime.NumCPU()))

	// One untimed point per client opens the connections.
	runClients(svc, spec, nil, 0, -cfg.seed, 0, false)

	measureFor := cfg.seconds
	var untraced []*sweepClient
	if tr == nil {
		r.set("setup_s", "s", median(setups))
	} else {
		untraced, _ = runClients(svc, spec, nil, 0, -cfg.seed-1, cfg.seconds/traceShares, false)
		measureFor -= cfg.seconds / traceShares
	}
	before := readMem()
	phase := tr.begin("phase.run", 0, 0)
	clients, wall := runClients(svc, spec, tr, phase, cfg.seed, measureFor, tr != nil)
	tr.end(phase)
	after := readMem()

	var (
		points    []time.Duration
		done      []sweepPoint
		hits, sub int
	)
	for _, c := range clients {
		for _, p := range c.points {
			points = append(points, p.d)
		}
		done = append(done, c.done...)
		hits += c.hits
		sub += c.submits
		for _, err := range c.failures {
			r.op("sweep-lsd point", err, "")
		}
	}
	if tr == nil {
		r.pointMetrics(points, sweepSteady(clients), len(clients), wall)
		var byRate []string
		for i, slices := range slicesByRate(clients) {
			byRate = append(byRate, fmt.Sprintf("%g: %d points, p75 %.4g ms", sweepRates[i], len(slices), steady(slices)*sweepCycles*1e3))
		}
		r.notef("point latency by rate: %s", strings.Join(byRate, "; "))
	}

	if err := checkSweep(r, spec, done); err != nil {
		return nil, err
	}

	if tr != nil {
		recipes, err := constructSweep(tr, spec)
		if err != nil {
			return nil, err
		}
		layers := tr.byName()
		if err := constructMetrics(r, layers, recipes...); err != nil {
			return nil, fmt.Errorf("sweep-lsd: %w", err)
		}
		for _, call := range []string{"submit", "create", "run", "observe", "delete"} {
			lt := layers["simd."+call]
			r.set("simd."+call+"_ms_p50", "ms", lt.quantileMs(0.5))
			r.set("simd."+call+"_ms_p99", "ms", lt.quantileMs(0.99))
		}
		r.set("simd.cache_hit_ratio", "frac", float64(hits)/float64(max(sub, 1)))
		pkgOf, err := samplePkgMap(spec)
		if err != nil {
			return nil, err
		}
		prof := newStepProfile()
		for _, p := range done {
			prof.add(p.observed, pkgOf)
		}
		prof.set(r, layers["simd.run"].totalTime())
		r.set("allocs_per_cycle", "count", float64(after.mallocs-before.mallocs)/float64(len(done)*sweepCycles))
		r.gcMetrics(before, after)
		r.set("trace.overhead_frac", "frac", sweepSteady(clients)/sweepSteady(untraced)-1)
		r.set("trace.unattributed_frac", "frac", unattributed(layers, "point"))
		notExercised(r, "ckpt", "mono")
	}
	return r, nil
}

// sweepSteady is the clients' steady host seconds per simulated cycle.
// A point's slice is the whole point, so stamping and the service's own
// work count against the sweepCycles cycles it delivers. Point time
// depends on the offered load, so the steady time is taken per rate and
// the rates weigh equally, whatever mix of rates the draw gave.
func sweepSteady(clients []*sweepClient) float64 {
	var sum float64
	var n int
	for _, slices := range slicesByRate(clients) {
		if len(slices) > 0 {
			sum += steady(slices)
			n++
		}
	}
	return sum / float64(max(n, 1))
}

// slicesByRate returns the clients' host seconds per cycle of each
// point, indexed by the point's rate.
func slicesByRate(clients []*sweepClient) [][]float64 {
	byRate := make([][]float64, len(sweepRates))
	for _, c := range clients {
		for _, p := range c.points {
			byRate[p.rate] = append(byRate[p.rate], p.d.Seconds()/sweepCycles)
		}
	}
	return byRate
}

// checkSweep replays every completed point in-process under
// SchedulerSequential, untimed, and compares the observed statistics.
// The replays run on as many goroutines as there were clients.
func checkSweep(r *result, spec string, done []sweepPoint) error {
	f, err := lss.ParseFile(meshSpec, spec)
	if err != nil {
		return fmt.Errorf("sweep-lsd: reference parse: %w", err)
	}
	progs := make([]*core.Program, len(sweepRates))
	for i, rate := range sweepRates {
		if progs[i], err = core.Compile(lssRecipe(f, map[string]any{"rate": rate}), core.WithScheduler(core.SchedulerSequential)); err != nil {
			return fmt.Errorf("sweep-lsd: reference compile: %w", err)
		}
	}
	mismatch := make([]string, len(done))
	errs := make([]error, len(done))
	var wg sync.WaitGroup
	workers := min(sweepClients, runtime.NumCPU())
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(done); i += workers {
				p := done[i]
				sim, err := progs[p.rate].NewSim(core.WithSeed(p.seed))
				if err == nil {
					err = sim.Run(sweepCycles)
					mismatch[i] = diffSnapshots(obs.Snapshot{Cycles: p.observed.Cycles, Counters: p.observed.Counters, Histograms: p.observed.Histograms}, statsOnly(sim))
					sim.Close()
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	for i, p := range done {
		r.op(fmt.Sprintf("sweep-lsd point rate=%g seed=%d vs sequential reference", sweepRates[p.rate], p.seed), errs[i], mismatch[i])
	}
	return nil
}

// constructSweep measures the construction layers the server runs for
// each point, in-process and traced: parse, compile and stamp of every
// rate's program.
func constructSweep(tr *tracer, spec string) ([]*recipe, error) {
	root := tr.begin("construct", 0, 0)
	defer tr.end(root)
	var recipes []*recipe
	for _, rate := range sweepRates {
		f, err := parseLSS(tr, root, meshSpec, spec)
		if err != nil {
			return nil, fmt.Errorf("sweep-lsd: %w", err)
		}
		rc := &recipe{fn: lssRecipe(f, map[string]any{"rate": rate}), tr: tr}
		prog, err := rc.compile(root)
		if err != nil {
			return nil, fmt.Errorf("sweep-lsd: compile: %w", err)
		}
		for i := 0; i < 3; i++ {
			sim, err := rc.stamp(prog, root, core.WithSeed(int64(i)))
			if err != nil {
				return nil, fmt.Errorf("sweep-lsd: stamp: %w", err)
			}
			sim.Close()
		}
		recipes = append(recipes, rc)
	}
	return recipes, nil
}

// samplePkgMap maps the sweep program's instance names to their template
// packages, from one in-process session.
func samplePkgMap(spec string) (map[string]string, error) {
	prog, err := lss.CompileFile(meshSpec, spec, nil)
	if err != nil {
		return nil, fmt.Errorf("sweep-lsd: %w", err)
	}
	sim, err := prog.NewSim()
	if err != nil {
		return nil, fmt.Errorf("sweep-lsd: %w", err)
	}
	defer sim.Close()
	return pkgMap(sim), nil
}
