package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"liberty/internal/core"
	"liberty/internal/obs"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts durations to milliseconds.
func ms(ds ...time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// memSample is the slice of runtime.MemStats the benchmark reports.
type memSample struct {
	mallocs uint64
	numGC   uint32
	pauseNs uint64
}

func readMem() memSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSample{m.Mallocs, m.NumGC, m.PauseTotalNs}
}

// heapMiB forces a collection and returns the live heap in MiB.
func heapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// steadyQuantile is the quantile the end-to-end throughput is read at.
// The shared hosts this runs on alternate, over seconds, between an
// uncontended phase and a ~1.5× slower contended one that holds most of
// the time; the mean and the median follow the mix of the two from run
// to run, and the upper tail follows bursts of contention, while the
// 75th percentile stays in the contended phase.
const steadyQuantile = 0.75

// steady is a slice series' steady host time per cycle: its
// steadyQuantile.
func steady(slices []float64) float64 { return quantile(slices, steadyQuantile) }

// pointMetrics sets sim_cycles_per_s and notes the point rate and
// latencies, which are not gated. A point is the workload's unit of
// client-visible work; perCycle is the steady host seconds per simulated
// cycle of one timed stretch of simulation (a slice); conc is how many
// slices run at once.
func (r *result) pointMetrics(points []time.Duration, perCycle float64, conc int, wall float64) {
	lat := ms(points...)
	r.set("sim_cycles_per_s", "1/s", float64(conc)/perCycle)
	r.notef("points: %d in %.3f s, %.4g points/s, latency p50 %.4g ms, p75 %.4g ms, p90 %.4g ms, p99 %.4g ms",
		len(points), wall, float64(len(points))/wall, median(lat), quantile(lat, 0.75), quantile(lat, 0.9), quantile(lat, 0.99))
}

// gcMetrics sets the collector's work over a measured phase.
func (r *result) gcMetrics(before, after memSample) {
	r.set("gc.cycles", "count", float64(after.numGC-before.numGC))
	r.set("gc.pause_ms", "ms", float64(after.pauseNs-before.pauseNs)/1e6)
}

// diffSnapshots compares the simulated outputs two sessions report —
// cycle count, every counter and every histogram — and describes the
// first difference ("" when they agree).
func diffSnapshots(got, want obs.Snapshot) string {
	if got.Cycles != want.Cycles {
		return fmt.Sprintf("cycles %d, reference %d", got.Cycles, want.Cycles)
	}
	if len(got.Counters) != len(want.Counters) || len(got.Histograms) != len(want.Histograms) {
		return fmt.Sprintf("%d counters/%d histograms, reference %d/%d",
			len(got.Counters), len(got.Histograms), len(want.Counters), len(want.Histograms))
	}
	for _, name := range sortedKeys(want.Counters) {
		g, ok := got.Counters[name]
		if !ok || g != want.Counters[name] {
			return fmt.Sprintf("counter %s = %d, reference %d", name, g, want.Counters[name])
		}
	}
	for _, name := range sortedKeys(want.Histograms) {
		if g, w := got.Histograms[name], want.Histograms[name]; g != w {
			return fmt.Sprintf("histogram %s = %+v, reference %+v", name, g, w)
		}
	}
	return ""
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// statsOnly strips a snapshot to the simulated outputs diffSnapshots
// compares.
func statsOnly(s *core.Sim) obs.Snapshot {
	snap := obs.TakeSnapshot(s)
	return obs.Snapshot{Cycles: snap.Cycles, Counters: snap.Counters, Histograms: snap.Histograms}
}

// reactPkgs are the template packages react time is grouped by; any
// other package is reported as "other".
var reactPkgs = []string{"pcl", "ccl", "upl", "mpl", "other"}

// templatePkg names the Go package that implements an instance's
// template, e.g. "pcl" for liberty/internal/pcl.
func templatePkg(inst core.Instance) string {
	t := reflect.TypeOf(inst)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	pkg := t.PkgPath()
	pkg = pkg[strings.LastIndex(pkg, "/")+1:]
	for _, p := range reactPkgs {
		if p == pkg {
			return pkg
		}
	}
	return "other"
}

// stepProfile accumulates the engine's per-cycle counters and the
// sampled react time of metrics-enabled sessions, keyed by the template
// package of each instance.
type stepProfile struct {
	cycles, wakes, reacts, defaults, breaks, iters, active, spill uint64
	react                                                         map[string]time.Duration
}

func newStepProfile() *stepProfile { return &stepProfile{react: map[string]time.Duration{}} }

// add folds in one session's metrics; pkgOf maps an instance name to
// its template package.
func (p *stepProfile) add(snap obs.Snapshot, pkgOf map[string]string) {
	sc := snap.Scheduler
	if sc == nil {
		return
	}
	p.cycles += sc.Cycles
	p.wakes += sc.Wakes
	p.reacts += sc.Reacts
	p.iters += sc.FixedPointIters
	p.active += sc.ActiveInsts
	p.spill += snap.SpillHits
	for _, v := range sc.DefaultFallbacks {
		p.defaults += v
	}
	for _, v := range sc.CycleBreaks {
		p.breaks += v
	}
	for _, h := range snap.Hot {
		p.react[pkgOf[h.Name]] += time.Duration(h.ReactTimeNs)
	}
}

// pkgMap maps each instance of a session to its template package.
func pkgMap(s *core.Sim) map[string]string {
	m := map[string]string{}
	for _, inst := range s.Instances() {
		m[inst.Name()] = templatePkg(inst)
	}
	return m
}

// set reports the profile as per-cycle counts and per-kilocycle react
// time; step is the host time the profiled cycles took, so engine self
// time is step time minus the templates' react time.
func (p *stepProfile) set(r *result, step time.Duration) {
	per := func(v uint64) float64 { return float64(v) / float64(max(p.cycles, 1)) }
	r.set("core.wakes_per_cycle", "count", per(p.wakes))
	r.set("core.reacts_per_cycle", "count", per(p.reacts))
	r.set("core.defaults_per_cycle", "count", per(p.defaults))
	r.set("core.breaks_per_cycle", "count", per(p.breaks))
	r.set("core.fpiters_per_cycle", "count", per(p.iters))
	r.set("core.active_insts", "count", per(p.active))
	r.set("core.spill_hits_per_cycle", "count", per(p.spill))
	kc := float64(max(p.cycles, 1)) / 1000
	var reactSum time.Duration
	for _, pkg := range reactPkgs {
		reactSum += p.react[pkg]
		r.set("react."+pkg+"_ms_per_kcycle", "ms", ms(p.react[pkg])[0]/kc)
	}
	r.set("core.step_us_per_cycle", "us", float64(step)/float64(time.Microsecond)/float64(max(p.cycles, 1)))
	r.set("core.engine_self_ms_per_kcycle", "ms", ms(step - reactSum)[0]/kc)
}

// unexercised lists, per layer a workload may not call, the per-layer
// metrics that layer reports. A workload that does not call a layer
// reports its metrics as 0.
var unexercised = map[string][]struct{ name, unit string }{
	"ckpt": {{"core.snapshot_ms", "ms"}, {"core.snapshot_bytes", "bytes"},
		{"core.restore_ms", "ms"}, {"core.ckpt_failures", "count"}},
	"mono": {{"mono.cycles_per_s", "1/s"}, {"c4_overhead_x", "x"}},
	"simd": {
		{"simd.submit_ms_p50", "ms"}, {"simd.submit_ms_p99", "ms"},
		{"simd.create_ms_p50", "ms"}, {"simd.create_ms_p99", "ms"},
		{"simd.run_ms_p50", "ms"}, {"simd.run_ms_p99", "ms"},
		{"simd.observe_ms_p50", "ms"}, {"simd.observe_ms_p99", "ms"},
		{"simd.delete_ms_p50", "ms"}, {"simd.delete_ms_p99", "ms"},
		{"simd.cache_hit_ratio", "frac"},
	},
}

func notExercised(r *result, layers ...string) {
	for _, l := range layers {
		for _, m := range unexercised[l] {
			r.set(m.name, m.unit, 0)
		}
	}
}

// unattributed is the share of the named root spans' time that no child
// span covers: how much of the measured construction and step time the
// layer spans fail to account for.
func unattributed(layers map[string]*layerTime, roots ...string) float64 {
	var self, total time.Duration
	for _, name := range roots {
		if lt := layers[name]; lt != nil {
			self += lt.self
			total += lt.total
		}
	}
	if total == 0 {
		return 0
	}
	return self.Seconds() / total.Seconds()
}
