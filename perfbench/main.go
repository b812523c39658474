// Command perfbench is the repository benchmark: three workloads built on
// the paper's own models, each run under the default engine
// (core.SchedulerAuto), measured from outside by timing calls into the
// layers' public functions, and checked against an independent reference.
//
//	bash perfbench/run.sh --workload mesh-steady --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --smoke
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics of BENCHMARK.json; with --trace 1 they are the
// per-layer metrics, and the run's spans are written to
// $CARGO_TARGET_DIR/perfbench-trace/ (default .bench_build). See
// perfbench/README.md for what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one benchmark run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// Set-up is repeated at least setupReps times and for at least
	// setupSeconds; setup_s is the median. Spreading the repetitions over
	// seconds keeps one short burst of host contention from setting it.
	setupReps    int
	setupSeconds float64
}

// moreSetup reports whether set-up repetition i, of a series started at
// start, should run.
func (c config) moreSetup(i int, start time.Time) bool {
	return i < c.setupReps || elapsed(start) < c.setupSeconds
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*result, error){
	"mesh-steady": runMesh,
	"cpu-c4":      runCPU,
	"sweep-lsd":   runSweep,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: mesh-steady, cpu-c4 or sweep-lsd")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", 10, "length of the measured phase in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		smoke    = flag.Bool("smoke", false, "run every workload briefly, traced and untraced, and check metrics and correctness")
	)
	flag.Parse()
	if *smoke {
		if err := runSmoke(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: smoke:", err)
			os.Exit(1)
		}
		fmt.Println("perfbench: smoke ok")
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want mesh-steady, cpu-c4 or sweep-lsd)\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, setupReps: 11, setupSeconds: 2}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run's outcome. Operations are the workload's
// verified units of work; failed counts those that errored or whose
// simulated output mismatched the reference, so failed/attempted is the
// failed_ops_frac of README.md. known counts the failed operations that
// are a documented defect of the program (README.md, "Baseline facts");
// any other failure makes the run incorrect.
type result struct {
	attempted int
	failed    int
	known     int
	notes     []string // one line per check, printed before the result
	metrics   map[string]metric
	tr        *tracer // non-nil on traced runs
}

func newResult(cfg config) *result {
	r := &result{metrics: map[string]metric{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	return r
}

func (r *result) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// op records one verified operation: err is a failure to perform it,
// mismatch a wrong simulated output.
func (r *result) op(what string, err error, mismatch string) {
	r.attempted++
	switch {
	case err != nil:
		r.failed++
		r.notef("FAILED %s: %v", what, err)
	case mismatch != "":
		r.failed++
		r.notef("MISMATCH %s: %s", what, mismatch)
	}
}

// correct reports whether every operation succeeded with the reference's
// outputs, apart from the documented failures.
func (r *result) correct() bool { return r.attempted > 0 && r.failed == r.known }

// hostLine identifies the machine and inputs a result was measured on.
func hostLine(cfg config) string {
	return fmt.Sprintf("host: nproc=%d gomaxprocs=%d cpu=%q go=%s goos=%s goarch=%s workload=%s seed=%d seconds=%g trace=%v",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
}

// cpuModel returns the processor's model name from /proc/cpuinfo, or
// "unknown" where that is not readable.
func cpuModel() string {
	data, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(data), "\n") {
		if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// print writes the host line, the checks, every metric by name and unit,
// and last the one-line JSON result. A traced run also writes its spans.
func (r *result) print(cfg config) error {
	fmt.Println(hostLine(cfg))
	for _, n := range r.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	fmt.Printf("failed_ops_frac %.6g (%d of %d operations)\n", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	if r.tr != nil {
		path, err := r.tr.write(cfg)
		if err != nil {
			return err
		}
		fmt.Println("trace:", path)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// elapsed returns the seconds since t0.
func elapsed(t0 time.Time) float64 { return time.Since(t0).Seconds() }
