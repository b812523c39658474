package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchFile is the part of BENCHMARK.json the smoke mode checks against.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// runSmoke runs every workload of BENCHMARK.json briefly, untraced and
// traced, and fails if a run reports a metric other than the ones named
// there, misses one, gives one another unit, or has a failed operation
// other than a documented failure of the program (mesh-steady's two
// checkpoint round trips).
func runSmoke(seed int64) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want := [2]map[string]string{{}, {}}
	for _, m := range bf.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[1][m.Name] = m.Unit
	}
	for _, w := range bf.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json names workload %q, which perfbench does not run", w.Name)
		}
		for trace := 0; trace < 2; trace++ {
			cfg := config{workload: w.Name, seed: seed, seconds: 1, trace: trace == 1, setupReps: 2}
			res, err := run(cfg)
			if err != nil {
				return fmt.Errorf("%s trace=%d: %w", w.Name, trace, err)
			}
			for _, n := range res.notes {
				fmt.Printf("  %s\n", n)
			}
			if err := checkMetrics(res.metrics, want[trace]); err != nil {
				return fmt.Errorf("%s trace=%d: %w", w.Name, trace, err)
			}
			if !res.correct() {
				return fmt.Errorf("%s trace=%d: %d of %d operations failed, %d of them documented", w.Name, trace, res.failed, res.attempted, res.known)
			}
			fmt.Printf("smoke %-12s trace=%d ok: %d metrics, %d of %d operations failed (documented)\n",
				w.Name, trace, len(res.metrics), res.failed, res.attempted)
		}
	}
	return nil
}

// checkMetrics requires got to hold exactly the metrics of want, each
// with its unit.
func checkMetrics(got map[string]metric, want map[string]string) error {
	var missing, extra, unit []string
	for name, u := range want {
		m, ok := got[name]
		switch {
		case !ok:
			missing = append(missing, name)
		case m.Unit != u:
			unit = append(unit, fmt.Sprintf("%s in %s, not %s", name, m.Unit, u))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra)+len(unit) == 0 {
		return nil
	}
	sort.Strings(missing)
	sort.Strings(extra)
	sort.Strings(unit)
	return fmt.Errorf("metrics missing %v, unexpected %v, wrong unit %v", missing, extra, unit)
}
