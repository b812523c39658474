package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testBaseline = `{"benchmarks": [
  {"name": "BenchmarkFast", "ns_per_op": 1000, "allocs_per_op": 0},
  {"name": "BenchmarkSlow", "ns_per_op": 2000}
]}`

// guard writes the baseline and a bench output to a temp dir and runs
// benchguard over them with the extra args, returning its report and
// error.
func guard(t *testing.T, benchOut string, args ...string) (string, error) {
	t.Helper()
	dir := t.TempDir()
	base := filepath.Join(dir, "BENCH.json")
	in := filepath.Join(dir, "bench.out")
	if err := os.WriteFile(base, []byte(testBaseline), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(in, []byte(benchOut), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run(append(append([]string{"-baseline", base}, args...), in), &out)
	return out.String(), err
}

const twoRows = `goos: linux
BenchmarkFast-2   	    200	      1050 ns/op	       0 B/op	       0 allocs/op
BenchmarkFast-2   	    200	       990 ns/op	       0 B/op	       0 allocs/op
BenchmarkSlow-2   	    200	      2100 ns/op	      64 B/op	       2 allocs/op
PASS
`

func TestPassingPair(t *testing.T) {
	out, err := guard(t, twoRows, "-notslower", "BenchmarkFast<=BenchmarkSlow")
	if err != nil {
		t.Fatalf("passing run failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "notslower BenchmarkFast (990 ns/op)") {
		t.Fatalf("pair not compared on the min sample:\n%s", out)
	}
}

func TestSlowerPairFails(t *testing.T) {
	out, err := guard(t, twoRows, "-notslower", "BenchmarkSlow<=BenchmarkFast")
	if err == nil {
		t.Fatalf("slower row passed the gate:\n%s", out)
	}
	if !strings.Contains(out, "SLOWER") {
		t.Fatalf("report does not name the slower pair:\n%s", out)
	}
}

func TestMissingPairRowFails(t *testing.T) {
	for _, pair := range []string{
		"BenchmarkFast<=BenchmarkRenamed",
		"BenchmarkTypo<=BenchmarkSlow",
	} {
		out, err := guard(t, twoRows, "-notslower", pair)
		if err == nil {
			t.Fatalf("%s: a missing row passed the gate:\n%s", pair, out)
		}
		if !strings.Contains(out, "MISSING") {
			t.Fatalf("%s: report does not flag the missing row:\n%s", pair, out)
		}
	}
}

func TestBaselineRegressionFails(t *testing.T) {
	slow := strings.Replace(twoRows, "2100 ns/op", "2600 ns/op", 1)
	if out, err := guard(t, slow); err == nil || !strings.Contains(out, "REGRESSED") {
		t.Fatalf("1.3x regression passed (err %v):\n%s", err, out)
	}
}
