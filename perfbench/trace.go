package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Spans of one sweep point share a group id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Group  int    `json:"group,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the run's spans in memory; they are written once, at exit.
// A nil *tracer records nothing, so untraced runs pay one nil check per
// layer call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, group int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Group: group, Name: name, Start: now})
	return len(t.spans)
}

// beginGroup opens a span that starts a group: its group id is its own
// id, for its children to share.
func (t *tracer) beginGroup(name string, parent int) int {
	id := t.begin(name, parent, 0)
	if id != 0 {
		t.mu.Lock()
		t.spans[id-1].Group = id
		t.mu.Unlock()
	}
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// layerTime is the aggregate of every span with one name.
type layerTime struct {
	total time.Duration   // summed span durations
	self  time.Duration   // summed self times: duration minus child spans
	durs  []time.Duration // per-span durations, in recording order
	selfs []time.Duration // per-span self times, in recording order
}

// medianMs and the methods below read a layer that may have no spans
// (nil), which reports 0.
func (lt *layerTime) medianMs() float64 { return lt.quantileMs(0.5) }

func (lt *layerTime) quantileMs(q float64) float64 {
	if lt == nil {
		return 0
	}
	return quantile(ms(lt.durs...), q)
}

func (lt *layerTime) medianSelfMs() float64 {
	if lt == nil {
		return 0
	}
	return median(ms(lt.selfs...))
}

func (lt *layerTime) totalTime() time.Duration {
	if lt == nil {
		return 0
	}
	return lt.total
}

// byName aggregates the spans by name. A span's self time is its
// duration minus the part of it its children cover; children of one span
// run one after another on the caller's goroutine, so they never overlap.
func (t *tracer) byName() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	out := map[string]*layerTime{}
	for _, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := time.Duration(s.End - s.Start)
		self := max(d-child[s.ID], 0)
		lt.total += d
		lt.self += self
		lt.durs = append(lt.durs, d)
		lt.selfs = append(lt.selfs, self)
	}
	return out
}

// write stores the spans as JSON under the build directory and returns
// the file's path.
func (t *tracer) write(cfg config) (string, error) {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	dir = filepath.Join(dir, "perfbench-trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Host  string `json:"host"`
		Spans []span `json:"spans"`
	}{hostLine(cfg), t.spans})
	t.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	return path, nil
}
