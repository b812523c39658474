package obs

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"sort"
	"strconv"

	core "liberty/internal/core"
)

// HistogramStats is the exported summary of one histogram.
type HistogramStats struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

func histStats(h *core.Histogram) HistogramStats {
	return HistogramStats{
		Count: h.Count(), Sum: h.Sum(), Mean: h.Mean(),
		Min: h.Min(), Max: h.Max(),
		P50: h.P50(), P95: h.P95(), P99: h.P99(),
	}
}

// InstanceStats is the exported react profile of one instance.
type InstanceStats struct {
	Name        string `json:"name"`
	Reacts      uint64 `json:"reacts"`
	ReactTimeNs int64  `json:"react_time_ns"`
}

// SchedulerStats is the exported view of core.Metrics: where the
// engine's time went, cycle by cycle.
type SchedulerStats struct {
	Cycles           uint64            `json:"cycles"`
	Wakes            uint64            `json:"wakes"`
	Reacts           uint64            `json:"reacts"`
	FixedPointIters  uint64            `json:"fixed_point_iters"`
	ParallelRounds   uint64            `json:"parallel_rounds"`
	Steals           uint64            `json:"steals,omitempty"`
	ActiveInsts      uint64            `json:"active_insts"`
	SkippedWakes     uint64            `json:"skipped_wakes"`
	RoundSize        *HistogramStats   `json:"round_size,omitempty"`
	DefaultFallbacks map[string]uint64 `json:"default_fallbacks"`
	CycleBreaks      map[string]uint64 `json:"cycle_breaks"`
}

// ScheduleStats is the exported view of the static schedule the levelized
// scheduler computed at Build time: how the netlist partitioned into
// statically ordered sweep levels versus the cyclic residue, and where
// default-dependency cycles break.
type ScheduleStats struct {
	Scheduler       string   `json:"scheduler"`
	Workers         int      `json:"workers"`
	Shards          int      `json:"shards,omitempty"`
	StealCount      uint64   `json:"steal_count,omitempty"`
	Modules         int      `json:"modules"`
	SCCs            int      `json:"sccs"`
	CyclicSCCs      int      `json:"cyclic_sccs"`
	LargestSCC      int      `json:"largest_scc"`
	ForwardLevels   int      `json:"forward_levels"`
	AckLevels       int      `json:"ack_levels"`
	SweepConns      int      `json:"sweep_conns"`
	ResidueConns    int      `json:"residue_conns"`
	AckSweepConns   int      `json:"ack_sweep_conns"`
	AckResidueConns int      `json:"ack_residue_conns"`
	ActiveInsts     int      `json:"active_insts,omitempty"`
	GatedInsts      int      `json:"gated_insts,omitempty"`
	AlwaysActive    int      `json:"always_active,omitempty"`
	ActiveConns     int      `json:"active_conns,omitempty"`
	GatedConns      int      `json:"gated_conns,omitempty"`
	PrunedInsts     int      `json:"pruned_insts,omitempty"`
	PrunedConns     int      `json:"pruned_conns,omitempty"`
	WovenConns      int      `json:"woven_conns,omitempty"`
	CtrlKernels     int      `json:"ctrl_kernels,omitempty"`
	FallbackConns   int      `json:"fallback_conns,omitempty"`
	ScalarConns     int      `json:"scalar_conns"`
	SpillConns      int      `json:"spill_conns"`
	BreakSites      []string `json:"break_sites,omitempty"`
	// LevelImbalance is the partitioned scheduler's per-forward-level
	// load skew: largest shard chunk over the even share (1.0 = perfectly
	// balanced).
	LevelImbalance []float64 `json:"level_imbalance,omitempty"`
}

func scheduleStats(info *core.ScheduleInfo) *ScheduleStats {
	return &ScheduleStats{
		Scheduler:       info.Scheduler.String(),
		Workers:         info.Workers,
		Shards:          info.Shards,
		StealCount:      info.StealCount,
		Modules:         info.Modules,
		SCCs:            info.SCCs,
		CyclicSCCs:      info.CyclicSCCs,
		LargestSCC:      info.LargestSCC,
		ForwardLevels:   info.ForwardLevels,
		AckLevels:       info.AckLevels,
		SweepConns:      info.SweepConns,
		ResidueConns:    info.ResidueConns,
		AckSweepConns:   info.AckSweepConns,
		AckResidueConns: info.AckResidueConns,
		ActiveInsts:     info.ActiveInsts,
		GatedInsts:      info.GatedInsts,
		AlwaysActive:    info.AlwaysActive,
		ActiveConns:     info.ActiveConns,
		GatedConns:      info.GatedConns,
		PrunedInsts:     info.PrunedInsts,
		PrunedConns:     info.PrunedConns,
		WovenConns:      info.WovenConns,
		CtrlKernels:     info.CtrlKernels,
		FallbackConns:   info.FallbackConns,
		ScalarConns:     info.ScalarConns,
		SpillConns:      info.SpillConns,
		BreakSites:      info.BreakSites,
		LevelImbalance:  info.LevelImbalance,
	}
}

// Snapshot is a point-in-time, machine-readable view of a simulator:
// identity, the full StatSet, the static schedule (when the simulator
// runs the levelized scheduler), and — when the simulator was built with
// metrics — scheduler counters and the per-instance react profile sorted
// hottest first.
type Snapshot struct {
	Cycles     uint64                    `json:"cycles"`
	Seed       int64                     `json:"seed"`
	Instances  int                       `json:"instances"`
	Conns      int                       `json:"conns"`
	SpillHits  uint64                    `json:"spill_hits"`
	Counters   map[string]int64          `json:"counters"`
	Histograms map[string]HistogramStats `json:"histograms"`
	Schedule   *ScheduleStats            `json:"schedule,omitempty"`
	Scheduler  *SchedulerStats           `json:"scheduler,omitempty"`
	Hot        []InstanceStats           `json:"hot,omitempty"`
}

var sigKinds = [...]core.SigKind{core.SigData, core.SigEnable, core.SigAck}

// TakeSnapshot captures the simulator's current statistics and metrics.
// It reads the cycle counter of the goroutine that steps s, so call it
// from that goroutine or under the lock that serializes its steps; a
// scraper running concurrently with the steps uses TakeLiveSnapshot.
func TakeSnapshot(s *core.Sim) Snapshot { return takeSnapshot(s, s.Now()) }

// TakeLiveSnapshot is TakeSnapshot for a scraper on a goroutine other
// than the one stepping s, such as a live /metrics endpoint. It reports
// the published cycle count (core.Sim.PublishedCycle), which a running
// session refreshes every few hundred cycles, instead of reading the
// stepping goroutine's counter; everything else it reads is atomic or
// lock-protected.
func TakeLiveSnapshot(s *core.Sim) Snapshot { return takeSnapshot(s, s.PublishedCycle()) }

func takeSnapshot(s *core.Sim, cycles uint64) Snapshot {
	snap := Snapshot{
		Cycles:     cycles,
		Seed:       s.Seed(),
		Instances:  len(s.Instances()),
		Conns:      len(s.Conns()),
		SpillHits:  s.SpillHits(),
		Counters:   map[string]int64{},
		Histograms: map[string]HistogramStats{},
	}
	st := s.Stats()
	for _, name := range st.Names() {
		if c := st.Counter(name); c != nil {
			snap.Counters[name] = c.Value()
			continue
		}
		if h := st.Histogram(name); h != nil {
			snap.Histograms[name] = histStats(h)
		}
	}
	if info := s.Schedule(); info != nil {
		snap.Schedule = scheduleStats(info)
	}
	m := s.Metrics()
	if m == nil {
		return snap
	}
	sched := &SchedulerStats{
		Cycles:           m.Cycles(),
		Wakes:            m.Wakes(),
		Reacts:           m.Reacts(),
		FixedPointIters:  m.FixedPointIters(),
		ParallelRounds:   m.ParallelRounds(),
		Steals:           m.Steals(),
		ActiveInsts:      m.ActiveInstances(),
		SkippedWakes:     m.SkippedWakes(),
		DefaultFallbacks: map[string]uint64{},
		CycleBreaks:      map[string]uint64{},
	}
	for _, k := range sigKinds {
		sched.DefaultFallbacks[k.String()] = m.DefaultFallbacks(k)
		sched.CycleBreaks[k.String()] = m.CycleBreaks(k)
	}
	if rs := m.RoundSizes(); rs.Count() > 0 {
		hs := histStats(rs)
		sched.RoundSize = &hs
	}
	snap.Scheduler = sched
	for _, im := range m.Instances() {
		snap.Hot = append(snap.Hot, InstanceStats{
			Name: im.Name, Reacts: im.Reacts, ReactTimeNs: im.ReactTime.Nanoseconds(),
		})
	}
	sort.SliceStable(snap.Hot, func(i, j int) bool {
		if snap.Hot[i].ReactTimeNs != snap.Hot[j].ReactTimeNs {
			return snap.Hot[i].ReactTimeNs > snap.Hot[j].ReactTimeNs
		}
		return snap.Hot[i].Reacts > snap.Hot[j].Reacts
	})
	return snap
}

// WriteJSON writes the simulator's snapshot to w as indented JSON.
func WriteJSON(w io.Writer, s *core.Sim) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(TakeSnapshot(s))
}

// WriteCSV writes the simulator's snapshot to w as CSV rows of the form
// kind,name,field,value — a flat layout spreadsheet tooling ingests
// without a schema.
func WriteCSV(w io.Writer, s *core.Sim) error {
	snap := TakeSnapshot(s)
	cw := csv.NewWriter(w)
	row := func(kind, name, field string, value any) {
		var v string
		switch x := value.(type) {
		case int64:
			v = strconv.FormatInt(x, 10)
		case uint64:
			v = strconv.FormatUint(x, 10)
		case float64:
			v = strconv.FormatFloat(x, 'g', -1, 64)
		default:
			v = ""
		}
		cw.Write([]string{kind, name, field, v})
	}
	row("sim", "", "cycles", snap.Cycles)
	row("sim", "", "seed", snap.Seed)
	row("sim", "", "instances", int64(snap.Instances))
	row("sim", "", "conns", int64(snap.Conns))
	row("sim", "", "spill_hits", snap.SpillHits)
	names := make([]string, 0, len(snap.Counters))
	for n := range snap.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		row("counter", n, "value", snap.Counters[n])
	}
	names = names[:0]
	for n := range snap.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := snap.Histograms[n]
		row("histogram", n, "count", h.Count)
		row("histogram", n, "mean", h.Mean)
		row("histogram", n, "min", h.Min)
		row("histogram", n, "max", h.Max)
		row("histogram", n, "p50", h.P50)
		row("histogram", n, "p95", h.P95)
		row("histogram", n, "p99", h.P99)
	}
	if sd := snap.Schedule; sd != nil {
		cw.Write([]string{"schedule", "", "scheduler", sd.Scheduler})
		row("schedule", "", "workers", int64(sd.Workers))
		if sd.Scheduler == "partitioned" {
			row("schedule", "", "shards", int64(sd.Shards))
			row("schedule", "", "steal_count", sd.StealCount)
			for i, im := range sd.LevelImbalance {
				row("schedule", strconv.Itoa(i), "level_imbalance", im)
			}
		}
		row("schedule", "", "modules", int64(sd.Modules))
		row("schedule", "", "sccs", int64(sd.SCCs))
		row("schedule", "", "cyclic_sccs", int64(sd.CyclicSCCs))
		row("schedule", "", "largest_scc", int64(sd.LargestSCC))
		row("schedule", "", "forward_levels", int64(sd.ForwardLevels))
		row("schedule", "", "ack_levels", int64(sd.AckLevels))
		row("schedule", "", "sweep_conns", int64(sd.SweepConns))
		row("schedule", "", "residue_conns", int64(sd.ResidueConns))
		row("schedule", "", "ack_sweep_conns", int64(sd.AckSweepConns))
		row("schedule", "", "ack_residue_conns", int64(sd.AckResidueConns))
		row("schedule", "", "scalar_conns", int64(sd.ScalarConns))
		row("schedule", "", "spill_conns", int64(sd.SpillConns))
		if sd.Scheduler == "sparse" {
			row("schedule", "", "active_insts", int64(sd.ActiveInsts))
			row("schedule", "", "gated_insts", int64(sd.GatedInsts))
			row("schedule", "", "always_active", int64(sd.AlwaysActive))
			row("schedule", "", "active_conns", int64(sd.ActiveConns))
			row("schedule", "", "gated_conns", int64(sd.GatedConns))
			row("schedule", "", "pruned_insts", int64(sd.PrunedInsts))
			row("schedule", "", "pruned_conns", int64(sd.PrunedConns))
		}
		if sd.Scheduler == "woven" {
			row("schedule", "", "woven_conns", int64(sd.WovenConns))
			row("schedule", "", "ctrl_kernels", int64(sd.CtrlKernels))
			row("schedule", "", "fallback_conns", int64(sd.FallbackConns))
			row("schedule", "", "pruned_insts", int64(sd.PrunedInsts))
			row("schedule", "", "pruned_conns", int64(sd.PrunedConns))
		}
		for i, site := range sd.BreakSites {
			cw.Write([]string{"schedule", strconv.Itoa(i), "break_site", site})
		}
	}
	if sc := snap.Scheduler; sc != nil {
		row("scheduler", "", "cycles", sc.Cycles)
		row("scheduler", "", "wakes", sc.Wakes)
		row("scheduler", "", "reacts", sc.Reacts)
		row("scheduler", "", "fixed_point_iters", sc.FixedPointIters)
		row("scheduler", "", "parallel_rounds", sc.ParallelRounds)
		row("scheduler", "", "steals", sc.Steals)
		row("scheduler", "", "active_insts", sc.ActiveInsts)
		row("scheduler", "", "skipped_wakes", sc.SkippedWakes)
		for _, k := range sigKinds {
			row("scheduler", k.String(), "default_fallbacks", sc.DefaultFallbacks[k.String()])
			row("scheduler", k.String(), "cycle_breaks", sc.CycleBreaks[k.String()])
		}
	}
	for _, inst := range snap.Hot {
		row("instance", inst.Name, "reacts", inst.Reacts)
		row("instance", inst.Name, "react_time_ns", inst.ReactTimeNs)
	}
	cw.Flush()
	return cw.Error()
}
