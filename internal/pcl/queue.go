package pcl

import (
	core "liberty/internal/core"
)

// SelectFn orders a queue's occupied entries for dequeue. It receives the
// entries oldest-first and returns the indices eligible to leave this
// cycle, in offer order. The default (nil) is FIFO: 0, 1, 2, …
//
// This is the algorithmic parameter that turns the one template into an
// instruction window (select ready instructions out of order), a reorder
// buffer (select the oldest, only when complete) or a router I/O buffer
// (plain FIFO).
type SelectFn func(entries []any) []int

// Queue is a capacity-bounded buffer with multi-connection enqueue and
// dequeue ports and proper handshake backpressure. A full queue refuses
// new entries this cycle even if it is draining (classic synchronous FIFO
// semantics).
//
// With payload="uint64" the queue declares PayloadUint64 on both ports,
// stores its entries unboxed and moves them via SendUint64 and
// TransferredUint64, making the steady-state enqueue/dequeue path
// allocation-free. A SelectFn still receives []any in typed mode (the
// entries are boxed into a reused scratch slice per call); latency- or
// allocation-critical typed models should keep the default FIFO policy.
//
// Ports:
//
//	in  (In,  any width) — enqueue; acked while free slots remain
//	out (Out, any width) — dequeue; connection j is offered the j'th
//	                       selected entry
type Queue struct {
	core.Base
	In  *core.Port
	Out *core.Port

	capacity int
	selectFn SelectFn
	typed    bool  // payload="uint64": scalar fast-lane mode
	entries  []any // boxed mode storage, oldest-first
	entriesU []uint64
	offered  []int // entry index offered on out conn j this cycle
	selBuf   []int // scratch for the default FIFO selection
	goneBuf  []int // scratch for cycleEnd's removal list
	boxBuf   []any // scratch for boxing typed entries for a SelectFn

	cTransIn  *core.Counter
	cTransOut *core.Counter
	cFullStal *core.Counter
	hOcc      *core.Histogram
}

// NewQueue constructs a queue. Parameters:
//
//	capacity (int, default 8)       — maximum entries held
//	select   (SelectFn, optional)   — dequeue selection policy
//	payload  (string, default "any") — "uint64" selects the scalar fast lane
func NewQueue(name string, p core.Params) (*Queue, error) {
	kind, err := payloadOpt(p)
	if err != nil {
		return nil, err
	}
	q := &Queue{
		capacity: p.Int("capacity", 8),
		selectFn: core.Fn[SelectFn](p, "select", nil),
		typed:    kind == core.PayloadUint64,
	}
	if q.capacity < 1 {
		return nil, &core.ParamError{Param: "capacity", Detail: "must be >= 1"}
	}
	q.Init(name, q)
	q.In = q.AddInPort("in", core.PortOpts{DefaultAck: core.No, Payload: kind})
	q.Out = q.AddOutPort("out", core.PortOpts{Payload: kind})
	q.OnCycleStart(q.cycleStart)
	q.OnReact(q.react)
	q.OnCycleEnd(q.cycleEnd)
	return q, nil
}

// Len returns the current occupancy.
func (q *Queue) Len() int {
	if q.typed {
		return len(q.entriesU)
	}
	return len(q.entries)
}

// Cap returns the queue's capacity.
func (q *Queue) Cap() int { return q.capacity }

// Entries returns the live entries oldest-first. In boxed mode this is
// the queue's own storage (shared slice; callers must not mutate); in
// typed mode each call boxes the scalar entries into a fresh slice.
func (q *Queue) Entries() []any {
	if !q.typed {
		return q.entries
	}
	out := make([]any, len(q.entriesU))
	for i, u := range q.entriesU {
		out[i] = u
	}
	return out
}

func (q *Queue) lazyStats() {
	if q.cTransIn == nil {
		q.cTransIn = q.Counter("enqueues")
		q.cTransOut = q.Counter("dequeues")
		q.cFullStal = q.Counter("full_stalls")
		q.hOcc = q.Histogram("occupancy")
	}
}

func (q *Queue) cycleStart() {
	q.lazyStats()
	q.hOcc.Observe(float64(q.Len()))
	// Offer selected entries downstream.
	sel := q.selected()
	q.offered = q.offered[:0]
	for j := 0; j < q.Out.Width(); j++ {
		if j < len(sel) {
			q.offered = append(q.offered, sel[j])
			if q.typed {
				q.Out.SendUint64(j, q.entriesU[sel[j]])
			} else {
				q.Out.Send(j, q.entries[sel[j]])
			}
			q.Out.Enable(j)
		} else {
			q.Out.SendNothing(j)
			q.Out.Disable(j)
		}
	}
}

func (q *Queue) selected() []int {
	n := q.Len()
	if q.selectFn == nil {
		if cap(q.selBuf) < n {
			q.selBuf = make([]int, n)
		}
		sel := q.selBuf[:n]
		for i := range sel {
			sel[i] = i
		}
		return sel
	}
	view := q.entries
	if q.typed {
		// Box the scalar entries into reused scratch for the policy's
		// []any view; custom selection trades away the zero-alloc path.
		if cap(q.boxBuf) < n {
			q.boxBuf = make([]any, n)
		}
		view = q.boxBuf[:n]
		for i, u := range q.entriesU {
			view[i] = u
		}
	}
	sel := q.selectFn(view)
	seen := make(map[int]bool, len(sel))
	out := sel[:0]
	for _, i := range sel {
		if i < 0 || i >= n || seen[i] {
			continue
		}
		seen[i] = true
		out = append(out, i)
	}
	return out
}

func (q *Queue) react() {
	// Accept arrivals in connection order while space remains. Capacity is
	// judged against start-of-cycle occupancy: same-cycle dequeues do not
	// free space.
	free := q.capacity - q.Len()
	for i := 0; i < q.In.Width(); i++ {
		if q.In.AckStatus(i).Known() {
			if q.In.AckStatus(i) == core.Yes {
				free--
			}
			continue
		}
		switch q.In.DataStatus(i) {
		case core.Unknown:
			return // later connections must wait to preserve order
		case core.No:
			q.In.Nack(i)
		case core.Yes:
			if free > 0 {
				q.In.Ack(i)
				free--
			} else {
				q.In.Nack(i)
			}
		}
	}
}

func (q *Queue) cycleEnd() {
	// Collect transferred entry indices into persistent scratch
	// (sort.Reverse over an interface would allocate every cycle), sort
	// ascending — the list arrives already ascending under the default
	// FIFO selection, making the insertion sort a single linear scan —
	// and remove them in one compaction pass over the entries instead of
	// one O(n) splice per removal.
	gone := q.goneBuf[:0]
	for j := range q.offered {
		if q.Out.Transferred(j) {
			gone = append(gone, q.offered[j])
		}
	}
	sortAscending(gone)
	q.goneBuf = gone
	if len(gone) > 0 {
		if q.typed {
			q.entriesU = compactU(q.entriesU, gone)
		} else {
			q.entries = compact(q.entries, gone)
		}
		for range gone {
			q.cTransOut.Inc()
		}
	}
	// Then append accepted arrivals in connection order.
	for i := 0; i < q.In.Width(); i++ {
		if q.typed {
			if u, ok := q.In.TransferredUint64(i); ok {
				q.entriesU = append(q.entriesU, u)
				q.cTransIn.Inc()
			} else if q.In.DataStatus(i) == core.Yes && q.In.EnableStatus(i) == core.Yes {
				q.cFullStal.Inc()
			}
			continue
		}
		if v, ok := q.In.TransferredData(i); ok {
			q.entries = append(q.entries, v)
			q.cTransIn.Inc()
		} else if q.In.DataStatus(i) == core.Yes && q.In.EnableStatus(i) == core.Yes {
			q.cFullStal.Inc()
		}
	}
}

// sortAscending sorts a small index slice in place — allocation-free,
// and linear on already-sorted input (the default FIFO selection order).
func sortAscending(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// compact removes the entries at the ascending index list gone in a
// single pass, preserving order.
func compact(entries []any, gone []int) []any {
	w, g := gone[0], 0
	for r := gone[0]; r < len(entries); r++ {
		if g < len(gone) && gone[g] == r {
			g++
			continue
		}
		entries[w] = entries[r]
		w++
	}
	for i := w; i < len(entries); i++ {
		entries[i] = nil // release references past the new length
	}
	return entries[:w]
}

// compactU is compact for the typed uint64 storage.
func compactU(entries []uint64, gone []int) []uint64 {
	w, g := gone[0], 0
	for r := gone[0]; r < len(entries); r++ {
		if g < len(gone) && gone[g] == r {
			g++
			continue
		}
		entries[w] = entries[r]
		w++
	}
	return entries[:w]
}

func init() {
	core.Register(&core.Template{
		Name: "pcl.queue",
		Doc:  "capacity-bounded buffer with algorithmic dequeue selection",
		Build: func(b *core.Builder, name string, p core.Params) (core.Instance, error) {
			return NewQueue(name, p)
		},
	})
}
