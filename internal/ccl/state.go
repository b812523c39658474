package ccl

import (
	"bytes"
	"encoding/gob"
)

// This file makes the handler-bearing ccl templates checkpointable (see
// core.Stateful). Packets travel boxed through pcl queues, sources and
// sinks, so *Packet is registered with gob here; a model that puts a
// custom concrete type in Packet.Payload must gob.Register it before
// calling Snapshot.

func init() {
	gob.Register(&Packet{})
}

// linkState is Link's serialized form: the serializer's busy horizon and
// the packets in flight, oldest first.
type linkState struct {
	BusyUntil uint64
	Inflight  []linkStateEntry
}

// linkStateEntry is the exported gob mirror of linkEntry.
type linkStateEntry struct {
	Pkt   *Packet
	Ready uint64
}

// MarshalState implements core.Stateful.
func (l *Link) MarshalState() ([]byte, error) {
	st := linkState{BusyUntil: l.busyUntil, Inflight: make([]linkStateEntry, len(l.inflight))}
	for i, e := range l.inflight {
		st.Inflight[i] = linkStateEntry{Pkt: e.pkt, Ready: e.ready}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalState implements core.Stateful.
func (l *Link) UnmarshalState(blob []byte) error {
	var st linkState
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&st); err != nil {
		return err
	}
	l.busyUntil = st.BusyUntil
	l.inflight = make([]linkEntry, len(st.Inflight), max(len(st.Inflight), l.capacity))
	for i, e := range st.Inflight {
		l.inflight[i] = linkEntry{pkt: e.Pkt, ready: e.Ready}
	}
	return nil
}
