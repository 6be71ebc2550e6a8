package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Schedule event kinds: the five nondeterministic choices a live run
// makes (plus dynamic joins). Everything else a run does is a
// deterministic function of these and the protocol.
const (
	SchedSend       = "send"
	SchedDeliver    = "deliver"
	SchedHandoff    = "handoff"
	SchedDisconnect = "disconnect"
	SchedReconnect  = "reconnect"
	SchedJoin       = "join"
)

// ScheduleEvent is one recorded nondeterministic choice.
type ScheduleEvent struct {
	// Seq is the event's position in the recorded total order (dense,
	// starting at 0). Protocol events are serialized under one lock in
	// the live cluster, so the order is real, not reconstructed.
	Seq uint64 `json:"seq"`
	// Tick is the recording cluster's logical clock at the event
	// (strictly increasing along the schedule). A replay fires the event
	// at this virtual time, so replayed traces carry the original
	// timestamps.
	Tick uint64 `json:"tick"`
	// Kind is one of the Sched* constants.
	Kind string `json:"kind"`
	// Host is the acting host: the sender, the receiver, the mover, the
	// (dis/re)connector, or the joiner.
	Host int `json:"host"`
	// Peer is the other endpoint of a message event: the destination of
	// a send, the sender of a deliver. -1 otherwise.
	Peer int `json:"peer"`
	// Msg is the message id of a send/deliver event; 0 otherwise.
	Msg uint64 `json:"msg"`
	// From and To are stations: a handoff carries both, a disconnect
	// only From, a reconnect and a join only To. -1 when absent.
	From int `json:"from"`
	To   int `json:"to"`
}

// Schedule is the serialized nondeterminism of one live run: enough to
// re-execute the exact history through the deterministic engine. The
// protocol's own behaviour is NOT recorded — that is the point: a
// replay re-derives every checkpoint decision from the same inputs, so
// a differ can hold the two executions to byte-identical decisions.
type Schedule struct {
	// Hosts and Stations describe the initial topology (host i starts at
	// station i mod Stations, the live cluster's placement rule).
	Hosts    int `json:"hosts"`
	Stations int `json:"stations"`
	// Protocol is the protocol under test ("TP", "BCS", "QBC", ...).
	Protocol string `json:"protocol"`
	// Seed is the recording run's seed (informational: the replay never
	// draws randomness).
	Seed uint64 `json:"seed"`
	// Events is the recorded history in serialization order.
	Events []ScheduleEvent `json:"events"`
	// InFlight lists, sorted ascending, the ids of messages sent but
	// never delivered (still queued, or parked at a station for a host
	// that disconnected and never returned). The section is explicit so
	// a replay knows these sends are *supposed* to dangle — Validate
	// cross-checks it against the event list.
	InFlight []uint64 `json:"in_flight"`
}

// NewSchedule returns an empty schedule for the given topology.
func NewSchedule(hosts, stations int, protocol string, seed uint64) *Schedule {
	return &Schedule{Hosts: hosts, Stations: stations, Protocol: protocol, Seed: seed}
}

// Record appends one event and returns its sequence number. Tick must
// exceed the previous event's tick (the recorder's logical clock).
func (s *Schedule) Record(kind string, tick uint64, host, peer int, msg uint64, from, to int) uint64 {
	seq := uint64(len(s.Events))
	s.Events = append(s.Events, ScheduleEvent{
		Seq: seq, Tick: tick, Kind: kind,
		Host: host, Peer: peer, Msg: msg, From: from, To: to,
	})
	return seq
}

// FinalHosts returns the host count after all recorded joins.
func (s *Schedule) FinalHosts() int {
	n := s.Hosts
	for _, ev := range s.Events {
		if ev.Kind == SchedJoin {
			n++
		}
	}
	return n
}

// SealInFlight computes the InFlight section from the event list: every
// sent message with no matching delivery. Call once, after recording.
func (s *Schedule) SealInFlight() {
	delivered := make(map[uint64]bool)
	for _, ev := range s.Events {
		if ev.Kind == SchedDeliver {
			delivered[ev.Msg] = true
		}
	}
	s.InFlight = s.InFlight[:0]
	for _, ev := range s.Events {
		if ev.Kind == SchedSend && !delivered[ev.Msg] {
			s.InFlight = append(s.InFlight, ev.Msg)
		}
	}
	sort.Slice(s.InFlight, func(i, j int) bool { return s.InFlight[i] < s.InFlight[j] })
}

// Validate checks the schedule's internal consistency: dense ascending
// sequence numbers, strictly increasing ticks, events that respect the
// live cluster's calling discipline (no send/deliver/handoff while
// disconnected, deliveries matching prior sends, joins extending the
// host space densely), and an InFlight section that equals the set of
// undelivered sends.
func (s *Schedule) Validate() error {
	if s.Hosts <= 1 {
		return fmt.Errorf("schedule: Hosts = %d, need > 1", s.Hosts)
	}
	if s.Stations <= 1 {
		return fmt.Errorf("schedule: Stations = %d, need > 1", s.Stations)
	}
	if s.Protocol == "" {
		return fmt.Errorf("schedule: empty protocol name")
	}
	n := s.Hosts
	lastTick := uint64(0)
	// Host state is kept only for hosts the events touch, so memory is
	// bounded by the input, not by the Hosts field it claims: every host
	// starts connected at station i mod Stations.
	disconnected := make(map[int]bool)
	moved := make(map[int]int)
	stationOf := func(h int) int {
		if st, ok := moved[h]; ok {
			return st
		}
		return h % s.Stations
	}
	sent := make(map[uint64]ScheduleEvent)
	delivered := make(map[uint64]bool)
	for i, ev := range s.Events {
		if ev.Seq != uint64(i) {
			return fmt.Errorf("schedule: event %d has seq %d", i, ev.Seq)
		}
		if ev.Tick <= lastTick {
			return fmt.Errorf("schedule: event %d tick %d not after %d", i, ev.Tick, lastTick)
		}
		lastTick = ev.Tick
		// A join's Host is the *next* id (checked in its branch); every
		// other event acts on an existing host.
		if ev.Kind != SchedJoin && (ev.Host < 0 || ev.Host >= n) {
			return fmt.Errorf("schedule: event %d has out-of-range host %d", i, ev.Host)
		}
		switch ev.Kind {
		case SchedSend:
			if disconnected[ev.Host] {
				return fmt.Errorf("schedule: event %d: host %d sends while disconnected", i, ev.Host)
			}
			if ev.Peer < 0 || ev.Peer >= n || ev.Peer == ev.Host {
				return fmt.Errorf("schedule: event %d has bad send peer %d", i, ev.Peer)
			}
			if _, dup := sent[ev.Msg]; dup {
				return fmt.Errorf("schedule: event %d resends message %d", i, ev.Msg)
			}
			sent[ev.Msg] = ev
		case SchedDeliver:
			if disconnected[ev.Host] {
				return fmt.Errorf("schedule: event %d: host %d delivers while disconnected", i, ev.Host)
			}
			snd, ok := sent[ev.Msg]
			if !ok {
				return fmt.Errorf("schedule: event %d delivers unsent message %d", i, ev.Msg)
			}
			if delivered[ev.Msg] {
				return fmt.Errorf("schedule: event %d redelivers message %d", i, ev.Msg)
			}
			if snd.Peer != ev.Host || snd.Host != ev.Peer {
				return fmt.Errorf("schedule: event %d delivers message %d to %d from %d, sent %d->%d",
					i, ev.Msg, ev.Host, ev.Peer, snd.Host, snd.Peer)
			}
			delivered[ev.Msg] = true
		case SchedHandoff:
			if disconnected[ev.Host] {
				return fmt.Errorf("schedule: event %d: host %d hands off while disconnected", i, ev.Host)
			}
			if at := stationOf(ev.Host); ev.From != at {
				return fmt.Errorf("schedule: event %d hands host %d off from station %d, but it is at %d",
					i, ev.Host, ev.From, at)
			}
			if ev.To < 0 || ev.To >= s.Stations || ev.To == ev.From {
				return fmt.Errorf("schedule: event %d has bad handoff target %d", i, ev.To)
			}
			moved[ev.Host] = ev.To
		case SchedDisconnect:
			if disconnected[ev.Host] {
				return fmt.Errorf("schedule: event %d: host %d disconnects twice", i, ev.Host)
			}
			disconnected[ev.Host] = true
		case SchedReconnect:
			if !disconnected[ev.Host] {
				return fmt.Errorf("schedule: event %d: host %d reconnects while connected", i, ev.Host)
			}
			if at := stationOf(ev.Host); ev.To != at {
				return fmt.Errorf("schedule: event %d reconnects host %d at station %d, not its last station %d",
					i, ev.Host, ev.To, at)
			}
			delete(disconnected, ev.Host)
		case SchedJoin:
			if ev.Host != n {
				return fmt.Errorf("schedule: event %d joins host %d, want next id %d", i, ev.Host, n)
			}
			if ev.To < 0 || ev.To >= s.Stations {
				return fmt.Errorf("schedule: event %d joins at bad station %d", i, ev.To)
			}
			n++
			moved[ev.Host] = ev.To
		default:
			return fmt.Errorf("schedule: event %d has unknown kind %q", i, ev.Kind)
		}
	}
	// The in-flight section must name exactly the undelivered sends.
	want := make([]uint64, 0, len(sent))
	for id := range sent {
		if !delivered[id] {
			want = append(want, id)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(want) != len(s.InFlight) {
		return fmt.Errorf("schedule: in-flight section lists %d messages, events leave %d undelivered",
			len(s.InFlight), len(want))
	}
	for i, id := range want {
		if s.InFlight[i] != id {
			return fmt.Errorf("schedule: in-flight section entry %d is message %d, want %d", i, s.InFlight[i], id)
		}
	}
	return nil
}

// Export writes the schedule as JSON. The encoding is deterministic:
// two exports of the same schedule are byte-identical.
func (s *Schedule) Export(w io.Writer) error {
	return json.NewEncoder(w).Encode(s)
}

// ImportSchedule reads and validates a schedule written by Export.
func ImportSchedule(r io.Reader) (*Schedule, error) {
	var s Schedule
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("trace: import schedule: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("trace: import: %w", err)
	}
	return &s, nil
}
