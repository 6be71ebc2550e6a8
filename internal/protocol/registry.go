package protocol

import (
	"fmt"
	"strings"

	"mobickpt/internal/mobile"
	"mobickpt/internal/storage"
)

// Constructor builds a protocol instance for n hosts. ck records
// checkpoints; store is the store ck records into (QBC marks the records
// its equivalence rule replaces as superseded there); mssOf reports a
// host's current station — or, while disconnected, its last one — which
// TP needs for its location vector. Constructors ignore what they do not
// use, and must tolerate n = 0 with nil arguments so that a zero-host
// instance can be asked which capability interfaces it implements.
type Constructor func(n int, ck Checkpointer, store *storage.Store, mssOf func(mobile.HostID) mobile.MSSID) Protocol

// registry is every selectable protocol, in table order: the paper's
// three (§4), then the §2 baselines, then the MS extension. Each name is
// the one its instances report from Name.
var registry = []struct {
	name string
	mk   Constructor
}{
	{"TP", func(n int, ck Checkpointer, _ *storage.Store, mssOf func(mobile.HostID) mobile.MSSID) Protocol {
		return NewTP(n, ck, mssOf)
	}},
	{"BCS", hostsOnly(NewBCS)},
	{"QBC", func(n int, ck Checkpointer, store *storage.Store, _ func(mobile.HostID) mobile.MSSID) Protocol {
		return NewQBC(n, ck, store)
	}},
	{"UNC", hostsOnly(NewUncoordinated)},
	{"CL", hostsOnly(NewChandyLamport)},
	{"PS", hostsOnly(NewPrakashSinghal)},
	{"MS", hostsOnly(NewMS)},
}

// hostsOnly adapts a constructor that needs nothing but the host count
// and the Checkpointer.
func hostsOnly[P Protocol](mk func(int, Checkpointer) P) Constructor {
	return func(n int, ck Checkpointer, _ *storage.Store, _ func(mobile.HostID) mobile.MSSID) Protocol {
		return mk(n, ck)
	}
}

// Names lists the registered protocol names in table order.
func Names() []string {
	names := make([]string, len(registry))
	for i, r := range registry {
		names[i] = r.name
	}
	return names
}

// Lookup returns the constructor registered under name.
func Lookup(name string) (Constructor, error) {
	for _, r := range registry {
		if r.name == name {
			return r.mk, nil
		}
	}
	return nil, fmt.Errorf("protocol: unknown protocol %q (registered: %s)", name, strings.Join(Names(), ", "))
}

// Probe returns a zero-host instance of the named protocol: enough to ask
// which capability interfaces (Indexed, Initiator, Periodic...) it
// implements, without building a run.
func Probe(name string) (Protocol, error) {
	mk, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return mk(0, nil, nil, nil), nil
}

// Indexed is implemented by the index-based protocols (BCS, QBC, MS):
// every checkpoint carries a sequence number, and the same-index cuts
// are consistent recovery lines. Environments use it to decide which
// stores garbage collection and the recovery-line sweep apply to.
type Indexed interface {
	// SequenceNumber returns host h's current index.
	SequenceNumber(h mobile.HostID) int
}

// Clocked reports whether p needs the environment's clock: a snapshot
// trigger (Initiator) or a timer-driven checkpoint (Periodic). Only the
// simulation drives a clock; the live cluster and schedule replay run
// unclocked protocols only.
func Clocked(p Protocol) bool {
	_, init := p.(Initiator)
	_, per := p.(Periodic)
	return init || per
}
