// Package pdes implements parallel discrete-event simulation over the
// engine in internal/des: the pending-event set is sharded into P lanes
// (logical processes), each with its own equeue-backed event queue and
// local virtual time.
//
// Core (core.go) drives the repo's closure-based world model, whose
// handlers are irreversible (they mutate protocol state, pools and
// counters in ways no snapshot covers). Core therefore runs the lanes
// risk-free: an event executes only once it is provably safe given the
// cross-lane message lookahead, so no executed event is ever wrong and
// nothing needs rolling back. Mode selects between a barrier-windowed
// conservative driver and the asynchronous bounded-lag driver (Time
// Warp's zero-rollback operating point; the coordinator's sampled
// minimum frontier plays the role of GVT).
//
// Each lane's queue orders by (time, key) where key encodes (emitter,
// per-emitter ordinal), so the execution order is a pure function of
// the event population — independent of goroutine timing — and a
// parallel run is bit-identical to the sequential engine.
package pdes

import (
	"fmt"
	"sync/atomic"
)

// Mode selects the synchronization protocol of a parallel run.
type Mode int

const (
	// ModeSequential is the null mode: no lanes, the caller runs the
	// ordinary des.Simulator loop.
	ModeSequential Mode = iota
	// ModeConservative runs fixed-lookahead windows with a barrier
	// between windows: every lane executes only events provably beyond
	// the reach of any in-flight cross-lane message.
	ModeConservative
	// ModeTimeWarp runs the asynchronous bounded-lag driver: lanes
	// free-run up to the bound the other lanes' published frontiers and
	// the lookahead allow, with no barrier between windows. It is Time
	// Warp with speculation clamped to the safe bound, so nothing ever
	// rolls back.
	ModeTimeWarp
)

// String returns the mode's flag spelling.
func (m Mode) String() string {
	switch m {
	case ModeConservative:
		return "conservative"
	case ModeTimeWarp:
		return "timewarp"
	default:
		return "sequential"
	}
}

// ParseMode maps a flag spelling to a Mode. The empty string selects
// sequential execution.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "sequential", "seq":
		return ModeSequential, nil
	case "conservative":
		return ModeConservative, nil
	case "timewarp", "optimistic":
		return ModeTimeWarp, nil
	default:
		return ModeSequential, fmt.Errorf("pdes: unknown engine %q (want sequential, conservative or timewarp)", s)
	}
}

// Stats is the run-level accounting of a parallel execution. Counters
// are atomics because lanes update them concurrently; read them after
// Run returns (or through Snapshot for a consistent copy).
type Stats struct {
	Lanes int
	Mode  Mode

	// Processed counts lane events executed.
	Processed atomic.Uint64

	// GVTRounds counts the bounded-lag coordinator's frontier samples;
	// GVTLagMax is the largest observed gap between the furthest lane
	// and the minimum frontier (in virtual time units, as float64 bits).
	GVTRounds atomic.Uint64
	gvtLagMax atomic.Uint64

	// Driver shape: conservative windows executed and serialized
	// single-steps (the window collapsed onto a shared-state write),
	// bounded-lag write fences, and global-timeline events run
	// world-stopped between lane work (both drivers).
	Windows      atomic.Uint64
	SerialSteps  atomic.Uint64
	WriteFences  atomic.Uint64
	GlobalEvents atomic.Uint64
}

// GVTLagMax returns the largest observed LVT-GVT gap.
func (s *Stats) GVTLagMax() float64 { return fromBits(s.gvtLagMax.Load()) }

// observeLag folds one LVT-GVT gap observation into the running max.
func (s *Stats) observeLag(lag float64) {
	for {
		old := s.gvtLagMax.Load()
		if fromBits(old) >= lag {
			return
		}
		if s.gvtLagMax.CompareAndSwap(old, toBits(lag)) {
			return
		}
	}
}

// StatsSnapshot is a plain-value copy of Stats for reporting.
type StatsSnapshot struct {
	Lanes        int     `json:"lanes"`
	Mode         string  `json:"mode"`
	Processed    uint64  `json:"processed"`
	GVTRounds    uint64  `json:"gvt_rounds"`
	GVTLagMax    float64 `json:"gvt_lag_max"`
	Windows      uint64  `json:"windows"`
	SerialSteps  uint64  `json:"serial_steps"`
	WriteFences  uint64  `json:"write_fences"`
	GlobalEvents uint64  `json:"global_events"`
}

// Snapshot returns a consistent plain copy of the stats.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Lanes:        s.Lanes,
		Mode:         s.Mode.String(),
		Processed:    s.Processed.Load(),
		GVTRounds:    s.GVTRounds.Load(),
		GVTLagMax:    s.GVTLagMax(),
		Windows:      s.Windows.Load(),
		SerialSteps:  s.SerialSteps.Load(),
		WriteFences:  s.WriteFences.Load(),
		GlobalEvents: s.GlobalEvents.Load(),
	}
}
