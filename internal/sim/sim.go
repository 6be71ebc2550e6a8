// Package sim is the experiment engine: it wires the DES clock, the
// mobile network, the workload drivers, the checkpoint stores and the
// checkpointing protocols into one run, and reproduces the paper's
// methodology.
//
// A key property (shared with the paper's study): checkpoint insertion is
// instantaneous and does not perturb the application, so the message and
// mobility trace of a run depends only on the seed — never on the
// protocol. The engine exploits that by evaluating *all requested
// protocols simultaneously over the same trace*: each application message
// carries one piggyback slot per protocol, and each protocol keeps its
// own checkpoint store. This gives an exact like-for-like comparison in a
// single pass (the ablation bench verifies it matches per-protocol
// re-simulation).
package sim

import (
	"fmt"
	"runtime"
	"strconv"

	"mobickpt/internal/check"
	"mobickpt/internal/des"
	"mobickpt/internal/energy"
	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/obs"
	"mobickpt/internal/obs/probe"
	"mobickpt/internal/pdes"
	"mobickpt/internal/protocol"
	"mobickpt/internal/recovery"
	"mobickpt/internal/replaycmp"
	"mobickpt/internal/rng"
	"mobickpt/internal/storage"
	"mobickpt/internal/trace"
	"mobickpt/internal/workload"
)

// ProtocolName selects a protocol implementation.
type ProtocolName string

// The protocols of the study (§4) and the baselines of §2.
const (
	TP  ProtocolName = "TP"  // Acharya–Badrinath two-phase
	BCS ProtocolName = "BCS" // Briatico–Ciuffoletti–Simoncini
	QBC ProtocolName = "QBC" // Quaglia–Baldoni–Ciciani
	UNC ProtocolName = "UNC" // uncoordinated baseline
	CL  ProtocolName = "CL"  // Chandy–Lamport-style coordinated baseline
	PS  ProtocolName = "PS"  // Prakash–Singhal-style coordinated baseline
	MS  ProtocolName = "MS"  // timer-driven index protocol (extension)
)

// AllProtocols lists every selectable protocol, in the order of the
// protocol registry (which is also the row order of result tables).
func AllProtocols() []ProtocolName {
	names := protocol.Names()
	all := make([]ProtocolName, len(names))
	for i, name := range names {
		all[i] = ProtocolName(name)
	}
	return all
}

// PaperProtocols lists the three protocols the paper's figures compare.
func PaperProtocols() []ProtocolName { return []ProtocolName{TP, BCS, QBC} }

// Config describes one simulation run.
type Config struct {
	Mobile   mobile.Config
	Workload workload.Config
	Cost     storage.CostModel

	// Horizon is the simulated run length (the paper's runs are 100,000
	// time units).
	Horizon des.Time
	// Seed determines the entire trace.
	Seed uint64
	// Protocols are evaluated simultaneously over the same trace.
	Protocols []ProtocolName
	// SnapshotPeriod drives the coordinated baselines (CL, PS); ignored
	// for communication-induced protocols.
	SnapshotPeriod des.Time
	// CheckpointLatency models a non-negligible time for taking a
	// checkpoint: after each checkpoint the host's next operation is
	// delayed by this much. Because the delay perturbs the trace, it is
	// only allowed when exactly one protocol is selected (otherwise the
	// single-trace comparison would charge every protocol for the
	// union of all checkpoints). The paper (§5.1) reports that a
	// non-negligible checkpoint time has no remarkable impact on N_tot;
	// TestCheckpointLatencyClaim verifies that.
	CheckpointLatency des.Time

	// RecordTrace keeps the full message history per protocol for
	// recovery analysis. It costs memory proportional to the number of
	// delivered messages; leave false for N_tot sweeps.
	RecordTrace bool

	// JoinTimes schedules dynamic membership (E16): at each listed time a
	// new mobile host joins the computation at a station drawn from a
	// dedicated seed-derived stream and immediately starts communicating
	// and roaming. Protocols admit
	// it through their Dynamic interface; the per-protocol join cost is
	// reported in ProtocolResult.JoinCtrlMessages.
	JoinTimes []des.Time

	// GCInterval, when positive, runs stable-index garbage collection on
	// every index-based protocol's store at that period (E11): checkpoints
	// no future recovery line can use are reclaimed, bounding per-MSS
	// stable storage over arbitrarily long runs.
	GCInterval des.Time

	// MessageLog enables MSS-resident message logging (internal/mlog,
	// experiment E18): every delivered application message is appended to
	// a per-host log on the receiver's current station, transferred on
	// hand-off and flushed at disconnection. mlog.Off disables it.
	// Logging is purely observational — it never perturbs the trace — so
	// it composes with the shared-trace evaluation; each protocol slot
	// keeps its own log (receiver positions depend on the protocol's
	// checkpoints). Garbage collection of unreplayable entries rides the
	// GCInterval ticks of the index-based protocols.
	MessageLog mlog.Mode
	// LogFlushBatch is the optimistic flush threshold (entries buffered
	// per host before one stable write); 0 selects the mlog default.
	// Ignored unless MessageLog is mlog.Optimistic.
	LogFlushBatch int

	// Metrics, when non-nil, receives the run's observability instruments
	// (internal/obs): DES event/queue metrics, per-protocol checkpoint
	// counters broken down by cause, control-message and GC tallies,
	// message-log activity and network/workload volumes. With Metrics nil
	// the engine's hot paths skip instrumentation entirely
	// (BenchmarkObsOverhead asserts the disabled cost is noise).
	Metrics *obs.Registry

	// Timeline, when non-nil, records per-host instants and spans —
	// checkpoints (with kind and cause), hand-offs, disconnection
	// periods, message sends/deliveries and log flushes — plus causal
	// flow events chaining each send to its delivery and the forced
	// checkpoints that delivery induces, exportable as Chrome trace-event
	// JSON (obs.Timeline.Export). The recording is deterministic given
	// the seed *and engine-independent*: two same-seed runs export
	// byte-identical timelines on any Engine at any lane count
	// (TestTimelineEngineEquivalence). Every track-h event is emitted on
	// h's own timeline — by h's lane or the world-stopped coordinator —
	// so per-track order is a pure function of the trace.
	Timeline *obs.Timeline

	// LaneTimeline, when non-nil, additionally records the parallel
	// engine's execution shape — per-lane windows, write fences and
	// world-stopped global events — on lane-indexed tracks. Unlike
	// Timeline this view is engine-*dependent* by nature (a different
	// lane count is a different execution), so it exports separately.
	// Requires a parallel Engine.
	LaneTimeline *obs.Timeline

	// Probes, when true, attaches the engine-internals probes: event/
	// message pool hit rates, pending-event-set structure (calendar
	// bucket occupancy, chain-scan lengths, resizes), and — on parallel
	// engines — per-lane window/mailbox/spin counters. The counters are
	// plain single-writer cells read after the run: Result.Probes carries
	// the report, and with Metrics set they also surface as sim_probe_*
	// instruments (scrape only at quiescence). Probes never perturb the
	// trace: figures are bit-identical with probes on and off.
	Probes bool

	// Progress, when non-nil, is invoked every ProgressEvery simulated
	// time units with the current virtual time and the events fired so
	// far (CLI progress reporting for long sweeps). ProgressEvery
	// defaults to Horizon/10. The callback must not touch the engine.
	Progress      func(now des.Time, fired uint64)
	ProgressEvery des.Time

	// Checks enables the runtime invariant checker (internal/check): every
	// protocol event is verified against a shadow model of the protocol's
	// rules, the engine's counters are reconciled against the stable-storage
	// chains at the horizon, and (with RecordTrace) every index-based
	// recovery line is checked for orphan messages. Violations make Run
	// return a structured error naming protocol, host and time. The
	// overhead is a constant factor on protocol events; leave false for
	// large performance sweeps.
	Checks bool

	// Queue selects the engine's event-queue implementation (DESIGN.md
	// §7): the zero value is the reference binary heap; des.QueueCalendar
	// selects the O(1)-amortized calendar queue for large-n sweeps. Both
	// realize the same (time, seq) total order, so the choice never
	// changes a result — TestQueueAblationIdentical holds the engine to
	// that.
	Queue des.QueueKind

	// Engine selects the execution engine (DESIGN.md §8): the zero value
	// runs the ordinary sequential des.Simulator loop;
	// pdes.ModeConservative and pdes.ModeTimeWarp shard the hosts over
	// Lanes logical processes driven by internal/pdes. Both parallel
	// engines realize the same (time, key) total order as the sequential
	// engine, so results are bit-identical at every lane count —
	// TestEngineEquivalence holds the engine to that. Parallel execution
	// trades away the observational extras: it rejects Checks,
	// RecordTrace, MessageLog, Progress, CheckpointLatency and the
	// contention/loss channel models (all either perturb the trace from a
	// global vantage point or record through single-threaded paths), and
	// it requires positive wireless and wired latencies — the cross-lane
	// lookahead is derived from them, and a zero-latency network has no
	// safe parallel window.
	Engine pdes.Mode
	// Lanes is the logical-process count for parallel engines; 0 selects
	// GOMAXPROCS. Ignored when Engine is sequential.
	Lanes int

	// Schedule, when non-nil, switches Run into differential-replay mode
	// (E24): instead of generating a synthetic workload, the engine
	// re-executes the exact event history a live cluster recorded
	// (live.Config.Record) — every send, delivery, hand-off,
	// disconnection, reconnection and join, in the recorded total order at
	// the recorded logical ticks — and lets the protocol re-derive its
	// decisions. The Result carries a replaycmp.Log to hold against the
	// live one. Replay mode uses the schedule's own topology and protocol;
	// Protocols must be empty or name exactly that protocol, and the
	// workload/mobility/engine knobs of the generative mode are rejected
	// (there is nothing for them to drive). Checks and MessageLog compose.
	Schedule *trace.Schedule
}

// DefaultConfig returns the paper's §5.1 environment at T_switch = 1000,
// P_switch = 1.0, H = 0, comparing TP, BCS and QBC.
func DefaultConfig() Config {
	return Config{
		Mobile:         mobile.DefaultConfig(),
		Workload:       workload.DefaultConfig(),
		Cost:           storage.DefaultCostModel(),
		Horizon:        100000,
		Seed:           1,
		Protocols:      PaperProtocols(),
		SnapshotPeriod: 100,
	}
}

// Validate reports a descriptive error for bad configurations.
func (c Config) Validate() error {
	if c.Schedule != nil {
		return c.validateReplay()
	}
	if err := c.Mobile.Validate(); err != nil {
		return err
	}
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("sim: Horizon = %v, need > 0", c.Horizon)
	}
	if len(c.Protocols) == 0 {
		return fmt.Errorf("sim: no protocols selected")
	}
	seen := map[ProtocolName]bool{}
	for _, p := range c.Protocols {
		if seen[p] {
			return fmt.Errorf("sim: protocol %s selected twice", p)
		}
		seen[p] = true
		inst, err := protocol.Probe(string(p))
		if err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		if protocol.Clocked(inst) && c.SnapshotPeriod <= 0 {
			return fmt.Errorf("sim: %s requires SnapshotPeriod > 0", p)
		}
	}
	if c.CheckpointLatency < 0 {
		return fmt.Errorf("sim: negative CheckpointLatency")
	}
	if c.CheckpointLatency > 0 && len(c.Protocols) != 1 {
		return fmt.Errorf("sim: CheckpointLatency requires exactly one protocol (it perturbs the trace)")
	}
	if c.GCInterval < 0 {
		return fmt.Errorf("sim: negative GCInterval")
	}
	switch c.MessageLog {
	case mlog.Off, mlog.Pessimistic, mlog.Optimistic:
	default:
		return fmt.Errorf("sim: unknown MessageLog mode %v", c.MessageLog)
	}
	if c.LogFlushBatch < 0 {
		return fmt.Errorf("sim: negative LogFlushBatch")
	}
	for _, at := range c.JoinTimes {
		if at <= 0 || at > c.Horizon {
			return fmt.Errorf("sim: join time %v outside (0, horizon]", at)
		}
	}
	if c.ProgressEvery < 0 {
		return fmt.Errorf("sim: negative ProgressEvery")
	}
	if c.LaneTimeline != nil && c.Engine == pdes.ModeSequential {
		return fmt.Errorf("sim: LaneTimeline requires a parallel Engine (there are no lanes to record)")
	}
	switch c.Engine {
	case pdes.ModeSequential:
	case pdes.ModeConservative, pdes.ModeTimeWarp:
		if err := c.validateParallel(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("sim: unknown Engine mode %d", c.Engine)
	}
	return nil
}

// validateParallel rejects configurations the parallel engines cannot
// honor. The lookahead rule is load-bearing, not cosmetic: the lanes'
// entire progress window is the minimum cross-lane message delay, which
// this world derives from the network latencies at validation time — a
// zero latency would make the window empty and every event unsafe.
func (c Config) validateParallel() error {
	if c.Lanes < 0 {
		return fmt.Errorf("sim: Lanes = %d, need >= 0 (0 selects GOMAXPROCS)", c.Lanes)
	}
	if c.Mobile.WirelessLatency <= 0 {
		return fmt.Errorf("sim: engine %s requires Mobile.WirelessLatency > 0 (got %v): the cross-lane lookahead is the minimum uplink delay", c.Engine, c.Mobile.WirelessLatency)
	}
	if c.Mobile.WiredLatency <= 0 {
		return fmt.Errorf("sim: engine %s requires Mobile.WiredLatency > 0 (got %v): a zero-latency backbone collapses the safe window between stations", c.Engine, c.Mobile.WiredLatency)
	}
	if c.Mobile.Contention {
		return fmt.Errorf("sim: engine %s is incompatible with Mobile.Contention (per-cell channel queues are cross-lane shared state)", c.Engine)
	}
	if c.Mobile.LossProbability > 0 {
		return fmt.Errorf("sim: engine %s is incompatible with Mobile.LossProbability (the loss stream's draw order depends on global event order)", c.Engine)
	}
	if c.Checks {
		return fmt.Errorf("sim: engine %s is incompatible with Checks (the shadow models assume single-threaded protocol callbacks)", c.Engine)
	}
	if c.RecordTrace {
		return fmt.Errorf("sim: engine %s is incompatible with RecordTrace (trace recording is single-threaded)", c.Engine)
	}
	if c.MessageLog != mlog.Off {
		return fmt.Errorf("sim: engine %s is incompatible with MessageLog (per-station logs are cross-lane shared state)", c.Engine)
	}
	if c.Progress != nil {
		return fmt.Errorf("sim: engine %s is incompatible with Progress (no single clock to report mid-run)", c.Engine)
	}
	if c.CheckpointLatency > 0 {
		return fmt.Errorf("sim: engine %s is incompatible with CheckpointLatency (the charged delay perturbs lane-local schedules)", c.Engine)
	}
	return nil
}

// validateReplay rejects configurations replay mode cannot honor: the
// schedule dictates the topology, the event order and the virtual
// clock, so every generative knob is meaningless and likely a mistake.
func (c Config) validateReplay() error {
	if err := c.Schedule.Validate(); err != nil {
		return err
	}
	switch len(c.Protocols) {
	case 0:
	case 1:
		if string(c.Protocols[0]) != c.Schedule.Protocol {
			return fmt.Errorf("sim: replay schedule records protocol %s, Config selects %s",
				c.Schedule.Protocol, c.Protocols[0])
		}
	default:
		return fmt.Errorf("sim: replay runs exactly the schedule's protocol (%s); leave Protocols empty", c.Schedule.Protocol)
	}
	switch {
	case c.Engine != pdes.ModeSequential:
		return fmt.Errorf("sim: replay requires the sequential engine (the schedule is a total order)")
	case c.CheckpointLatency != 0:
		return fmt.Errorf("sim: replay is incompatible with CheckpointLatency (ticks are dictated by the schedule)")
	case c.SnapshotPeriod != 0:
		return fmt.Errorf("sim: replay is incompatible with SnapshotPeriod (no coordinated protocols are replayable)")
	case c.GCInterval != 0:
		return fmt.Errorf("sim: replay is incompatible with GCInterval (the recording ran without GC)")
	case len(c.JoinTimes) != 0:
		return fmt.Errorf("sim: replay takes joins from the schedule, not JoinTimes")
	case c.Probes || c.LaneTimeline != nil || c.Timeline != nil || c.Metrics != nil:
		return fmt.Errorf("sim: replay supports none of Probes/Timeline/LaneTimeline/Metrics")
	case c.Progress != nil:
		return fmt.Errorf("sim: replay is incompatible with Progress")
	}
	switch c.MessageLog {
	case mlog.Off, mlog.Pessimistic, mlog.Optimistic:
	default:
		return fmt.Errorf("sim: unknown MessageLog mode %v", c.MessageLog)
	}
	if c.LogFlushBatch < 0 {
		return fmt.Errorf("sim: negative LogFlushBatch")
	}
	return nil
}

// ProtocolResult holds one protocol's outcome over the run.
type ProtocolResult struct {
	Name ProtocolName

	// Ntot is the paper's measured quantity: basic + forced checkpoints
	// (the initial checkpoints, identical across protocols, are reported
	// separately).
	Ntot    int64
	Initial int64
	Basic   int64
	Forced  int64

	// PiggybackBytes is the control-information volume piggybacked on
	// application messages; CtrlMessages counts coordination markers
	// (zero for communication-induced protocols).
	PiggybackBytes int64
	CtrlMessages   int64

	// JoinCtrlMessages is the number of control messages dynamic joins
	// cost this protocol (zero for the index-based protocols, O(n) per
	// join for TP).
	JoinCtrlMessages int64

	// PeakLiveRecords is the largest number of unreclaimed checkpoints on
	// stable storage at any GC tick (only sampled when Config.GCInterval
	// is set; the paper's point (a): MSS storage is a managed resource).
	PeakLiveRecords int
	// GCReclaimedRecords is the total number of checkpoints pruned by
	// periodic garbage collection.
	GCReclaimedRecords int

	// Storage aggregates stable-storage transfer activity.
	Storage storage.Counters
	// Energy is the derived battery/channel cost (E9).
	Energy energy.Report

	// Log aggregates MSS message-logging activity (zero value unless
	// Config.MessageLog enabled logging).
	Log mlog.Counters

	// Causes breaks the checkpoints down by trigger (E19): keys are
	// "initial", "basic-switch", "basic-disconnect", "basic-marker",
	// "basic-other" and "forced". The non-initial values sum to Ntot.
	Causes map[string]int64

	// Store and Trace expose the raw material for recovery analysis.
	// Trace is nil unless Config.RecordTrace was set; MLog is nil unless
	// Config.MessageLog enabled logging.
	Store *storage.Store
	Trace *trace.Trace
	MLog  *mlog.Log

	// Instance is the live protocol state machine (e.g. *protocol.TP for
	// vector metadata); nil after deserialization.
	Instance protocol.Protocol
}

// Result is the outcome of one run.
type Result struct {
	Config    Config
	Network   mobile.Counters
	Workload  workload.Counters
	Protocols []ProtocolResult
	// FinalHosts is the host count at the horizon (it exceeds
	// Config.Mobile.NumHosts when JoinTimes admitted new hosts).
	FinalHosts int
	// EventsFired is the number of DES events executed (engine load). For
	// parallel runs it sums the lane events and the global-timeline
	// events, which matches the sequential count exactly.
	EventsFired uint64
	// PDES reports the parallel engine's run statistics (lane count,
	// windows, fences, serialized steps); nil for sequential runs. It is
	// deliberately excluded from ExportJSON so exports stay byte-identical
	// across engines.
	PDES *pdes.StatsSnapshot
	// Probes is the engine-internals report (nil unless Config.Probes).
	// ExportJSON includes it under "probes" when present; like PDES it is
	// engine-dependent, so cross-engine export comparisons either run
	// probe-free or strip the field.
	Probes *ProbeReport
	// Decisions is the replayed protocol-decision log (nil unless
	// Config.Schedule put the run in replay mode). Hold it against the
	// recording side with replaycmp.Compare. Excluded from ExportJSON —
	// the bundle format (replaycmp.Bundle) is the interchange surface.
	Decisions *replaycmp.Log
}

// ProbeReport aggregates the run's engine-internals probes (see
// internal/obs/probe): the global simulator's pending-event-set and event
// pool, the message pool merged across lanes, and — for parallel engines
// — the per-lane execution and queue internals.
type ProbeReport struct {
	Engine      string             `json:"engine"`
	Lanes       int                `json:"lanes"`
	GlobalQueue probe.QueueProbe   `json:"global_queue"`
	EventPool   probe.PoolProbe    `json:"event_pool"`
	MessagePool probe.PoolProbe    `json:"message_pool"`
	LaneProbes  []probe.LaneProbe  `json:"lane_probes,omitempty"`
	LaneQueues  []probe.QueueProbe `json:"lane_queues,omitempty"`
}

// Protocol returns the result for the named protocol, or nil.
func (r *Result) Protocol(name ProtocolName) *ProtocolResult {
	for i := range r.Protocols {
		if r.Protocols[i].Name == name {
			return &r.Protocols[i]
		}
	}
	return nil
}

// Run executes one simulation. With Config.Checks set, a run that
// violates a protocol invariant returns the (partial) result together
// with a check.Violations error describing every broken rule.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Schedule != nil {
		return runSchedule(cfg)
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	res := e.run()
	var vs check.Violations
	for i, ck := range e.checks {
		// Lines below the highest frontier any GC pass pruned at lost
		// members by design and are exempt (with dynamic joins the
		// end-of-run stable index can sit below that frontier, so the
		// frontier is tracked per pass, not recomputed here).
		vs = append(vs, reconcile(ck, e.counts[i], &res.Protocols[i], res.FinalHosts, e.gcFrontier[i], e.sim.Now())...)
	}
	if len(vs) > 0 {
		return res, vs
	}
	return res, nil
}

// engine is the wired-up run state.
type engine struct {
	cfg    Config
	sim    *des.Simulator
	net    *mobile.Network
	driver *workload.Driver

	// sched is the scheduling surface the world model runs on: des.Solo
	// over sim for sequential runs, a coreSched over core for parallel
	// ones. laneCount is 1 sequentially; lane-sharded engine state
	// (causeLane, causesLane, plFree) is indexed by owner % laneCount,
	// mirroring pdes.Core's owner-to-lane map.
	sched     des.Sched
	core      *pdes.Core
	laneCount int
	// inGlobalPhase is true whenever the engine is single-threaded: before
	// core.Run, inside world-stopped global-timeline events, and during
	// the post-run drain. Toggled only while no lane handler executes (the
	// coordinator's frontier handshake orders the accesses), it routes
	// now() to the global clock instead of a parked lane's local time.
	//
	//lane:stopped the coordinator flips it between handler windows
	inGlobalPhase bool

	// joinRNG places dynamically joining hosts on a dedicated stream
	// (like the loss model's): placement must be seed-dependent — the
	// old NumHosts()%NumMSS rule parked every k-th joiner on the same
	// station regardless of seed — yet must not perturb the workload's
	// randomness. Created lazily on the first join.
	//
	//lane:stopped joins are global-timeline events, never lane handlers
	joinRNG *rng.Source

	protos []protocol.Protocol
	// indexed[i] records whether protos[i] is index-based
	// (protocol.Indexed): GC and the recovery-line sweep apply only there.
	indexed []bool
	// recyclers[i] is protos[i]'s piggyback free-list hook (nil when the
	// protocol's piggybacks need no recycling); plFree recycles the
	// per-message payload carriers. Together they keep the send→deliver
	// path allocation-free in steady state.
	recyclers []protocol.Recycler
	// plFree is the per-lane payload free list: send pops lane(from),
	// deliver pushes lane(to).
	//
	//lane:shard
	plFree [][]*payload
	stores []*storage.Store
	traces []*trace.Trace
	mlogs  []*mlog.Log      // per-protocol MSS message logs; nil entries unless Config.MessageLog
	counts [][]int          // [proto][host] checkpoints taken (incl. initial)
	checks []*check.Runtime // nil unless Config.Checks

	// pendingLatency accumulates checkpoint time to charge against each
	// host's next operation (only with a single protocol selected).
	pendingLatency []des.Time

	peakLive    []int   // per protocol, max live records seen at GC ticks
	gcReclaimed []int   // per protocol, total records pruned
	gcFrontier  []int   // per protocol, highest stable index any GC pruned at
	joinCtrl    []int64 // per protocol, control messages spent on joins

	// causeLane names, per lane, the engine activity driving the protocol
	// callbacks currently running there ("switch", "disconnect", ...); the
	// checkpointer reads the acting host's lane slot to attribute each
	// checkpoint to its trigger (E19). Global-phase activities (markers,
	// ticks, joins, init) run world-stopped and stamp every slot.
	// causesLane accumulates the per-lane, per-protocol breakdown, merged
	// into ProtocolResult.Causes after the run. With one lane both reduce
	// to the old single cause string and map.
	//
	//lane:shard
	causeLane []string
	// causesLane is indexed [lane][proto][cause].
	//
	//lane:shard
	causesLane [][]map[string]int64

	// Observability (nil unless Config.Metrics / Config.Timeline).
	reg         *obs.Registry
	tl          *obs.Timeline
	ckptByCause []map[string]*obs.Counter // cached sim_checkpoints_total counters
	forcedHost  [][]*obs.Counter          // cached per-host forced-checkpoint counters
	// discAt (timeline only) holds the disconnect start per host, -1
	// when connected. Mobility transitions run as fenced write events —
	// no lane handler window overlaps them — so the slice may grow.
	//
	//lane:stopped mobility transitions are fenced write events
	discAt []des.Time

	// Flow-id machinery (timeline only). sendOrd[h] counts host h's sends;
	// the flow id uint64(h)<<32|ordinal is a pure function of the trace —
	// unlike mobile.Message.ID, whose atomic allocation order depends on
	// lane scheduling — so flow chains are byte-identical across engines.
	// flowLane/flowHostLane stash the message currently being delivered on
	// each lane so the checkpointer can link the forced checkpoints that
	// delivery induces into the same flow. Each slot is touched only by
	// its lane's goroutine (or the world-stopped coordinator); slices grow
	// only world-stopped (joins).
	sendOrd []uint64
	//lane:shard
	flowLane []uint64
	//lane:shard
	flowHostLane []mobile.HostID

	// Engine-internals probes (zero/nil unless Config.Probes). All are
	// single-writer cells read after the run (DESIGN.md: probes and
	// overhead).
	coreProbe *pdes.CoreProbe
	// msgProbe holds the per-lane message pool shards (mobile).
	//
	//lane:shard
	msgProbe []probe.PoolProbe
	simPool  probe.PoolProbe  // global simulator's event pool
	simQueue probe.QueueProbe // global simulator's pending-event set
}

// markDisconnected records the start of host h's disconnection span for
// the timeline, growing the flat per-host table past dynamic joins.
//
//lane:stopped
func (e *engine) markDisconnected(h mobile.HostID, at des.Time) {
	for int(h) >= len(e.discAt) {
		e.discAt = append(e.discAt, -1)
	}
	e.discAt[h] = at
}

// takeDisconnected returns and clears host h's disconnection start.
//
//lane:stopped
func (e *engine) takeDisconnected(h mobile.HostID) (des.Time, bool) {
	if int(h) >= len(e.discAt) || e.discAt[h] < 0 {
		return 0, false
	}
	at := e.discAt[h]
	e.discAt[h] = -1
	return at, true
}

// laneOf maps a host to its engine-side lane shard (pdes.Core uses the
// same owner % P map, so shard writes stay on the executing lane).
func (e *engine) laneOf(h mobile.HostID) int { return int(h) % e.laneCount }

// now returns the virtual time on host h's timeline: the global clock
// while single-threaded (sequential runs, init, world-stopped global
// events), h's lane-local time while its lane handler executes.
func (e *engine) now(h mobile.HostID) des.Time {
	if e.core == nil || e.inGlobalPhase {
		return e.sim.Now()
	}
	return e.sched.Now(int(h))
}

// setCauseFor marks the activity about to drive protocol callbacks for
// host h and returns the slot's previous value; restoreCauseFor puts it
// back. Lane handlers only ever touch their own host's slot.
//
//lane:handler
func (e *engine) setCauseFor(h mobile.HostID, c string) (prev string) {
	s := e.laneOf(h)
	prev = e.causeLane[s]
	e.causeLane[s] = c
	return prev
}

//lane:handler
func (e *engine) restoreCauseFor(h mobile.HostID, prev string) {
	e.causeLane[e.laneOf(h)] = prev
}

// setCauseAll stamps every lane's cause slot — legal only while
// single-threaded (init and the world-stopped global phase, where a
// marker or tick may checkpoint any host). restoreCauseAll undoes it; no
// lane handler runs in between, so clobbering lane-local values is moot.
//
//lane:stopped
func (e *engine) setCauseAll(c string) (prev string) {
	prev = e.causeLane[0]
	for i := range e.causeLane {
		e.causeLane[i] = c
	}
	return prev
}

//lane:stopped
func (e *engine) restoreCauseAll(prev string) {
	for i := range e.causeLane {
		e.causeLane[i] = prev
	}
}

// causeKey classifies a checkpoint for the E19 breakdown: the storage
// kind plus — for basic checkpoints — the engine activity that forced it
// (the paper's two mobility triggers, cell switch and disconnection, or
// the coordinated baselines' markers).
// The classification is shared with the live cluster and the replay
// comparator — one definition, so the three recorders cannot drift.
func causeKey(kind storage.Kind, cause string) string {
	return replaycmp.CauseKey(kind, cause)
}

// payload is what one application message carries: the per-protocol
// piggybacks, parallel to cfg.Protocols. Payloads are pooled: send draws
// from engine.plFree and onDeliver returns the carrier (and, through
// protocol.Recycler, the piggybacks) once every consumer has seen them.
type payload struct {
	piggyback []any
}

// coreSched adapts pdes.Core to des.Sched for the world model. Labels
// classify events: the three mobility transitions mutate cross-lane-
// visible shared state (a hand-off moves the host between stations other
// lanes' sends route through), so they are flagged as writes and execute
// under the core's fence/serialization discipline; every other world
// event is lane-local. Route — the message hop — is never a write: it
// lands on the receiver's own timeline.
type coreSched struct {
	core *pdes.Core
	e    *engine
}

// writeLabel reports whether a world event label names a shared-state
// write. schedlint (internal/analysis) pins the label set: scheduling a
// new shared-state mutation under a different label would silently race.
func writeLabel(label string) bool {
	switch label {
	case "handoff", "disconnect", "reconnect":
		return true
	}
	return false
}

// Now returns the virtual time on owner's timeline: the global clock
// while single-threaded (pre-run scheduling and world-stopped global
// events — a parked lane's local time would predate the global event),
// the lane's local time while its handler executes.
func (s *coreSched) Now(owner int) des.Time {
	if s.e.inGlobalPhase {
		return s.e.sim.Now()
	}
	return s.core.Now(owner)
}

func (s *coreSched) ScheduleArg(owner int, at des.Time, label string, fn des.ArgHandler, arg any) {
	s.core.Schedule(owner, owner, at, fn, arg, writeLabel(label))
}

func (s *coreSched) ScheduleArgAfter(owner int, delay des.Time, label string, fn des.ArgHandler, arg any) {
	s.core.Schedule(owner, owner, s.Now(owner)+delay, fn, arg, writeLabel(label))
}

func (s *coreSched) Route(from, owner int, at des.Time, label string, fn des.ArgHandler, arg any) {
	s.core.Schedule(from, owner, at, fn, arg, false)
}

func newEngine(cfg Config) (*engine, error) {
	e := &engine{cfg: cfg, sim: des.NewWith(cfg.Queue), reg: cfg.Metrics, tl: cfg.Timeline}
	e.sim.Instrument(cfg.Metrics)
	if cfg.Probes {
		e.sim.EnableProbe(&e.simPool, &e.simQueue)
	}
	e.laneCount = 1
	e.inGlobalPhase = true // single-threaded until the lanes start
	if cfg.Engine != pdes.ModeSequential {
		e.laneCount = cfg.Lanes
		if e.laneCount <= 0 {
			e.laneCount = runtime.GOMAXPROCS(0)
		}
		if cfg.Probes {
			e.coreProbe = &pdes.CoreProbe{}
		}
		core, err := pdes.NewCore(pdes.CoreConfig{
			Mode:    cfg.Engine,
			Lanes:   e.laneCount,
			Queue:   cfg.Queue,
			Horizon: cfg.Horizon,
			// The minimum cross-lane message delay: every cross-lane hop is
			// a wireless uplink to the receiver's station (Route at
			// now + WirelessLatency); wired forwarding and the downlink
			// happen on the receiving lane's own timeline.
			Lookahead:  cfg.Mobile.WirelessLatency,
			GlobalNext: e.sim.NextTime,
			GlobalStep: func() {
				e.inGlobalPhase = true
				e.sim.Step()
				e.inGlobalPhase = false
			},
			// The per-host Config.Timeline stays on the engine (its events
			// are engine-independent); the core gets the lane-level view.
			Timeline: cfg.LaneTimeline,
			Probe:    e.coreProbe,
		})
		if err != nil {
			return nil, err
		}
		e.core = core
		e.sched = &coreSched{core: core, e: e}
		if e.reg != nil {
			core.Stats().Instrument(e.reg)
		}
	} else {
		e.sched = des.Solo(e.sim)
	}
	e.causeLane = make([]string, e.laneCount)
	e.plFree = make([][]*payload, e.laneCount)
	if e.tl != nil {
		e.discAt = make([]des.Time, cfg.Mobile.NumHosts)
		for i := range e.discAt {
			e.discAt[i] = -1
		}
		e.sendOrd = make([]uint64, cfg.Mobile.NumHosts)
		e.flowLane = make([]uint64, e.laneCount)
		e.flowHostLane = make([]mobile.HostID, e.laneCount)
		for i := range e.flowHostLane {
			e.flowHostLane[i] = -1
		}
	}

	n := cfg.Mobile.NumHosts
	hooks := mobile.Hooks{
		OnDeliver: e.onDeliver,
		OnCellSwitch: func(now des.Time, h *mobile.Host, from, to mobile.MSSID) {
			defer e.restoreCauseFor(h.ID, e.setCauseFor(h.ID, "switch"))
			for i, p := range e.protos {
				p.OnCellSwitch(h.ID, to)
				if e.checks != nil {
					e.checks[i].AfterCellSwitch(h.ID)
				}
				if lg := e.mlogs[i]; lg != nil {
					// The message log follows its host like the
					// checkpoints do (§2.2's transfer operation).
					lg.Handoff(h.ID, to)
				}
			}
			if e.tl != nil {
				e.tl.Instant(float64(now), int(h.ID), "handoff",
					"from", strconv.Itoa(int(from)), "to", strconv.Itoa(int(to)))
			}
			e.recordMobility(h.ID, trace.Handoff, from, to, now)
		},
		OnDisconnect: func(now des.Time, h *mobile.Host) {
			defer e.restoreCauseFor(h.ID, e.setCauseFor(h.ID, "disconnect"))
			for i, p := range e.protos {
				p.OnDisconnect(h.ID)
				if e.checks != nil {
					e.checks[i].AfterDisconnect(h.ID)
				}
				if lg := e.mlogs[i]; lg != nil {
					// The disconnection checkpoint makes the host's state
					// durable; the log suffix writes through with it.
					lg.Flush(h.ID)
				}
			}
			if e.tl != nil {
				e.markDisconnected(h.ID, now)
				e.tl.Instant(float64(now), int(h.ID), "disconnect",
					"from", strconv.Itoa(int(h.LastMSS())))
			}
			e.recordMobility(h.ID, trace.Disconnect, h.LastMSS(), mobile.NoMSS, now)
		},
		OnReconnect: func(now des.Time, h *mobile.Host, at mobile.MSSID) {
			defer e.restoreCauseFor(h.ID, e.setCauseFor(h.ID, "reconnect"))
			for i, p := range e.protos {
				p.OnReconnect(h.ID, at)
				if e.checks != nil {
					e.checks[i].AfterReconnect(h.ID)
				}
			}
			if e.tl != nil {
				if start, ok := e.takeDisconnected(h.ID); ok {
					e.tl.Span(float64(start), float64(now-start), int(h.ID), "disconnected")
				}
				e.tl.Instant(float64(now), int(h.ID), "reconnect",
					"at", strconv.Itoa(int(at)))
			}
			e.recordMobility(h.ID, trace.Reconnect, mobile.NoMSS, at, now)
		},
	}
	net, err := mobile.NewSched(e.sched, e.laneCount, cfg.Mobile, hooks)
	if err != nil {
		return nil, err
	}
	if cfg.Mobile.LossProbability > 0 {
		// A dedicated stream: losses must not perturb the workload's
		// randomness, or traces would stop being loss-model-independent.
		net.SetLossSource(rng.NewStream(cfg.Seed, 1<<32))
	}
	if cfg.Probes {
		e.msgProbe = make([]probe.PoolProbe, e.laneCount)
		net.SetPoolProbe(e.msgProbe)
	}
	e.net = net

	mssOf := func(h mobile.HostID) mobile.MSSID { return net.Host(h).LastMSS() }

	e.protos = make([]protocol.Protocol, len(cfg.Protocols))
	e.indexed = make([]bool, len(cfg.Protocols))
	e.stores = make([]*storage.Store, len(cfg.Protocols))
	e.traces = make([]*trace.Trace, len(cfg.Protocols))
	e.mlogs = make([]*mlog.Log, len(cfg.Protocols))
	e.counts = make([][]int, len(cfg.Protocols))
	e.causesLane = make([][]map[string]int64, e.laneCount)
	for l := range e.causesLane {
		e.causesLane[l] = make([]map[string]int64, len(cfg.Protocols))
		for i := range e.causesLane[l] {
			e.causesLane[l][i] = make(map[string]int64)
		}
	}
	if e.reg != nil {
		e.ckptByCause = make([]map[string]*obs.Counter, len(cfg.Protocols))
		e.forcedHost = make([][]*obs.Counter, len(cfg.Protocols))
	}
	for i, name := range cfg.Protocols {
		e.stores[i] = storage.NewStore(cfg.Cost)
		e.counts[i] = make([]int, n)
		if e.reg != nil {
			e.ckptByCause[i] = make(map[string]*obs.Counter)
			if e.core != nil {
				// Pre-create the counters lane handlers may hit, so the
				// cache map is never written concurrently: mobility and
				// delivery events run on lanes, everything else (markers,
				// ticks, joins) runs world-stopped and may still create
				// counters lazily.
				for _, key := range []string{"initial", "forced", "basic-switch", "basic-disconnect"} {
					e.ckptByCause[i][key] = e.reg.Counter("sim_checkpoints_total",
						"proto", string(name), "cause", key)
				}
				e.forcedHost[i] = make([]*obs.Counter, n)
			}
		}
		if cfg.RecordTrace {
			e.traces[i] = trace.New(n)
		}
		if cfg.MessageLog != mlog.Off {
			lg, err := mlog.New(cfg.MessageLog, cfg.LogFlushBatch)
			if err != nil {
				return nil, err
			}
			if e.tl != nil {
				nm := string(name)
				lg.OnFlush = func(h mobile.HostID, entries int) {
					e.tl.Instant(float64(e.sim.Now()), int(h), "log-flush",
						"proto", nm, "entries", strconv.Itoa(entries))
				}
			}
			e.mlogs[i] = lg
		}
		mk, err := protocol.Lookup(string(name))
		if err != nil {
			return nil, err
		}
		e.protos[i] = mk(n, e.checkpointer(i), e.stores[i], mssOf)
		_, e.indexed[i] = e.protos[i].(protocol.Indexed)
	}
	e.recyclers = make([]protocol.Recycler, len(e.protos))
	for i, p := range e.protos {
		if r, ok := p.(protocol.Recycler); ok {
			e.recyclers[i] = r
		}
	}
	if cfg.Checks {
		e.checks = make([]*check.Runtime, len(cfg.Protocols))
		for i, name := range cfg.Protocols {
			e.checks[i] = check.NewRuntime(string(name), e.protos[i], e.stores[i], e.sim.Now)
		}
	}

	e.pendingLatency = make([]des.Time, n)
	e.peakLive = make([]int, len(cfg.Protocols))
	e.gcReclaimed = make([]int, len(cfg.Protocols))
	e.gcFrontier = make([]int, len(cfg.Protocols))
	e.joinCtrl = make([]int64, len(cfg.Protocols))
	cb := workload.Callbacks{
		Send:    e.send,
		Receive: func(h mobile.HostID) bool { return net.TryReceive(h) != nil },
	}
	if cfg.CheckpointLatency > 0 {
		cb.ExtraDelay = func(h mobile.HostID) des.Time {
			d := e.pendingLatency[h]
			e.pendingLatency[h] = 0
			return d
		}
	}
	driver, err := workload.NewDriverSched(e.sched, e.laneCount, net, cfg.Workload, cfg.Seed, cb)
	if err != nil {
		return nil, err
	}
	e.driver = driver

	if e.reg != nil {
		for _, h := range [][2]string{
			{"sim_checkpoints_total", "Checkpoints taken, by protocol and causal event (the paper's N_tot split)."},
			{"sim_forced_checkpoints_total", "Forced checkpoints, by protocol and host."},
			{"sim_piggyback_bytes_total", "Protocol control bytes piggybacked on application messages."},
			{"sim_gc_reclaimed_total", "Checkpoint records reclaimed by garbage collection."},
			{"sim_gc_peak_live_records", "Peak simultaneously-live checkpoint records."},
			{"sim_join_ctrl_messages_total", "Control messages spent integrating joining hosts."},
			{"sim_ctrl_messages_total", "Protocol control messages (initiator-based protocols)."},
			{"sim_tp_vector_copies_total", "O(n) dependency-vector materializations in TP."},
			{"sim_tp_snapshot_reuses_total", "TP sends that shared a live copy-on-write snapshot."},
			{"sim_app_messages_total", "Application messages sent through the network."},
			{"sim_net_ctrl_messages_total", "Network-level control messages (location queries/updates)."},
			{"sim_wireless_hops_total", "Message hops over the wireless medium."},
			{"sim_wired_hops_total", "Message hops over the wired backbone."},
			{"sim_workload_sends_total", "Send operations issued by the workload."},
			{"sim_workload_receives_total", "Receive operations completed by the workload."},
		} {
			e.reg.Help(h[0], h[1])
		}
		// Sampled instruments: the existing tallies are read only at
		// snapshot time, so none of these touch the hot path.
		for i := range cfg.Protocols {
			i := i
			name := string(cfg.Protocols[i])
			e.reg.CounterFunc("sim_piggyback_bytes_total",
				func() int64 { return e.protos[i].PiggybackBytes() }, "proto", name)
			e.reg.CounterFunc("sim_gc_reclaimed_total",
				func() int64 { return int64(e.gcReclaimed[i]) }, "proto", name)
			e.reg.GaugeFunc("sim_gc_peak_live_records",
				func() int64 { return int64(e.peakLive[i]) }, "proto", name)
			e.reg.CounterFunc("sim_join_ctrl_messages_total",
				func() int64 { return e.joinCtrl[i] }, "proto", name)
			if init, ok := e.protos[i].(protocol.Initiator); ok {
				e.reg.CounterFunc("sim_ctrl_messages_total",
					func() int64 { return init.ControlMessages() }, "proto", name)
			}
			if tp, ok := e.protos[i].(*protocol.TP); ok {
				// The copy-on-write snapshot economics (E21): how many
				// O(n) vector materializations actually happened versus
				// sends that shared a live snapshot.
				e.reg.CounterFunc("sim_tp_vector_copies_total",
					func() int64 { c, _ := tp.SnapshotStats(); return c }, "proto", name)
				e.reg.CounterFunc("sim_tp_snapshot_reuses_total",
					func() int64 { _, r := tp.SnapshotStats(); return r }, "proto", name)
			}
			if lg := e.mlogs[i]; lg != nil {
				lg.Instrument(e.reg, "proto", name)
			}
		}
		e.reg.CounterFunc("sim_app_messages_total",
			func() int64 { return e.net.Counters().AppMessages })
		e.reg.CounterFunc("sim_net_ctrl_messages_total",
			func() int64 { return e.net.Counters().CtrlMessages })
		e.reg.CounterFunc("sim_wireless_hops_total",
			func() int64 { return e.net.Counters().WirelessHops })
		e.reg.CounterFunc("sim_wired_hops_total",
			func() int64 { return e.net.Counters().WiredHops })
		e.reg.CounterFunc("sim_workload_sends_total",
			func() int64 { return e.driver.Counters().Sends })
		e.reg.CounterFunc("sim_workload_receives_total",
			func() int64 { return e.driver.Counters().Receives })
		if cfg.Probes {
			e.instrumentProbes()
		}
	}
	return e, nil
}

// instrumentProbes registers the sim_probe_* instruments over the
// engine-internals probes. The probes are plain single-writer cells, so
// these funcs are only safe to sample at quiescence (after Run returns,
// which is when the engine's own snapshot paths read them); a live scrape
// mid-run would race with the lanes.
func (e *engine) instrumentProbes() {
	for _, h := range [][2]string{
		{"sim_probe_pool_hits_total", "Pool acquisitions served from the free list."},
		{"sim_probe_pool_misses_total", "Pool acquisitions that allocated fresh objects."},
		{"sim_probe_pool_recycled_total", "Objects returned to the pool free list."},
		{"sim_probe_queue_pushes_total", "Events pushed into the pending-event set."},
		{"sim_probe_queue_pops_total", "Events popped from the pending-event set."},
		{"sim_probe_queue_peak_len", "Peak pending-event-set length."},
		{"sim_probe_queue_chain_steps_total", "Calendar bucket-chain entries walked on insert."},
		{"sim_probe_queue_sweep_steps_total", "Calendar buckets probed by the day-sweep on pop."},
		{"sim_probe_queue_resizes_total", "Calendar re-bucketing operations."},
		{"sim_probe_lane_events_total", "Events executed across PDES lanes."},
		{"sim_probe_lane_windows_total", "Synchronization windows executed across lanes."},
		{"sim_probe_lane_mailbox_msgs_total", "Cross-lane mailbox messages received."},
		{"sim_probe_lane_spin_yields_total", "Scheduler yields burned waiting on the lag frontier."},
	} {
		e.reg.Help(h[0], h[1])
	}
	pool := func(name string, read func() probe.PoolProbe) {
		e.reg.CounterFunc("sim_probe_pool_hits_total",
			func() int64 { return int64(read().Hits) }, "pool", name)
		e.reg.CounterFunc("sim_probe_pool_misses_total",
			func() int64 { return int64(read().Misses) }, "pool", name)
		e.reg.CounterFunc("sim_probe_pool_recycled_total",
			func() int64 { return int64(read().Recycled) }, "pool", name)
	}
	pool("event", func() probe.PoolProbe { return e.simPool })
	pool("message", func() probe.PoolProbe {
		//probe:merge gauge snapshot into a local; racing shard reads are the probes' documented deal
		var m probe.PoolProbe
		for i := range e.msgProbe {
			m.Merge(e.msgProbe[i])
		}
		return m
	})
	e.reg.CounterFunc("sim_probe_queue_pushes_total",
		func() int64 { return int64(e.simQueue.Pushes) }, "queue", "global")
	e.reg.CounterFunc("sim_probe_queue_pops_total",
		func() int64 { return int64(e.simQueue.Pops) }, "queue", "global")
	e.reg.GaugeFunc("sim_probe_queue_peak_len",
		func() int64 { return int64(e.simQueue.MaxLen) }, "queue", "global")
	e.reg.CounterFunc("sim_probe_queue_chain_steps_total",
		func() int64 { return int64(e.simQueue.ChainSteps) }, "queue", "global")
	e.reg.CounterFunc("sim_probe_queue_sweep_steps_total",
		func() int64 { return int64(e.simQueue.SweepSteps) }, "queue", "global")
	e.reg.CounterFunc("sim_probe_queue_resizes_total",
		func() int64 { return int64(e.simQueue.Resizes) }, "queue", "global")
	if e.coreProbe != nil {
		lanes := func(pick func(*probe.LaneProbe) uint64) func() int64 {
			return func() int64 {
				var s uint64
				for i := range e.coreProbe.Lanes {
					s += pick(&e.coreProbe.Lanes[i])
				}
				return int64(s)
			}
		}
		e.reg.CounterFunc("sim_probe_lane_events_total",
			lanes(func(l *probe.LaneProbe) uint64 { return l.Events }))
		e.reg.CounterFunc("sim_probe_lane_windows_total",
			lanes(func(l *probe.LaneProbe) uint64 { return l.Windows }))
		e.reg.CounterFunc("sim_probe_lane_mailbox_msgs_total",
			lanes(func(l *probe.LaneProbe) uint64 { return l.MailboxMsgs }))
		e.reg.CounterFunc("sim_probe_lane_spin_yields_total",
			lanes(func(l *probe.LaneProbe) uint64 { return l.SpinYields }))
	}
}

// checkpointer builds the Checkpointer for protocol slot i.
func (e *engine) checkpointer(i int) protocol.Checkpointer {
	name := string(e.cfg.Protocols[i])
	return func(h mobile.HostID, index int, kind storage.Kind) *storage.Record {
		lane := e.laneOf(h)
		now := e.now(h)
		rec := e.stores[i].Take(h, e.net.Host(h).LastMSS(), index, kind, now)
		e.counts[i][h]++
		e.pendingLatency[h] += e.cfg.CheckpointLatency
		key := causeKey(kind, e.causeLane[lane])
		e.causesLane[lane][i][key]++
		if e.reg != nil {
			c := e.ckptByCause[i][key]
			if c == nil {
				c = e.reg.Counter("sim_checkpoints_total", "proto", name, "cause", key)
				e.ckptByCause[i][key] = c
			}
			c.Inc()
			if kind == storage.Forced {
				for int(h) >= len(e.forcedHost[i]) {
					e.forcedHost[i] = append(e.forcedHost[i], nil)
				}
				fc := e.forcedHost[i][h]
				if fc == nil {
					fc = e.reg.Counter("sim_forced_checkpoints_total",
						"proto", name, "host", strconv.Itoa(int(h)))
					e.forcedHost[i][h] = fc
				}
				fc.Inc()
			}
		}
		if e.tl != nil {
			e.tl.Instant(float64(now), int(h), "checkpoint",
				"proto", name, "kind", kind.String(), "cause", key,
				"index", strconv.Itoa(index))
			if kind == storage.Forced && e.flowHostLane[lane] == h {
				// This forced checkpoint was induced by the message this
				// lane is currently delivering: chain it into that flow.
				e.tl.FlowStep(float64(now), int(h), "msg-flow", e.flowLane[lane])
			}
		}
		return rec
	}
}

// send runs every protocol's OnSend, assembles the piggyback slots and
// hands the message to the network.
//
//lane:handler
func (e *engine) send(from, to mobile.HostID) {
	prev := e.setCauseFor(from, "send") // restored below; this is the hot path, no defer
	lane := e.laneOf(from)
	var pl *payload
	if free := e.plFree[lane]; len(free) > 0 {
		k := len(free)
		pl = free[k-1]
		free[k-1] = nil
		e.plFree[lane] = free[:k-1]
	} else {
		pl = &payload{piggyback: make([]any, len(e.protos))}
	}
	for i, p := range e.protos {
		pl.piggyback[i] = p.OnSend(from, to)
		if e.checks != nil {
			e.checks[i].AfterSend(from, pl.piggyback[i])
		}
	}
	m, err := e.net.Send(from, to, pl)
	if err != nil {
		panic("sim: " + err.Error()) // the driver only sends from connected hosts
	}
	if e.tl != nil {
		// The flow id is (sender, per-sender ordinal) — deterministic under
		// any engine, unlike m.ID's allocation order — and rides the
		// message to link send -> deliver -> forced checkpoints.
		now := float64(e.now(from))
		flow := uint64(from)<<32 | e.sendOrd[from]
		e.sendOrd[from]++
		m.Flow = flow
		e.tl.Instant(now, int(from), "send",
			"to", strconv.Itoa(int(to)), "msg", strconv.FormatUint(flow, 10))
		e.tl.FlowBegin(now, int(from), "msg-flow", flow,
			"to", strconv.Itoa(int(to)))
	}
	for i, tr := range e.traces {
		if tr != nil {
			tr.RecordSend(m.ID, from, to, e.counts[i][from], e.sim.Now())
		}
	}
	e.restoreCauseFor(from, prev)
}

// onDeliver dispatches a delivered message to every protocol and records
// the receiver-side trace positions (after any forced checkpoint).
//
//lane:handler
func (e *engine) onDeliver(now des.Time, h *mobile.Host, m *mobile.Message) {
	prev := e.setCauseFor(h.ID, "deliver") // restored below; this is the hot path, no defer
	pl := m.Payload.(*payload)
	flow := m.Flow
	if e.tl != nil {
		e.tl.Instant(float64(now), int(h.ID), "deliver",
			"from", strconv.Itoa(int(m.From)), "msg", strconv.FormatUint(flow, 10))
		e.tl.FlowStep(float64(now), int(h.ID), "msg-flow", flow)
		// Stash the in-delivery flow so the checkpointer can chain the
		// forced checkpoints this delivery induces.
		lane := e.laneOf(h.ID)
		e.flowLane[lane] = flow
		e.flowHostLane[lane] = h.ID
	}
	for i, p := range e.protos {
		p.OnDeliver(h.ID, m.From, pl.piggyback[i])
		if e.checks != nil {
			e.checks[i].AfterDeliver(h.ID, m.From, pl.piggyback[i])
		}
		if tr := e.traces[i]; tr != nil {
			tr.RecordDeliver(m.ID, e.counts[i][h.ID], now)
		}
		if lg := e.mlogs[i]; lg != nil {
			// The entry carries the post-forced-checkpoint receiver
			// position, the same position the trace records; pessimistic
			// mode makes it stable before the application proceeds.
			lg.Append(h.ID, m.From, m.ID, e.counts[i][h.ID], now, h.LastMSS())
		}
	}
	// Every consumer (protocols, checker, traces, logs) has seen the
	// message: return the piggybacks, the carrier and the message itself
	// to their pools for the next send.
	for i, pb := range pl.piggyback {
		if r := e.recyclers[i]; r != nil {
			r.Recycle(pb)
		}
		pl.piggyback[i] = nil
	}
	m.Payload = nil
	lane := e.laneOf(h.ID)
	e.plFree[lane] = append(e.plFree[lane], pl)
	e.net.Recycle(m)
	if e.tl != nil {
		e.flowHostLane[lane] = -1
		e.tl.FlowEnd(float64(now), int(h.ID), "msg-flow", flow)
	}
	e.restoreCauseFor(h.ID, prev)
}

// recordMobility mirrors one mobility event into every recorded trace
// (the events are protocol-independent; each trace stays standalone for
// offline analysis).
func (e *engine) recordMobility(h mobile.HostID, kind trace.MobilityKind, from, to mobile.MSSID, now des.Time) {
	for _, tr := range e.traces {
		if tr != nil {
			tr.RecordMobility(h, kind, from, to, now)
		}
	}
}

// scheduleSnapshots drives the coordinated baselines: every period the
// initiator picks its targets and markers travel to currently connected
// hosts (a disconnected host is represented by its disconnection
// checkpoint, §2.2, so it skips the round).
func (e *engine) scheduleSnapshots(i int, init protocol.Initiator) {
	period := e.cfg.SnapshotPeriod
	markerLatency := e.cfg.Mobile.WiredLatency + e.cfg.Mobile.WirelessLatency
	tick := func(sim *des.Simulator, now des.Time) {
		defer e.restoreCauseAll(e.setCauseAll("marker"))
		for _, h := range init.BeginSnapshot() {
			h := h
			// One location query per marker: the paper's drawback (1).
			e.net.Locate(h)
			if !e.net.Host(h).Connected() {
				continue
			}
			sim.ScheduleAfter(markerLatency, "marker", func(sim *des.Simulator, now des.Time) {
				if e.net.Host(h).Connected() {
					defer e.restoreCauseAll(e.setCauseAll("marker"))
					init.OnMarker(h)
					if e.checks != nil {
						e.checks[i].AfterMarker(h)
					}
				}
			})
		}
		sim.Again(period)
	}
	e.sim.Schedule(e.sim.Now()+period, "snapshot", tick)
}

// scheduleTicks drives a Periodic protocol: every SnapshotPeriod each
// connected host takes its timer-driven local checkpoint. No control
// messages travel — the tick is local to the host.
func (e *engine) scheduleTicks(i int, per protocol.Periodic) {
	period := e.cfg.SnapshotPeriod
	tick := func(sim *des.Simulator, now des.Time) {
		defer e.restoreCauseAll(e.setCauseAll("tick"))
		for h := 0; h < e.cfg.Mobile.NumHosts; h++ {
			if e.net.Host(mobile.HostID(h)).Connected() {
				per.OnTick(mobile.HostID(h))
				if e.checks != nil {
					e.checks[i].AfterTick(mobile.HostID(h))
				}
			}
		}
		sim.Again(period)
	}
	e.sim.Schedule(e.sim.Now()+period, "tick", tick)
}

// scheduleGC periodically reclaims unreachable checkpoints from every
// index-based protocol's store (E11). Garbage collection is sound only
// for protocols whose recovery lines are index cuts, so other protocols
// are skipped.
func (e *engine) scheduleGC() {
	tick := func(sim *des.Simulator, now des.Time) {
		// The frontier must cover every current host: a host joined after
		// Start sits at a low index, and pruning past it would destroy the
		// lines its failure still needs.
		n := e.net.NumHosts()
		for i, indexed := range e.indexed {
			if !indexed {
				continue
			}
			if stable := recovery.StableIndex(e.stores[i], n); stable > e.gcFrontier[i] {
				e.gcFrontier[i] = stable
			}
			records, _ := recovery.CollectGarbage(e.stores[i], n)
			e.gcReclaimed[i] += records
			if live := e.stores[i].LiveRecords(-1); live > e.peakLive[i] {
				e.peakLive[i] = live
			}
			if lg := e.mlogs[i]; lg != nil {
				// The message log shares the frontier: an entry whose
				// receive precedes the earliest checkpoint any future
				// recovery line restores for its host can never be
				// replayed, so its stable storage is reclaimed with the
				// checkpoints'.
				stable := recovery.StableIndex(e.stores[i], n)
				for h := 0; h < n; h++ {
					if keep := e.stores[i].FirstWithIndexAtLeast(mobile.HostID(h), stable); keep != nil {
						lg.PruneDelivered(mobile.HostID(h), keep.Ordinal)
					}
				}
			}
		}
		sim.Again(e.cfg.GCInterval)
	}
	e.sim.Schedule(e.sim.Now()+e.cfg.GCInterval, "gc", tick)
}

// join admits one new host: into the network, into every protocol (via
// Dynamic) and into the workload. Hosts joining mid-run immediately
// communicate and roam like any other.
func (e *engine) join() {
	defer e.restoreCauseAll(e.setCauseAll("join"))
	if e.joinRNG == nil {
		// Stream ids: host i owns 2i/2i+1, the loss model owns 1<<32;
		// (1<<33)+1 collides with none of them at any feasible n.
		e.joinRNG = rng.NewStream(e.cfg.Seed, (1<<33)+1)
	}
	at := mobile.MSSID(e.joinRNG.Intn(e.cfg.Mobile.NumMSS))
	id, err := e.net.AddHost(at)
	if err != nil {
		panic("sim: " + err.Error())
	}
	if e.tl != nil {
		e.tl.SetTrack(int(id), fmt.Sprintf("MH %d (joined)", id))
		e.tl.Instant(float64(e.sim.Now()), int(id), "join",
			"at", strconv.Itoa(int(at)))
		// Joins run world-stopped: grow the per-host timeline tables here
		// so lane handlers never reallocate them mid-run.
		for int(id) >= len(e.sendOrd) {
			e.sendOrd = append(e.sendOrd, 0)
		}
		for int(id) >= len(e.discAt) {
			e.discAt = append(e.discAt, -1)
		}
	}
	e.pendingLatency = append(e.pendingLatency, 0)
	if e.reg != nil && e.core != nil {
		// Joins run world-stopped: grow the per-host counter tables here so
		// the lanes never reallocate them mid-run.
		for i := range e.forcedHost {
			for int(id) >= len(e.forcedHost[i]) {
				e.forcedHost[i] = append(e.forcedHost[i], nil)
			}
		}
	}
	for i, p := range e.protos {
		d, ok := p.(protocol.Dynamic)
		if !ok {
			panic(fmt.Sprintf("sim: protocol %s does not support dynamic joins", e.cfg.Protocols[i]))
		}
		e.counts[i] = append(e.counts[i], 0)
		e.joinCtrl[i] += d.OnJoin(id)
		if e.checks != nil {
			e.checks[i].AfterJoin(id)
		}
		if tr := e.traces[i]; tr != nil {
			tr.AddHost()
		}
	}
	e.driver.AddHost(id, e.cfg.Seed)
}

// run executes the configured horizon and assembles the result.
func (e *engine) run() *Result {
	if e.tl != nil {
		for h := 0; h < e.cfg.Mobile.NumHosts; h++ {
			e.tl.SetTrack(h, fmt.Sprintf("MH %d", h))
		}
	}
	func() {
		defer e.restoreCauseAll(e.setCauseAll("init"))
		for i, p := range e.protos {
			p.Init()
			if e.checks != nil {
				e.checks[i].AfterInit(e.cfg.Mobile.NumHosts)
			}
		}
	}()
	for i, p := range e.protos {
		if init, ok := p.(protocol.Initiator); ok {
			e.scheduleSnapshots(i, init)
		}
		if per, ok := p.(protocol.Periodic); ok {
			e.scheduleTicks(i, per)
		}
	}
	if e.cfg.GCInterval > 0 {
		e.scheduleGC()
	}
	for _, at := range e.cfg.JoinTimes {
		e.sim.At(at, "join", func(sim *des.Simulator, now des.Time) {
			e.join()
		})
	}
	if e.cfg.Progress != nil {
		every := e.cfg.ProgressEvery
		if every == 0 {
			every = e.cfg.Horizon / 10
		}
		if every > 0 {
			beat := func(sim *des.Simulator, now des.Time) {
				e.cfg.Progress(now, sim.Fired())
				if now+every <= e.cfg.Horizon {
					sim.Again(every)
				}
			}
			e.sim.Schedule(every, "progress", beat)
		}
	}
	e.driver.Start()
	if e.core != nil {
		// The lanes execute the world; the coordinator interleaves the
		// global timeline (markers, ticks, GC, joins) world-stopped. The
		// post-run drain fires the global tail — timer events past the last
		// lane event but at or before the horizon.
		e.inGlobalPhase = false
		e.core.Run()
		e.inGlobalPhase = true
	}
	e.sim.Run(e.cfg.Horizon)

	fired := e.sim.Fired()
	if e.core != nil {
		fired += e.core.Fired()
	}
	res := &Result{
		Config:      e.cfg,
		Network:     e.net.Counters(),
		Workload:    e.driver.Counters(),
		FinalHosts:  e.net.NumHosts(),
		EventsFired: fired,
	}
	if e.core != nil {
		snap := e.core.Stats().Snapshot()
		res.PDES = &snap
	}
	if e.cfg.Probes {
		res.Probes = e.probeReport()
	}
	model := energy.DefaultModel()
	for i, p := range e.protos {
		pr := protocolResult(p, e.stores[i], e.traces[i], e.mlogs[i])
		if init, ok := p.(protocol.Initiator); ok {
			pr.CtrlMessages = init.ControlMessages()
		}
		causes := make(map[string]int64)
		for l := range e.causesLane {
			for k, v := range e.causesLane[l][i] {
				causes[k] += v
			}
		}
		pr.Causes = causes
		pr.PeakLiveRecords = e.peakLive[i]
		pr.GCReclaimedRecords = e.gcReclaimed[i]
		pr.JoinCtrlMessages = e.joinCtrl[i]
		pr.Energy = energy.Assess(model, res.Network, pr.Storage, pr.PiggybackBytes)
		res.Protocols = append(res.Protocols, pr)
	}
	return res
}

// probeReport assembles Result.Probes from the quiesced probe cells.
// Only called after the lanes have joined (run's tail), so the plain
// reads are ordered by the goroutine join.
//
//probe:merge runs after the lanes have joined; the run is quiescent
func (e *engine) probeReport() *ProbeReport {
	r := &ProbeReport{
		Engine:      e.cfg.Engine.String(),
		Lanes:       e.laneCount,
		GlobalQueue: e.simQueue,
		EventPool:   e.simPool,
	}
	for i := range e.msgProbe {
		r.MessagePool.Merge(e.msgProbe[i])
	}
	if e.coreProbe != nil {
		r.LaneProbes = e.coreProbe.Lanes
		r.LaneQueues = e.coreProbe.Queues
	}
	return r
}

// protocolResult assembles the checkpoint tallies and the raw material of
// one protocol slot, shared by the generative and the replay engine.
func protocolResult(p protocol.Protocol, store *storage.Store, tr *trace.Trace, lg *mlog.Log) ProtocolResult {
	initial, basic, forced := store.CountByKind(-1)
	pr := ProtocolResult{
		Name:           ProtocolName(p.Name()),
		Ntot:           int64(basic + forced),
		Initial:        int64(initial),
		Basic:          int64(basic),
		Forced:         int64(forced),
		PiggybackBytes: p.PiggybackBytes(),
		Storage:        store.Counters(),
		Store:          store,
		Trace:          tr,
		MLog:           lg,
		Instance:       p,
	}
	if lg != nil {
		pr.Log = lg.Counters()
	}
	return pr
}

// reconcile is the end-of-run check of one protocol slot, shared by the
// generative and the replay engine: the invariant checker's own
// reconciliation against counts (the engine's per-host checkpoint
// tally), the Ntot arithmetic, one initial checkpoint per (possibly
// joined) host, the log/trace reconciliation, and — for index-based
// protocols with a recorded trace — the recovery-line sweep over every
// index from minIndex up.
func reconcile(ck *check.Runtime, counts []int, pr *ProtocolResult, finalHosts, minIndex int, now des.Time) check.Violations {
	vs := ck.Finish(counts)
	name := string(pr.Name)
	if pr.Ntot != pr.Basic+pr.Forced {
		vs = append(vs, &check.Violation{
			Protocol: name, Time: now, Rule: "reconcile",
			Detail: fmt.Sprintf("Ntot %d != basic %d + forced %d", pr.Ntot, pr.Basic, pr.Forced),
		})
	}
	if pr.Initial != int64(finalHosts) {
		vs = append(vs, &check.Violation{
			Protocol: name, Time: now, Rule: "reconcile",
			Detail: fmt.Sprintf("%d initial checkpoints for %d hosts", pr.Initial, finalHosts),
		})
	}
	if pr.Trace != nil && pr.MLog != nil {
		vs = append(vs, check.LogReconciliation(name, pr.MLog, pr.Trace, finalHosts)...)
	}
	if _, indexed := pr.Instance.(protocol.Indexed); indexed && pr.Trace != nil {
		vs = append(vs, check.RecoveryLines(name, pr.Store, pr.Trace, finalHosts, minIndex)...)
	}
	return vs
}
