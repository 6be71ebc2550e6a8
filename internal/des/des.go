// Package des implements a deterministic discrete-event simulation engine.
//
// The engine is a classic event-wheel design: a priority queue of timed
// events, a virtual clock, and a run loop that pops the earliest event and
// invokes its handler. Handlers schedule further events; the simulation
// ends when the queue drains or the horizon is reached.
//
// Determinism matters here more than in a general-purpose DES: the study
// compares checkpointing protocols on *identical* executions, so ties in
// virtual time must break the same way on every run. Events therefore
// carry a monotonically increasing sequence number used as a tiebreaker
// (FIFO among simultaneous events).
//
// The pending-event set lives behind the equeue.Queue interface with two
// interchangeable implementations (see internal/des/equeue): the binary
// heap is the reference, and Brown's calendar queue trades O(log n) for
// O(1) amortized scheduling under million-event churn. Both realize the
// same (time, seq) total order, so a simulation is bit-identical on
// either; QueueKind selects one at construction.
//
// The engine distinguishes two scheduling disciplines:
//
//   - At/After return a *Event the caller may hold, inspect and Cancel.
//     Those events are never reused, so a retained handle stays valid (a
//     Cancel after the event fired is a harmless no-op).
//   - Schedule/ScheduleAfter/ScheduleArg/ScheduleArgAfter are
//     fire-and-forget: the event is drawn from a per-simulator free list
//     and recycled as soon as its handler returns, so the steady-state
//     hot loop allocates nothing (TestHotLoopZeroAlloc). Combined with
//     Again/Reschedule — which move an event in place instead of a
//     pop/push pair — periodic processes run allocation-free.
package des

import (
	"fmt"

	"mobickpt/internal/des/equeue"
	"mobickpt/internal/obs"
	"mobickpt/internal/obs/probe"
)

// Time is virtual simulation time, in the paper's abstract "time units".
type Time float64

// Handler is the callback invoked when an event fires. It receives the
// simulator (to schedule follow-up events) and the event's firing time.
type Handler func(sim *Simulator, now Time)

// ArgHandler is a handler that additionally receives the opaque argument
// given at scheduling time. It exists so hot paths can reuse one stored
// handler for many events instead of allocating a fresh closure per
// event (the argument carries the per-event state).
type ArgHandler func(sim *Simulator, now Time, arg any)

// Event is a scheduled occurrence. Events created by At/After are managed
// by the Simulator; user code holds *Event only to Cancel or Reschedule
// it. Events created by the Schedule* methods are pool-owned and never
// escape to callers.
type Event struct {
	ent     equeue.Entry // (at, seq) plus the queue's intrusive bookkeeping
	handler Handler
	argFn   ArgHandler
	arg     any
	label   string
	owner   *Simulator // the simulator that created the event
	free    *Event     // free-list link (pooled events only)
	pooled  bool
}

// Time returns the virtual time at which the event is scheduled to fire.
func (e *Event) Time() Time { return Time(e.ent.At) }

// Label returns the diagnostic label given at scheduling time.
func (e *Event) Label() string { return e.label }

// Pending reports whether the event is still queued (not fired, not
// canceled). A zero-value Event was never scheduled and reports false.
func (e *Event) Pending() bool { return e != nil && e.owner != nil && e.ent.Queued() }

// QueueKind selects the pending-event set implementation. The zero value
// is the binary heap, so existing configurations keep their behavior.
type QueueKind int

const (
	// QueueHeap is the reference binary min-heap (equeue.Heap).
	QueueHeap QueueKind = iota
	// QueueCalendar is Brown's calendar queue (equeue.Calendar): O(1)
	// amortized scheduling under large stationary event populations.
	QueueCalendar
)

// String returns the kind's config-file spelling.
func (k QueueKind) String() string {
	switch k {
	case QueueCalendar:
		return "calendar"
	default:
		return "heap"
	}
}

// ParseQueueKind maps a config-file spelling back to a QueueKind. The
// empty string selects the default (heap).
func ParseQueueKind(s string) (QueueKind, error) {
	switch s {
	case "", "heap":
		return QueueHeap, nil
	case "calendar":
		return QueueCalendar, nil
	default:
		return QueueHeap, fmt.Errorf("des: unknown queue kind %q (want heap or calendar)", s)
	}
}

// Simulator owns the virtual clock and the event queue.
type Simulator struct {
	now     Time
	queue   equeue.Queue
	kind    QueueKind
	seq     uint64
	fired   uint64
	running bool

	cur  *Event // event whose handler is currently executing (Again target)
	free *Event // free list of recycled pooled events

	// Observability (nil unless Instrument was called): firing counts per
	// event label, cached so the hot loop pays one map lookup per event
	// only when metrics are enabled.
	reg         *obs.Registry
	labelCounts map[string]*obs.Counter

	// probe counts event-pool traffic (nil unless EnableProbe was called).
	probe *probe.PoolProbe
}

// New returns a simulator with the clock at 0, an empty queue, and the
// reference heap as the pending-event set.
func New() *Simulator { return NewWith(QueueHeap) }

// NewWith returns a simulator using the given pending-event set
// implementation. The simulation result is independent of the choice;
// only the scheduling cost profile changes.
func NewWith(kind QueueKind) *Simulator {
	var q equeue.Queue
	switch kind {
	case QueueCalendar:
		q = equeue.NewCalendar()
	default:
		kind = QueueHeap
		q = equeue.NewHeap()
	}
	return &Simulator{queue: q, kind: kind}
}

// QueueKind returns the pending-event set implementation in use.
func (s *Simulator) QueueKind() QueueKind { return s.kind }

// Instrument registers the engine's observability instruments with reg:
// total events fired, current queue depth, and per-label firing counts
// (des_events_by_label_total). A nil reg leaves the engine uninstrumented
// — the hot loop then skips metrics entirely.
func (s *Simulator) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.reg = reg
	s.labelCounts = make(map[string]*obs.Counter)
	reg.Help("des_events_fired_total", "Events the discrete-event engine has executed.")
	reg.Help("des_queue_depth", "Events currently pending in the event queue.")
	reg.Help("des_events_by_label_total", "Events executed, by event label.")
	reg.CounterFunc("des_events_fired_total", func() int64 { return int64(s.fired) })
	reg.GaugeFunc("des_queue_depth", func() int64 { return int64(s.queue.Len()) })
}

// EnableProbe attaches engine-internals probes: pool counts event-pool
// traffic (free-list hits, fresh allocations, recycles) and queue, when
// non-nil, is handed to the pending-event set for its structural
// counters. Probes follow the engine's single-threaded discipline; read
// them only once Run has returned. Passing nil pointers detaches.
func (s *Simulator) EnableProbe(pool *probe.PoolProbe, queue *probe.QueueProbe) {
	s.probe = pool
	if pq, ok := s.queue.(equeue.Probed); ok {
		pq.SetProbe(queue)
	}
}

// countLabel tallies one fired event by label (metrics enabled only).
func (s *Simulator) countLabel(label string) {
	c := s.labelCounts[label]
	if c == nil {
		c = s.reg.Counter("des_events_by_label_total", "label", label)
		s.labelCounts[label] = c
	}
	c.Inc()
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Fired returns the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of queued events.
func (s *Simulator) Pending() int { return s.queue.Len() }

// checkAt validates an absolute scheduling time against the clock.
func (s *Simulator) checkAt(at Time, label string) {
	if at < s.now {
		panic(fmt.Sprintf("des: scheduling %q at %v before now %v", label, at, s.now))
	}
}

// acquire returns an event ready to be queued: recycled from the free
// list for pooled events, freshly allocated otherwise.
//
//probe:writer the simulator loop is single-threaded; it owns its pool probe
func (s *Simulator) acquire(at Time, label string, pooled bool) *Event {
	var e *Event
	if pooled && s.free != nil {
		e = s.free
		s.free = e.free
		e.free = nil
		if s.probe != nil {
			s.probe.Hits++
		}
	} else {
		e = &Event{}
		e.ent.E = e
		if s.probe != nil && pooled {
			s.probe.Misses++
		}
	}
	e.ent.At = float64(at)
	e.ent.Seq = s.seq
	e.label = label
	e.owner = s
	e.pooled = pooled
	s.seq++
	return e
}

// recycle returns a fired (or canceled) pooled event to the free list,
// dropping references so handlers and arguments do not outlive the event.
//
//probe:writer the simulator loop is single-threaded; it owns its pool probe
func (s *Simulator) recycle(e *Event) {
	e.handler = nil
	e.argFn = nil
	e.arg = nil
	e.label = ""
	e.free = s.free
	s.free = e
	if s.probe != nil {
		s.probe.Recycled++
	}
}

// At schedules handler to run at absolute time at. Scheduling in the past
// panics: it would silently reorder causality. The returned event stays
// valid indefinitely (it is never pooled), so callers may retain it to
// Cancel or Reschedule later.
func (s *Simulator) At(at Time, label string, handler Handler) *Event {
	s.checkAt(at, label)
	if handler == nil {
		panic("des: nil handler")
	}
	e := s.acquire(at, label, false)
	e.handler = handler
	s.queue.Push(&e.ent)
	return e
}

// After schedules handler to run delay time units from now.
func (s *Simulator) After(delay Time, label string, handler Handler) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %v for %q", delay, label))
	}
	return s.At(s.now+delay, label, handler)
}

// Schedule is the fire-and-forget variant of At: the event is drawn from
// the simulator's free list and recycled as soon as its handler returns,
// so the steady-state cost is zero allocations. No handle is returned —
// use At when the event may need canceling.
func (s *Simulator) Schedule(at Time, label string, handler Handler) {
	s.checkAt(at, label)
	if handler == nil {
		panic("des: nil handler")
	}
	e := s.acquire(at, label, true)
	e.handler = handler
	s.queue.Push(&e.ent)
}

// ScheduleAfter is the fire-and-forget variant of After.
func (s *Simulator) ScheduleAfter(delay Time, label string, handler Handler) {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %v for %q", delay, label))
	}
	s.Schedule(s.now+delay, label, handler)
}

// ScheduleArg schedules a pooled event that invokes fn with arg. Storing
// the per-event state in arg lets hot paths reuse one long-lived fn for
// every event instead of allocating a closure per event.
func (s *Simulator) ScheduleArg(at Time, label string, fn ArgHandler, arg any) {
	s.checkAt(at, label)
	if fn == nil {
		panic("des: nil handler")
	}
	e := s.acquire(at, label, true)
	e.argFn = fn
	e.arg = arg
	s.queue.Push(&e.ent)
}

// ScheduleArgKeyed is ScheduleArg with a caller-supplied tie-break key
// in place of the FIFO sequence number. The parallel engine orders each
// lane's events by (time, emitter key) — a pure function of the event
// population — and the sequential engine must break ties identically for
// a parallel run to be bit-identical to it, which insertion order cannot
// provide (it is not reconstructible across lanes). Keys carry bit 63
// (see KeyFor), so among simultaneous events every FIFO-numbered event
// fires before every keyed one — the same global-first rule the parallel
// drivers apply between the global timeline and the lanes.
func (s *Simulator) ScheduleArgKeyed(at Time, key uint64, label string, fn ArgHandler, arg any) {
	s.checkAt(at, label)
	if fn == nil {
		panic("des: nil handler")
	}
	e := s.acquire(at, label, true)
	e.ent.Seq = key
	e.argFn = fn
	e.arg = arg
	s.queue.Push(&e.ent)
}

// ScheduleArgAfter is ScheduleArg with a relative delay.
func (s *Simulator) ScheduleArgAfter(delay Time, label string, fn ArgHandler, arg any) {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %v for %q", delay, label))
	}
	s.ScheduleArg(s.now+delay, label, fn, arg)
}

// Reschedule moves event e to absolute time at. A pending event is moved
// in place — the pop-reschedule-push fast path — and an event that
// already fired or was canceled is re-queued (reusing its storage).
// Either way the event receives a fresh FIFO sequence number, so among
// simultaneous events it fires after ones already queued. It panics on
// events from another simulator, on recycled pooled events, and on times
// before the clock (matching At's contract).
func (s *Simulator) Reschedule(e *Event, at Time) {
	if e == nil || e.owner != s {
		panic("des: Reschedule of an event this simulator does not own")
	}
	if e.handler == nil && e.argFn == nil {
		panic("des: Reschedule of a recycled event")
	}
	s.checkAt(at, e.label)
	e.ent.At = float64(at)
	e.ent.Seq = s.seq
	s.seq++
	if e.ent.Queued() {
		s.queue.Fix(&e.ent)
	} else {
		s.queue.Push(&e.ent)
	}
}

// Again reschedules the event whose handler is currently executing to
// fire again delay time units from now. It is the allocation-free way
// for a periodic process to sustain itself (the firing event is re-queued
// before the run loop would recycle it). Panics outside a handler.
func (s *Simulator) Again(delay Time) {
	if s.cur == nil {
		panic("des: Again called outside an event handler")
	}
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %v for %q", delay, s.cur.label))
	}
	s.Reschedule(s.cur, s.now+delay)
}

// Cancel removes a pending event from the queue. Canceling an event that
// already fired (or was already canceled) is a no-op and returns false,
// as is canceling nil, a zero-value Event, or an event owned by another
// simulator — none of these can corrupt the queue's bookkeeping (each
// queue verifies the handle by identity before unlinking anything).
func (s *Simulator) Cancel(e *Event) bool {
	if e == nil || e.owner != s {
		return false
	}
	if !s.queue.Remove(&e.ent) {
		return false
	}
	if e.pooled {
		s.recycle(e)
	}
	return true
}

// fire executes one popped event and recycles it if it is pool-owned and
// was not rescheduled by its own handler (Again/Reschedule re-queue it,
// which shows as the entry being queued again).
func (s *Simulator) fire(e *Event) {
	s.now = Time(e.ent.At)
	s.fired++
	if s.labelCounts != nil {
		s.countLabel(e.label)
	}
	s.cur = e
	if e.handler != nil {
		e.handler(s, s.now)
	} else {
		e.argFn(s, s.now, e.arg)
	}
	s.cur = nil
	if e.pooled && !e.ent.Queued() {
		s.recycle(e)
	}
}

// Run executes events until the queue is empty or the horizon is passed.
// Events scheduled exactly at the horizon still fire; later ones stay
// queued. It returns the number of events fired by this call.
//
// Run rejects misuse with a descriptive panic (matching At's contract):
// calling it from inside an event handler (re-entrancy would corrupt the
// clock), a negative horizon, or a horizon before the current clock
// (which would silently fire nothing and desynchronize repeated-Run
// callers).
func (s *Simulator) Run(horizon Time) uint64 {
	if s.running {
		panic("des: re-entrant Run (called from inside an event handler)")
	}
	if horizon < 0 {
		panic(fmt.Sprintf("des: negative horizon %v", horizon))
	}
	if horizon < s.now {
		panic(fmt.Sprintf("des: horizon %v before current time %v", horizon, s.now))
	}
	s.running = true
	defer func() { s.running = false }()
	start := s.fired
	for {
		ent := s.queue.Pop()
		if ent == nil {
			break
		}
		if ent.At > float64(horizon) {
			// Past the horizon: put it back (same time and seq, so it
			// returns to exactly the position it held) and stop.
			s.queue.Push(ent)
			break
		}
		s.fire(ent.E.(*Event))
	}
	if s.now < horizon && s.queue.Len() == 0 {
		// Advance the clock to the horizon so repeated Run calls with
		// increasing horizons behave like one continuous run.
		s.now = horizon
	}
	return s.fired - start
}

// NextTime returns the firing time of the earliest pending event, or
// false when the queue is empty. It never fires anything; the parallel
// kernel uses it to interleave the global timeline with the lanes.
func (s *Simulator) NextTime() (Time, bool) {
	ent := s.queue.Peek()
	if ent == nil {
		return 0, false
	}
	return Time(ent.At), true
}

// Step executes exactly one event if any is queued, regardless of horizon,
// and reports whether an event fired.
func (s *Simulator) Step() bool {
	ent := s.queue.Pop()
	if ent == nil {
		return false
	}
	s.fire(ent.E.(*Event))
	return true
}
