package pdes

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"mobickpt/internal/des"
	"mobickpt/internal/des/equeue"
	"mobickpt/internal/obs"
	"mobickpt/internal/obs/probe"
)

func toBits(f float64) uint64   { return math.Float64bits(f) }
func fromBits(b uint64) float64 { return math.Float64frombits(b) }

// opoint is a published (time, key) order point: a position in the
// engine's (At, Seq) total order that other lanes read lock-free. Time
// alone cannot order simultaneous events, and the world ties constantly
// (constant latencies, periodic timers), so every synchronization
// point the bounded-lag driver compares must carry its tie-break key —
// two lanes holding tied shared-state writes would otherwise each park
// on the other's time-equal horizon forever.
//
// Each opoint has exactly one writer at a time (the owning lane, or a
// mutex-serialized mailbox sender), so a seqlock publishes the pair
// without locking readers: writers bump seq odd, store both words, bump
// seq even; readers retry until they observe a stable even sequence.
type opoint struct {
	seq atomic.Uint64
	t   atomic.Uint64
	k   atomic.Uint64
}

func (p *opoint) store(t float64, k uint64) {
	s := p.seq.Load()
	p.seq.Store(s + 1)
	p.t.Store(toBits(t))
	p.k.Store(k)
	p.seq.Store(s + 2)
}

func (p *opoint) load() (float64, uint64) {
	for {
		s := p.seq.Load()
		t := fromBits(p.t.Load())
		k := p.k.Load()
		if s&1 == 0 && p.seq.Load() == s {
			return t, k
		}
	}
}

// timePart reads just the time word — a torn (t, stale k) pair is
// acceptable where only the time matters (coordinator sampling).
func (p *opoint) timePart() float64 { return fromBits(p.t.Load()) }

// pointLess is the lexicographic (time, key) order — the same total
// order entryBefore imposes inside each queue, extended across lanes.
func pointLess(t1 float64, k1 uint64, t2 float64, k2 uint64) bool {
	if t1 != t2 {
		return t1 < t2
	}
	return k1 < k2
}

// CoreConfig configures the world-model lane driver.
type CoreConfig struct {
	// Mode is ModeConservative (barrier windows) or ModeTimeWarp (the
	// asynchronous bounded-lag driver).
	Mode Mode
	// Lanes is the number of logical processes P. Owners (hosts) map to
	// lanes by owner % P.
	Lanes int
	// Queue selects the per-lane pending-event set implementation.
	Queue des.QueueKind
	// Horizon is the inclusive virtual-time bound: events at exactly
	// Horizon still fire, later ones stay queued.
	Horizon des.Time
	// Lookahead is the minimum virtual-time delay of any cross-lane
	// message (the wireless uplink latency for this world). Must be
	// positive: it is the entire progress window of both modes.
	Lookahead des.Time
	// GlobalNext/GlobalStep interleave a serial global timeline
	// (markers, ticks, GC, joins) with the lanes: GlobalNext peeks the
	// earliest pending global event, GlobalStep executes exactly one.
	// The global timeline runs world-stopped — every lane is parked at
	// or beyond the global event's time — so global handlers may touch
	// any state. Both nil when there is no global timeline.
	GlobalNext func() (des.Time, bool)
	GlobalStep func()
	// Timeline, when non-nil, receives lane-level spans (windows,
	// serialized write steps, global events) emitted by the coordinator.
	// All content is virtual-time stamped, but which spans exist depends
	// on the mode and lane count — this is an engine-internals surface,
	// distinct from the engine-independent per-host timeline the world
	// model keeps.
	Timeline *obs.Timeline
	// Probe, when non-nil, receives per-lane internals counters; NewCore
	// sizes its slices to Lanes and attaches the queue probes. Read it
	// only after Run has returned.
	Probe *CoreProbe
}

// CoreProbe is the lane-indexed internals instrumentation of one core
// run: per-lane execution shape and per-lane pending-event-set
// structure. Each slice element is written only by its lane's goroutine
// (or the world-stopped coordinator); readers wait for Run to return.
type CoreProbe struct {
	Lanes  []probe.LaneProbe  `json:"lanes"`
	Queues []probe.QueueProbe `json:"queues"`
}

// laneEvent is one lane-queued occurrence. The equeue entry's Seq field
// carries the deterministic ordering key (des.KeyFor: bit 63, emitter,
// per-emitter ordinal) instead of a global insertion counter, so the
// (At, Seq) order every lane executes is a pure function of the event
// population — independent of which goroutine inserted what first.
type laneEvent struct {
	ent   equeue.Entry
	fn    des.ArgHandler
	arg   any
	write bool
	free  *laneEvent
}

// whEntry is one pending shared-state write in a lane's write-horizon
// heap, ordered by pointLess.
type whEntry struct {
	t float64
	k uint64
}

// lane is one logical process: an event queue, a mailbox for cross-lane
// arrivals, a min-heap of pending shared-state write points, and the
// three published order points the other lanes synchronize on.
// The guardlint contract below encodes the ownership story: everything
// except the mailbox belongs to the lane's own goroutine (or to the
// coordinator while the lane is provably parked — a hand-off no mutex
// can witness, hence //guard:none with the reason); only box, the one
// structure written by *other* goroutines, takes the mutex.
type lane struct {
	//guard:none immutable after NewCore
	id int

	//guard:none owned by the lane goroutine; the coordinator touches it only while the lane is parked
	q equeue.Queue

	//guard:none per-goroutine event pool, same ownership as q
	free *laneEvent

	// lvt is the time of the executing (or last executed) event.
	//
	//guard:none written only by the goroutine executing this lane's events
	lvt des.Time

	// ord holds per-owned-emitter ordinals (emitter e at index e/P).
	//
	//guard:none grown only single-threaded (before Run or world-stopped); ordinal bumps are owner-lane
	ord []uint32

	//guard:none owner-lane write-horizon heap
	wh []whEntry

	// cmd carries conservative-mode window bound broadcasts.
	//
	//guard:none channel operations synchronize themselves
	cmd chan float64

	// fired counts events executed on this lane (flushed to Stats at
	// stop).
	//
	//guard:none owner-lane counter, read by the coordinator only after the lanes joined
	fired uint64

	// probe is nil unless CoreConfig.Probe was set.
	//
	//guard:none set at construction; the pointed-to shard is owner-lane
	probe *probe.LaneProbe

	mu sync.Mutex

	//guard:mu
	box []*laneEvent

	// Published frontier (seqlock pairs; padded below against false
	// sharing with neighbours):
	//
	//   nextPub — the lane will never (re)execute an event ordering
	//             below this point. Held at the current event's point
	//             for the whole execution, raised only between events.
	//   mailMin — earliest undrained mailbox arrival (+Inf when empty).
	//   writeHz — earliest pending shared-state write (+Inf when none).
	//
	// The invariant every operation preserves: min(nextPub, mailMin) is
	// never above any event this lane has not finished executing.
	//
	//guard:none seqlock-published opoint; see the struct comment above
	nextPub opoint

	//guard:none seqlock-published; the mailbox fold in append runs under mu or world-stopped
	mailMin opoint

	//guard:none seqlock-published, same discipline as mailMin
	writeHz opoint

	_ [56]byte
}

// frontier returns the lane's published execution promise: the
// pointLess-minimum of nextPub and mailMin.
func (l *lane) frontier() (float64, uint64) {
	nt, nk := l.nextPub.load()
	mt, mk := l.mailMin.load()
	if pointLess(mt, mk, nt, nk) {
		return mt, mk
	}
	return nt, nk
}

// append delivers a cross-lane (or global-phase) event into the
// mailbox, folding its time into the published mailMin — and, for
// shared-state writes, into writeHz, so no other lane can race past the
// pending write before the owner has even drained it. Write events
// reach this path only from the world-stopped global phase, so the
// writeHz store cannot race the owner's own stores.
func (l *lane) append(ev *laneEvent) {
	l.mu.Lock()
	l.box = append(l.box, ev)
	if mt, mk := l.mailMin.load(); pointLess(ev.ent.At, ev.ent.Seq, mt, mk) {
		l.mailMin.store(ev.ent.At, ev.ent.Seq)
	}
	if ev.write {
		if wt, wk := l.writeHz.load(); pointLess(ev.ent.At, ev.ent.Seq, wt, wk) {
			l.writeHz.store(ev.ent.At, ev.ent.Seq)
		}
	}
	l.mu.Unlock()
}

// drain moves mailbox arrivals into the queue. The whole move runs
// under the mailbox lock with a careful store order — push everything,
// lower nextPub to the new queue minimum, only then reset mailMin — so
// at no instant does the published frontier rise above a pending event.
//
//probe:writer each lane goroutine owns its own lane probe shard
func (l *lane) drain() {
	l.mu.Lock()
	if len(l.box) == 0 {
		l.mu.Unlock()
		return
	}
	if p := l.probe; p != nil {
		p.MailboxMsgs += uint64(len(l.box))
		if len(l.box) > p.MailboxPeak {
			p.MailboxPeak = len(l.box)
		}
	}
	for _, ev := range l.box {
		l.q.Push(&ev.ent)
		if ev.write {
			l.whPush(ev.ent.At, ev.ent.Seq)
		}
	}
	for i := range l.box {
		l.box[i] = nil
	}
	l.box = l.box[:0]
	e := l.q.Peek()
	l.nextPub.store(e.At, e.Seq)
	l.mailMin.store(math.Inf(1), 0)
	l.mu.Unlock()
}

// whPush records a pending shared-state write point and republishes the
// write horizon.
func (l *lane) whPush(t float64, k uint64) {
	l.wh = append(l.wh, whEntry{t, k})
	for i := len(l.wh) - 1; i > 0; {
		p := (i - 1) / 2
		if !pointLess(l.wh[i].t, l.wh[i].k, l.wh[p].t, l.wh[p].k) {
			break
		}
		l.wh[p], l.wh[i] = l.wh[i], l.wh[p]
		i = p
	}
	l.writeHz.store(l.wh[0].t, l.wh[0].k)
}

// whPop removes the minimum pending write point (the write that just
// executed — lanes run in queue order, so the firing write is the top)
// and republishes the horizon.
func (l *lane) whPop() {
	n := len(l.wh) - 1
	l.wh[0] = l.wh[n]
	l.wh = l.wh[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && pointLess(l.wh[r].t, l.wh[r].k, l.wh[c].t, l.wh[c].k) {
			c = r
		}
		if !pointLess(l.wh[c].t, l.wh[c].k, l.wh[i].t, l.wh[i].k) {
			break
		}
		l.wh[i], l.wh[c] = l.wh[c], l.wh[i]
		i = c
	}
	if n == 0 {
		l.writeHz.store(math.Inf(1), 0)
	} else {
		l.writeHz.store(l.wh[0].t, l.wh[0].k)
	}
}

// take pops a pooled event from the caller's free list.
func (l *lane) take() *laneEvent {
	ev := l.free
	if ev == nil {
		ev = &laneEvent{}
		ev.ent.E = ev
	} else {
		l.free = ev.free
		ev.free = nil
	}
	return ev
}

// exec runs one popped event on this lane's timeline and recycles it
// into the executing goroutine's lane pool.
//
//probe:writer each lane goroutine owns its own lane probe shard
func (l *lane) exec(ev *laneEvent) {
	t := des.Time(ev.ent.At)
	l.lvt = t
	ev.fn(nil, t, ev.arg)
	l.fired++
	if l.probe != nil {
		l.probe.Events++
	}
	if ev.write {
		l.whPop()
	}
	ev.fn = nil
	ev.arg = nil
	ev.free = l.free
	l.free = ev
}

// Core drives the closure-based world model across P lanes. Handlers
// are irreversible, so execution is risk-free: an event runs only once
// it is provably safe (conservative windows, or the bounded-lag
// frontier in timewarp mode), and every processed event commits.
type Core struct {
	cfg CoreConfig

	// lanes is sharded by lane id: element i's mutable state belongs to
	// lane i's goroutine (or the world-stopped coordinator).
	//
	//lane:shard
	lanes []*lane

	p    int
	look float64 // cross-lane lookahead
	hb   float64 // horizon bound: nextafter(horizon), exclusive

	// inGlobal is set by the coordinator around global-phase execution.
	//
	//lane:stopped only the coordinator flips it, with every lane parked
	inGlobal bool

	globalAt atomic.Uint64
	stop     atomic.Bool
	done     chan int
	wg       sync.WaitGroup
	stats    Stats
}

// NewCore validates the configuration and builds the lanes.
func NewCore(cfg CoreConfig) (*Core, error) {
	if cfg.Mode != ModeConservative && cfg.Mode != ModeTimeWarp {
		return nil, fmt.Errorf("pdes: core needs conservative or timewarp mode, got %s", cfg.Mode)
	}
	if cfg.Lanes < 1 {
		return nil, fmt.Errorf("pdes: need at least one lane, got %d", cfg.Lanes)
	}
	if cfg.Lookahead <= 0 {
		return nil, fmt.Errorf("pdes: lookahead must be positive, got %v", cfg.Lookahead)
	}
	if (cfg.GlobalNext == nil) != (cfg.GlobalStep == nil) {
		return nil, fmt.Errorf("pdes: GlobalNext and GlobalStep must be set together")
	}
	c := &Core{
		cfg:  cfg,
		p:    cfg.Lanes,
		look: float64(cfg.Lookahead),
		hb:   math.Nextafter(float64(cfg.Horizon), math.Inf(1)),
		// Until Run starts, all scheduling happens on the coordinator
		// (the engine's init phase), which must use the mailbox path.
		inGlobal: true,
		done:     make(chan int, cfg.Lanes),
	}
	c.stats.Lanes = cfg.Lanes
	c.stats.Mode = cfg.Mode
	c.globalAt.Store(toBits(math.Inf(1)))
	if cfg.Probe != nil {
		cfg.Probe.Lanes = make([]probe.LaneProbe, cfg.Lanes)
		cfg.Probe.Queues = make([]probe.QueueProbe, cfg.Lanes)
	}
	for i := 0; i < cfg.Lanes; i++ {
		l := &lane{id: i, cmd: make(chan float64)}
		switch cfg.Queue {
		case des.QueueCalendar:
			l.q = equeue.NewCalendar()
		default:
			l.q = equeue.NewHeap()
		}
		if cfg.Probe != nil {
			l.probe = &cfg.Probe.Lanes[i]
			if pq, ok := l.q.(equeue.Probed); ok {
				pq.SetProbe(&cfg.Probe.Queues[i])
			}
		}
		l.mailMin.store(math.Inf(1), 0)
		l.writeHz.store(math.Inf(1), 0)
		c.lanes = append(c.lanes, l)
	}
	return c, nil
}

// Stats returns the run accounting.
func (c *Core) Stats() *Stats { return &c.stats }

// LaneOf maps an owner to its lane index.
func (c *Core) LaneOf(owner int) int { return owner % c.p }

// Now returns the virtual time on owner's timeline: the time of the
// event its lane is executing. Callable only from that lane's executing
// goroutine (or from the world-stopped coordinator).
func (c *Core) Now(owner int) des.Time { return c.lanes[owner%c.p].lvt }

// Schedule inserts an event on owner's lane. emitter is the identity in
// whose deterministic execution order the event was created (the acting
// host); together with a per-emitter ordinal it forms the ordering key,
// so ties and the whole lane order are independent of real-time arrival
// order. write marks events that mutate cross-lane-visible shared
// state (mobility hand-offs, disconnections, reconnections): they are
// tracked in the lane's write-horizon heap and execute only under a
// full fence (timewarp mode) or a serialized step (conservative mode).
//
// Self-schedules from an executing lane push straight into the lane's
// own queue; everything else — cross-lane sends and all global-phase
// scheduling — goes through the owner's mailbox.
func (c *Core) Schedule(emitter, owner int, at des.Time, fn des.ArgHandler, arg any, write bool) {
	el := c.lanes[emitter%c.p]
	idx := emitter / c.p
	for idx >= len(el.ord) {
		// Growth happens only while single-threaded: either before Run,
		// or during the world-stopped global phase (dynamic joins).
		el.ord = append(el.ord, 0)
	}
	key := des.KeyFor(emitter, el.ord[idx])
	el.ord[idx]++

	ev := el.take()
	ev.ent.At = float64(at)
	ev.ent.Seq = key
	ev.fn = fn
	ev.arg = arg
	ev.write = write

	ol := c.lanes[owner%c.p]
	if el == ol && !c.inGlobal {
		// The caller is ol's executing goroutine.
		ol.q.Push(&ev.ent)
		if write {
			ol.whPush(ev.ent.At, ev.ent.Seq)
		}
		return
	}
	if write && !c.inGlobal {
		// append's writeHz fold is unsynchronized against the owner's
		// whPush/whPop, which is sound only world-stopped. The world has
		// no cross-lane writes (hand-offs run on the moving host's own
		// lane); anything new that needs one must go through the global
		// timeline.
		panic("pdes: cross-lane shared-state write from a lane handler")
	}
	ol.append(ev)
}

// Run executes the world to the horizon and returns once every lane has
// drained its history and stopped.
func (c *Core) Run() {
	c.inGlobal = false
	if c.cfg.Mode == ModeConservative {
		c.runConservative()
	} else {
		c.runBoundedLag()
	}
	var fired uint64
	for _, l := range c.lanes {
		fired += l.fired
	}
	c.stats.Processed.Store(fired)
}

// Fired returns the total lane events executed.
func (c *Core) Fired() uint64 {
	var fired uint64
	for _, l := range c.lanes {
		fired += l.fired
	}
	return fired
}

// globalNext loads the earliest global event time (+Inf when none).
func (c *Core) globalNext() float64 {
	if c.cfg.GlobalNext == nil {
		return math.Inf(1)
	}
	if g, ok := c.cfg.GlobalNext(); ok {
		return float64(g)
	}
	return math.Inf(1)
}

// globalStep executes one world-stopped global event.
//
//lane:stopped runs on the coordinator with every lane parked at or beyond g
func (c *Core) globalStep(g float64) {
	c.inGlobal = true
	c.cfg.GlobalStep()
	c.inGlobal = false
	c.stats.GlobalEvents.Add(1)
	if tl := c.cfg.Timeline; tl != nil {
		tl.Instant(g, -1, "global")
	}
}

// ---------------------------------------------------------------------
// Conservative driver: fixed-lookahead windows with a barrier.
// ---------------------------------------------------------------------

// runConservative alternates three deterministic moves until the
// horizon: run the earliest global event when it is due first; run a
// shared-state write serialized on the coordinator when the write is
// the earliest event; otherwise open the widest safe window
// W = min(m+lookahead, write horizon, global, horizon) and let every
// lane execute its events below W in parallel. No cross-lane message
// can land inside an open window (arrivals are at least m+lookahead),
// so lanes never need to look at their mailboxes mid-window.
func (c *Core) runConservative() {
	for _, l := range c.lanes {
		c.wg.Add(1)
		go c.laneWindows(l)
	}
	inf := math.Inf(1)
	for {
		for _, l := range c.lanes {
			l.drain()
		}
		var best *equeue.Entry
		var bl *lane
		wh := inf
		for _, l := range c.lanes {
			if e := l.q.Peek(); e != nil && (best == nil || entryBefore(e, best)) {
				best, bl = e, l
			}
			if len(l.wh) > 0 && l.wh[0].t < wh {
				wh = l.wh[0].t
			}
		}
		m := inf
		if best != nil {
			m = best.At
		}
		g := c.globalNext()
		if g < c.hb && g <= m {
			// Global first on ties: the sequential engine schedules
			// markers/ticks/joins before the lane events they spawn.
			c.globalStep(g)
			continue
		}
		if m >= c.hb {
			break
		}
		w := math.Min(math.Min(m+c.look, wh), math.Min(g, c.hb))
		if w <= m {
			// The earliest event is a shared-state write (w == wh == m):
			// run it alone on the coordinator while every lane is parked.
			ev := bl.q.Pop().E.(*laneEvent)
			bl.exec(ev)
			c.stats.SerialSteps.Add(1)
			if tl := c.cfg.Timeline; tl != nil {
				tl.Instant(m, bl.id, "write-step")
			}
			continue
		}
		for _, l := range c.lanes {
			l.cmd <- w
		}
		for range c.lanes {
			<-c.done
		}
		c.stats.Windows.Add(1)
		if tl := c.cfg.Timeline; tl != nil {
			tl.Span(m, w-m, -1, "window")
		}
	}
	for _, l := range c.lanes {
		close(l.cmd)
	}
	c.wg.Wait()
}

// laneWindows is the conservative-mode lane worker: execute everything
// below each broadcast window bound, then report to the barrier.
//
//lane:handler
//probe:writer runs as lane l's goroutine, which owns l.probe
func (c *Core) laneWindows(l *lane) {
	defer c.wg.Done()
	for w := range l.cmd {
		ran := false
		for {
			e := l.q.Peek()
			if e == nil || e.At >= w {
				break
			}
			l.q.Pop()
			l.exec(e.E.(*laneEvent))
			ran = true
		}
		if ran && l.probe != nil {
			// Window occupancy: windows in which this lane had any work.
			l.probe.Windows++
		}
		c.done <- l.id
	}
}

// entryBefore is the engine's (At, Seq) total order.
func entryBefore(e, f *equeue.Entry) bool {
	if e.At != f.At {
		return e.At < f.At
	}
	return e.Seq < f.Seq
}

// ---------------------------------------------------------------------
// Bounded-lag driver (ModeTimeWarp): asynchronous free-running lanes.
// ---------------------------------------------------------------------

// runBoundedLag spawns free-running lanes and coordinates only the
// global timeline and termination. Lanes execute whenever their next
// event is below the bound they derive from the other lanes' published
// frontiers (frontier+lookahead), write horizons, and the global clock
// — the optimistic engine's zero-rollback operating point. The
// coordinator's sampled minimum frontier is this driver's GVT: history
// below it is definitively committed.
func (c *Core) runBoundedLag() {
	c.globalAt.Store(toBits(c.globalNext()))
	for _, l := range c.lanes {
		c.wg.Add(1)
		go c.laneFree(l)
	}
	horizon := float64(c.cfg.Horizon)
	spins, sample := 0, 0
	for {
		// Time parts suffice here: the global-step gate compares against
		// key-0 global events (a lane whose frontier ties the global time
		// parks itself on globalAt, so >= is the right test), and the
		// termination/lag tests are pure time thresholds.
		minF, maxP := math.Inf(1), math.Inf(-1)
		for _, l := range c.lanes {
			f, _ := l.frontier()
			if f < minF {
				minF = f
			}
			if p := l.nextPub.timePart(); p > maxP && !math.IsInf(p, 1) {
				maxP = p
			}
		}
		g := fromBits(c.globalAt.Load())
		if g < c.hb && minF >= g {
			// Every lane is parked at or beyond g: run the global event
			// world-stopped, then republish the next global time (new
			// lane events it scheduled are already visible through the
			// owners' mailMin, so no lane can slip past them).
			c.globalStep(g)
			c.globalAt.Store(toBits(c.globalNext()))
			spins = 0
			continue
		}
		if g >= c.hb && minF > horizon {
			break
		}
		if sample++; sample&255 == 0 {
			c.stats.GVTRounds.Add(1)
			if !math.IsInf(minF, 1) && maxP > minF {
				c.stats.observeLag(math.Min(maxP, horizon) - minF)
			}
		}
		spinWait(&spins)
	}
	c.stop.Store(true)
	c.wg.Wait()
}

// laneFree is the bounded-lag lane loop. Order of operations is what
// carries the safety proof: publish the next event time before reading
// the other lanes' frontiers (so two lanes can never miss each other's
// intent), hold nextPub at the executing event's time until its sends
// have landed, and re-check the mailbox after computing the bound (a
// frontier read that post-dates a neighbour's send is sequenced after
// that send's mailMin store, so the recheck sees it).
//
//lane:handler
func (c *Core) laneFree(l *lane) {
	defer c.wg.Done()
	inf := math.Inf(1)
	spins := 0
	for {
		if c.stop.Load() {
			return
		}
		if mt, _ := l.mailMin.load(); mt < inf {
			l.drain()
		}
		e := l.q.Peek()
		if e == nil {
			l.nextPub.store(inf, 0)
			l.spinYield(&spins)
			continue
		}
		t, key := e.At, e.Seq
		l.nextPub.store(t, key)
		if t >= c.hb {
			l.spinYield(&spins)
			continue
		}
		// The global clock and the arrival bound are key-0 points (global
		// events order first among simultaneous ones, and an arrival
		// landing exactly at frontier+lookahead could carry any key), so
		// against them t must be strictly smaller. The write horizon is a
		// real event point: the composite order decides — this is what
		// lets two lanes holding tied writes make progress in key order
		// instead of deadlocking on each other's time.
		ok := t < math.Min(fromBits(c.globalAt.Load()), c.hb)
		if ok {
			for _, o := range c.lanes {
				if o == l {
					continue
				}
				ft, _ := o.frontier()
				if t >= ft+c.look {
					ok = false
					break
				}
				if wt, wk := o.writeHz.load(); !pointLess(t, key, wt, wk) {
					ok = false
					break
				}
			}
		}
		if !ok {
			l.spinYield(&spins)
			continue
		}
		if mt, mk := l.mailMin.load(); !pointLess(t, key, mt, mk) {
			// An arrival ordering at or before e: drain and re-evaluate.
			continue
		}
		ev := e.E.(*laneEvent)
		if ev.write {
			// Full fence: every other lane must have promised not to
			// execute below (t, key). A neighbour whose frontier is at or
			// past that point cannot be mid-event below it (it would still
			// be publishing that event's point), and cannot start one past
			// it while our writeHz pins its bound.
			if !c.fenceReady(l, t, key) {
				l.spinYield(&spins)
				continue
			}
			c.stats.WriteFences.Add(1)
			if tl := c.cfg.Timeline; tl != nil {
				// Guarded: the coordinator owns the timeline during the
				// global phase, but a fenced write runs world-stopped
				// too, so the lane may stamp it.
				tl.Instant(t, l.id, "write-fence")
			}
		}
		l.q.Pop()
		l.exec(ev)
		spins = 0
	}
}

// fenceReady reports whether every other lane's frontier has reached
// the write's order point.
func (c *Core) fenceReady(l *lane, t float64, k uint64) bool {
	for _, o := range c.lanes {
		if o == l {
			continue
		}
		if ft, fk := o.frontier(); pointLess(ft, fk, t, k) {
			return false
		}
	}
	return true
}

// spinWait burns a few iterations then yields the processor.
func spinWait(n *int) {
	*n++
	if *n > 64 {
		runtime.Gosched()
	}
}

// spinYield is spinWait for a lane's own wait loop: it additionally
// counts the yields as the lane's frontier/barrier-wait proxy (the
// engines may not read wall clocks, so burned yields stand in for
// blocked time).
//
//probe:writer each lane goroutine owns its own lane probe shard
func (l *lane) spinYield(n *int) {
	*n++
	if *n > 64 {
		runtime.Gosched()
		if l.probe != nil {
			l.probe.SpinYields++
		}
	}
}

// Instrument registers the pdes instruments on reg: the processed
// event total, the bounded-lag coordinator's GVT sampling, and each
// driver's shape counters. Gauges sample the live atomics.
func (s *Stats) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, h := range [][2]string{
		{"pdes_lanes", "Logical processes (lanes) the parallel engine runs."},
		{"pdes_events_processed_total", "Events executed across the lanes."},
		{"pdes_gvt_rounds_total", "Frontier samples taken by the bounded-lag coordinator."},
		{"pdes_gvt_lag_max_millitu", "Largest observed lag behind GVT, in milli-time-units."},
		{"pdes_windows_total", "Lookahead windows executed by the conservative driver."},
		{"pdes_serial_steps_total", "Shared-state writes the conservative driver ran as serialized single steps."},
		{"pdes_write_fences_total", "Cross-lane write fences taken by the bounded-lag driver."},
		{"pdes_global_events_total", "Global-timeline events (markers, ticks, GC, joins) run world-stopped."},
	} {
		reg.Help(h[0], h[1])
	}
	reg.GaugeFunc("pdes_lanes", func() int64 { return int64(s.Lanes) })
	reg.CounterFunc("pdes_events_processed_total", func() int64 { return int64(s.Processed.Load()) })
	reg.CounterFunc("pdes_gvt_rounds_total", func() int64 { return int64(s.GVTRounds.Load()) })
	reg.GaugeFunc("pdes_gvt_lag_max_millitu", func() int64 { return int64(s.GVTLagMax() * 1000) })
	reg.CounterFunc("pdes_windows_total", func() int64 { return int64(s.Windows.Load()) })
	reg.CounterFunc("pdes_serial_steps_total", func() int64 { return int64(s.SerialSteps.Load()) })
	reg.CounterFunc("pdes_write_fences_total", func() int64 { return int64(s.WriteFences.Load()) })
	reg.CounterFunc("pdes_global_events_total", func() int64 { return int64(s.GlobalEvents.Load()) })
}
