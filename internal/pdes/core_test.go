package pdes

import (
	"math"
	"testing"

	"mobickpt/internal/des"
	"mobickpt/internal/obs"
)

// toyWorld is a closure-based model in the image of the mobile-host
// world: per-owner private state driven by self-scheduled ticks,
// cross-owner messages with a minimum delay (the lookahead), rare
// shared-state writes that need exclusion, and a serial global timeline
// that mutates shared state and schedules new owner events (like
// dynamic joins). Every tick folds the shared value into the owner's
// accumulator, so a broken write fence shows up both as a data race and
// as a result divergence.
type toyWorld struct {
	n      int
	look   des.Time
	owners []toyOwner
	shared int64
	sched  func(emitter, owner int, at des.Time, fn des.ArgHandler, arg any, write bool)
}

type toyOwner struct {
	rng   uint64
	count int64
	sum   float64
	seen  int64
	_     [24]byte
}

const toyHorizon = 28.0

// splitmix is the SplitMix64 step: each owner's private rng stream.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

func newToyWorld(n int, look des.Time) *toyWorld {
	w := &toyWorld{n: n, look: look, owners: make([]toyOwner, n)}
	for o := range w.owners {
		w.owners[o].rng = splitmix(uint64(o) * 2654435761)
	}
	return w
}

// seed schedules every owner's first tick (the single-threaded init
// phase, mirroring the engine's pre-Run setup).
func (w *toyWorld) seed() {
	for o := 0; o < w.n; o++ {
		at := des.Time(0.01 + float64(o)/613.0)
		w.sched(o, o, at, w.tick, o, false)
	}
}

func (w *toyWorld) tick(_ *des.Simulator, now des.Time, arg any) {
	o := arg.(int)
	st := &w.owners[o]
	st.rng = splitmix(st.rng)
	st.count++
	st.sum += float64(now)
	st.seen += w.shared
	delay := des.Time(0.11 + float64(st.rng&1023)/4096.0)
	switch st.rng >> 60 {
	case 0:
		// Cross-owner message: the only cross-lane schedule, always at
		// least one lookahead away (the world's wireless uplink bound).
		dst := (o + 7) % w.n
		w.sched(o, dst, now+w.look+delay, w.tick, dst, false)
		w.sched(o, o, now+delay, w.tick, o, false)
	case 1:
		// Shared-state write (a hand-off in the real world): runs only
		// under full exclusion.
		w.sched(o, o, now+delay, w.write, o, true)
	default:
		w.sched(o, o, now+delay, w.tick, o, false)
	}
}

func (w *toyWorld) write(_ *des.Simulator, now des.Time, arg any) {
	o := arg.(int)
	st := &w.owners[o]
	st.rng = splitmix(st.rng)
	st.count++
	w.shared += int64(o) + 1
	st.seen += w.shared
	delay := des.Time(0.11 + float64(st.rng&1023)/4096.0)
	w.sched(o, o, now+delay, w.tick, o, false)
}

// globalMark is the serial global timeline: mutate shared state and
// inject a fresh owner event, like the engine's markers and joins.
func (w *toyWorld) globalMark(sim *des.Simulator, now des.Time, _ any) {
	w.shared++
	o := int(w.shared) % w.n
	w.sched(o, o, now+0.055, w.tick, o, false)
	if next := now + 1.37; float64(next) <= toyHorizon {
		sim.ScheduleArg(next, "mark", w.globalMark, nil)
	}
}

func (w *toyWorld) fingerprint() uint64 {
	var h uint64 = 1469598103934665603
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for o := range w.owners {
		st := &w.owners[o]
		mix(st.rng)
		mix(uint64(st.count))
		mix(math.Float64bits(st.sum))
		mix(uint64(st.seen))
	}
	mix(uint64(w.shared))
	return h
}

// runToySequential is the reference: everything on one des.Simulator.
func runToySequential(t *testing.T, n int, look des.Time) (*toyWorld, uint64) {
	t.Helper()
	w := newToyWorld(n, look)
	sim := des.NewWith(des.QueueHeap)
	sch := des.Solo(sim)
	w.sched = func(emitter, owner int, at des.Time, fn des.ArgHandler, arg any, _ bool) {
		if emitter == owner {
			sch.ScheduleArg(owner, at, "toy", fn, arg)
		} else {
			sch.Route(emitter, owner, at, "toy", fn, arg)
		}
	}
	sim.ScheduleArg(1.37, "mark", w.globalMark, nil)
	w.seed()
	sim.Run(toyHorizon)
	return w, sim.Fired()
}

func runToyCore(t *testing.T, n int, look des.Time, mode Mode, lanes int, qk des.QueueKind, tl *obs.Timeline) (*toyWorld, uint64, *Stats) {
	t.Helper()
	w := newToyWorld(n, look)
	gsim := des.NewWith(des.QueueHeap)
	var c *Core
	c, err := NewCore(CoreConfig{
		Mode:      mode,
		Lanes:     lanes,
		Queue:     qk,
		Horizon:   toyHorizon,
		Lookahead: look,
		GlobalNext: func() (des.Time, bool) {
			return gsim.NextTime()
		},
		GlobalStep: func() { gsim.Step() },
		Timeline:   tl,
	})
	if err != nil {
		t.Fatalf("NewCore: %v", err)
	}
	w.sched = func(emitter, owner int, at des.Time, fn des.ArgHandler, arg any, write bool) {
		c.Schedule(emitter, owner, at, fn, arg, write)
	}
	gsim.ScheduleArg(1.37, "mark", w.globalMark, nil)
	w.seed()
	c.Run()
	// Advance the global clock over any tail with no global events, as
	// the engine does after a parallel run.
	gsim.Run(toyHorizon)
	return w, c.Fired() + gsim.Fired(), c.Stats()
}

// TestCoreEquivalence checks that both parallel drivers reproduce the
// sequential toy world bit-identically — same per-owner rng streams,
// float accumulators, shared-state interleavings and event totals — at
// several lane counts and with both queue kinds.
func TestCoreEquivalence(t *testing.T) {
	const n = 32
	const look = des.Time(0.05)
	ref, refFired := runToySequential(t, n, look)
	want := ref.fingerprint()
	for _, mode := range []Mode{ModeConservative, ModeTimeWarp} {
		for _, lanes := range []int{1, 2, 3, 4} {
			qk := des.QueueHeap
			if lanes%2 == 0 {
				qk = des.QueueCalendar
			}
			w, fired, st := runToyCore(t, n, look, mode, lanes, qk, nil)
			if got := w.fingerprint(); got != want {
				t.Errorf("%s lanes=%d: fingerprint %x, want %x", mode, lanes, got, want)
			}
			if fired != refFired {
				t.Errorf("%s lanes=%d: fired %d, want %d", mode, lanes, fired, refFired)
			}
			if st.GlobalEvents.Load() == 0 {
				t.Errorf("%s lanes=%d: no global events interleaved", mode, lanes)
			}
			switch mode {
			case ModeConservative:
				if lanes > 1 && st.Windows.Load() == 0 {
					t.Errorf("conservative lanes=%d: no windows ran", lanes)
				}
				if st.SerialSteps.Load() == 0 {
					t.Errorf("conservative lanes=%d: no serialized write steps", lanes)
				}
			case ModeTimeWarp:
				if lanes > 1 && st.WriteFences.Load() == 0 {
					t.Errorf("timewarp lanes=%d: no write fences", lanes)
				}
			}
		}
	}
}

// TestCoreTimeline checks that the coordinator emits deterministic
// lane-level timeline content.
func TestCoreTimeline(t *testing.T) {
	tl := obs.NewTimeline()
	_, _, st := runToyCore(t, 16, 0.05, ModeConservative, 2, des.QueueHeap, tl)
	if st.Windows.Load() == 0 {
		t.Fatal("no windows recorded")
	}
	if tl.Len() == 0 {
		t.Fatal("timeline is empty")
	}
}

// TestCoreConfigErrors exercises the constructor's validation.
func TestCoreConfigErrors(t *testing.T) {
	base := CoreConfig{Mode: ModeConservative, Lanes: 2, Horizon: 1, Lookahead: 0.1}
	bad := []func(*CoreConfig){
		func(c *CoreConfig) { c.Mode = ModeSequential },
		func(c *CoreConfig) { c.Lanes = 0 },
		func(c *CoreConfig) { c.Lookahead = 0 },
		func(c *CoreConfig) { c.GlobalNext = func() (des.Time, bool) { return 0, false } },
	}
	for i, mut := range bad {
		cfg := base
		mut(&cfg)
		if _, err := NewCore(cfg); err == nil {
			t.Errorf("case %d: no error", i)
		}
	}
}

// TestParseMode covers the flag spellings.
func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
		err  bool
	}{
		{"", ModeSequential, false},
		{"sequential", ModeSequential, false},
		{"seq", ModeSequential, false},
		{"conservative", ModeConservative, false},
		{"timewarp", ModeTimeWarp, false},
		{"optimistic", ModeTimeWarp, false},
		{"bogus", ModeSequential, true},
	} {
		got, err := ParseMode(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseMode(%q) = %v, %v", tc.in, got, err)
		}
		if !tc.err && got.String() == "" {
			t.Errorf("Mode(%d).String() empty", got)
		}
	}
}
