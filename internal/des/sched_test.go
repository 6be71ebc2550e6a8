package des

import (
	"reflect"
	"runtime"
	"testing"
)

// TestKeyFor pins the tie-break key layout: bit 63 set (keyed events
// sort after every FIFO-numbered event at the same instant), then the
// emitter, then its per-emitter ordinal — so keys order first by
// emitter, then by emission order, as both engines require.
func TestKeyFor(t *testing.T) {
	if k := KeyFor(0, 0); k != 1<<63 {
		t.Fatalf("KeyFor(0,0) = %#x, want bit 63 only", k)
	}
	ks := []uint64{KeyFor(0, 0), KeyFor(0, 1), KeyFor(1, 0), KeyFor(1, 1), KeyFor(2, 0)}
	for i := 1; i < len(ks); i++ {
		if ks[i-1] >= ks[i] {
			t.Fatalf("keys not strictly increasing: %#x then %#x", ks[i-1], ks[i])
		}
	}
	// FIFO sequence numbers stay below 1<<63 for any realistic run, so
	// the global-first rule is a plain integer comparison.
	if seq := uint64(1) << 62; seq >= KeyFor(0, 0) {
		t.Fatal("FIFO range overlaps keyed range")
	}
}

// TestScheduleArgKeyedOrdering schedules simultaneous events in an
// adversarial insertion order and requires the (key) order to win:
// FIFO-numbered events first (the global timeline), then keyed events
// by (emitter, ordinal) — never by insertion order.
func TestScheduleArgKeyedOrdering(t *testing.T) {
	s := New()
	var got []string
	rec := func(name string) ArgHandler {
		return func(_ *Simulator, _ Time, _ any) { got = append(got, name) }
	}
	// Inserted deliberately out of key order, all at t=1.
	s.ScheduleArgKeyed(1, KeyFor(2, 0), "e2.0", rec("e2.0"), nil)
	s.ScheduleArgKeyed(1, KeyFor(1, 1), "e1.1", rec("e1.1"), nil)
	s.ScheduleArg(1, "fifo-b", rec("fifo-b"), nil)
	s.ScheduleArgKeyed(1, KeyFor(1, 0), "e1.0", rec("e1.0"), nil)
	s.ScheduleArg(1, "fifo-a", rec("fifo-a"), nil)
	s.Run(2)
	want := []string{"fifo-b", "fifo-a", "e1.0", "e1.1", "e2.0"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("firing order %v, want %v", got, want)
	}
}

// TestSoloKeys drives the sequential Sched adapter and checks it stamps
// exactly the keys a parallel lane would: per-emitter ordinals advance
// independently, Route charges the *emitter's* ordinal, and emitters
// first seen mid-run (dynamic joins) grow the table transparently.
func TestSoloKeys(t *testing.T) {
	s := New()
	w := Solo(s).(*solo)
	nop := func(_ *Simulator, _ Time, _ any) {}
	w.ScheduleArg(3, 1, "a", nop, nil) // emitter 3, ordinal 0
	w.ScheduleArg(3, 1, "b", nop, nil) // emitter 3, ordinal 1
	w.ScheduleArg(0, 1, "c", nop, nil) // emitter 0, ordinal 0
	w.Route(3, 0, 1.5, "d", nop, nil)  // emitted by 3: its ordinal 2
	if got, want := w.ord[3], uint32(3); got != want {
		t.Fatalf("emitter 3 ordinal = %d, want %d", got, want)
	}
	if got, want := w.ord[0], uint32(1); got != want {
		t.Fatalf("emitter 0 ordinal = %d, want %d", got, want)
	}
	w.ScheduleArgAfter(7, 2, "late", nop, nil) // first sight of emitter 7
	if len(w.ord) != 8 || w.ord[7] != 1 {
		t.Fatalf("ordinal table after join = %v", w.ord)
	}
	if n := s.Run(10); n != 5 {
		t.Fatalf("fired %d events, want 5", n)
	}
}

// TestSoloMatchesLaneOrder runs the same simultaneous-event population
// through Solo twice with different call orders per emitter pair and
// checks the firing order depends only on (emitter, ordinal) — the
// bit-identity property the parallel engines rely on.
func TestSoloMatchesLaneOrder(t *testing.T) {
	run := func(swap bool) []string {
		s := New()
		w := Solo(s)
		var got []string
		rec := func(name string) ArgHandler {
			return func(_ *Simulator, _ Time, _ any) { got = append(got, name) }
		}
		if swap {
			w.ScheduleArg(2, 1, "b", rec("2.0"), nil)
			w.ScheduleArg(1, 1, "a", rec("1.0"), nil)
		} else {
			w.ScheduleArg(1, 1, "a", rec("1.0"), nil)
			w.ScheduleArg(2, 1, "b", rec("2.0"), nil)
		}
		s.Run(2)
		return got
	}
	a, b := run(false), run(true)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("firing order depends on insertion order: %v vs %v", a, b)
	}
}

// TestNextTimeStep checks the peek/step surface the parallel kernel
// interleaves the global timeline with: NextTime never fires, Step
// fires exactly one event regardless of horizon, and both report
// emptiness.
func TestNextTimeStep(t *testing.T) {
	s := New()
	if _, ok := s.NextTime(); ok {
		t.Fatal("NextTime on empty queue reported an event")
	}
	if s.Step() {
		t.Fatal("Step on empty queue fired")
	}
	fired := 0
	s.ScheduleArg(5, "x", func(_ *Simulator, now Time, _ any) { fired++ }, nil)
	s.ScheduleArg(9, "y", func(_ *Simulator, now Time, _ any) { fired++ }, nil)
	if at, ok := s.NextTime(); !ok || at != 5 {
		t.Fatalf("NextTime = %v,%v, want 5,true", at, ok)
	}
	if fired != 0 {
		t.Fatal("NextTime fired an event")
	}
	if !s.Step() || fired != 1 || s.Now() != 5 {
		t.Fatalf("Step: fired=%d now=%v", fired, s.Now())
	}
	if at, ok := s.NextTime(); !ok || at != 9 {
		t.Fatalf("NextTime after step = %v,%v, want 9,true", at, ok)
	}
	if !s.Step() || s.Step() {
		t.Fatal("second Step should fire, third should not")
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

// soloStartupBytesPerEmitter measures the heap bytes Solo allocates while
// n fresh emitters each schedule one event — the start-up pattern of a
// world touching hosts 0..n-1 in order.
func soloStartupBytesPerEmitter(n int) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := Solo(New())
	fn := ArgHandler(func(*Simulator, Time, any) {})
	for e := 0; e < n; e++ {
		w.ScheduleArg(e, 1, "start", fn, nil)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(w)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestSoloKeyAllocsLinear is the complexity gate on Solo's per-emitter
// ordinal table: start-up cost per emitter must not grow with n. A
// table regrown to exactly emitter+1 on every new emitter copies O(n²)
// bytes, so bytes per emitter would grow tenfold from n=5k to n=50k;
// amortized growth keeps it flat.
func TestSoloKeyAllocsLinear(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc bounds only hold in normal builds")
	}
	small := soloStartupBytesPerEmitter(5_000)
	large := soloStartupBytesPerEmitter(50_000)
	if large > 2*small {
		t.Fatalf("Solo start-up allocates %.0f B/emitter at n=50k vs %.0f at n=5k; want within 2x (linear)", large, small)
	}
	t.Logf("Solo start-up: %.0f B/emitter at n=5k, %.0f at n=50k", small, large)
}
