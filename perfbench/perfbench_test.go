package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"mobickpt/internal/sim"
)

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stack []string // innermost first
		want  string
	}{
		{"memmove charged to the protocol that copies", []string{
			"runtime.memmove",
			"mobickpt/internal/protocol.(*TP).takeCheckpoint",
			"mobickpt/internal/sim.(*engine).onDeliver",
			"mobickpt/internal/des.(*Simulator).Run",
		}, "protocol"},
		{"background mark worker", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2",
			"runtime.systemstack", "runtime.gcBgMarkWorker",
		}, "gc"},
		{"mark assist inside a module's allocation", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcAssistAlloc1",
			"runtime.gcAssistAlloc.func2", "runtime.systemstack", "runtime.gcAssistAlloc",
			"runtime.mallocgc", "runtime.makeslice",
			"mobickpt/internal/des.(*solo).key",
		}, "gc"},
		{"equeue is its own layer, not des", []string{
			"mobickpt/internal/des/equeue.(*Calendar[...]).Push",
			"mobickpt/internal/des.(*Simulator).ScheduleArgKeyed",
		}, "equeue"},
		{"des proper", []string{
			"runtime.mallocgc", "mobickpt/internal/des.(*Simulator).Run",
		}, "des"},
		{"packages without a layer pass to their caller", []string{
			"sync/atomic.(*Int64).Add",
			"mobickpt/internal/obs.(*Counter).Add",
			"mobickpt/internal/stats.(*Replication).Add",
			"mobickpt/internal/workload.(*Driver).step",
		}, "workload"},
		{"type arguments may contain slashes", []string{
			"mobickpt/internal/pdes.(*Core[go.shape.*mobickpt/internal/sim.payload]).run",
		}, "pdes"},
		{"no module frame", []string{
			"runtime.futex", "runtime.notesleep", "runtime.mstart",
		}, "runtime_other"},
		{"the benchmark's own work", []string{
			"crypto/sha256.block", "main.resultDigest", "main.execute",
		}, "runtime_other"},
		{"empty stack", nil, "runtime_other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("%s: layerOf = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestEveryLayerIsReported(t *testing.T) {
	listed := map[string]bool{}
	for _, l := range layers {
		listed[l] = true
	}
	for pkg, l := range layerPackages {
		if !listed[l] {
			t.Errorf("package %s maps to unlisted layer %q", pkg, l)
		}
	}
	if !listed["gc"] || !listed["runtime_other"] {
		t.Error("gc and runtime_other must be listed layers")
	}
}

// TestParseAllocProfile decodes a real allocation profile of a small
// simulation and checks the samples land in the simulator's layers.
func TestParseAllocProfile(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()

	cfg := sim.DefaultConfig()
	cfg.Horizon = 2000
	if _, err := sim.Run(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ai := p.typeIndex("alloc_space")
	if ai < 0 {
		t.Fatalf("sample types %v lack alloc_space", p.Types)
	}
	by := splitByLayer(p, ai)
	for _, l := range []string{"sim", "des", "protocol"} {
		if by[l] <= 0 {
			t.Errorf("layer %s got no allocation (split %v)", l, by)
		}
	}
	for l := range by {
		if !contains(layers, l) {
			t.Errorf("sample charged to unlisted layer %q", l)
		}
	}
}

func TestParseProfileRejectsTruncated(t *testing.T) {
	// Field 2 (sample), length-delimited, claiming 10 bytes with 1 present.
	if _, err := parseProfile([]byte{0x12, 0x0a, 0x08}); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func TestValidateMetrics(t *testing.T) {
	if err := validateMetrics(endToEnd, perLayer()); err != nil {
		t.Fatalf("the benchmark's own metrics: %v", err)
	}
	ok := metric{Name: "wall_s", Unit: "s", Better: "lower"}
	layer := []metric{{"des.events", "count", "lower"}}
	many := func(n int, better string) []metric {
		ms := make([]metric, n)
		for i := range ms {
			ms[i] = metric{Name: "m" + strings.Repeat("x", i%50) + string(rune('a'+i/50)), Unit: "count", Better: better}
		}
		return ms
	}
	for _, tc := range []struct {
		name   string
		e2e    []metric
		layer  []metric
		wantOK bool
	}{
		{"minimal", []metric{ok}, layer, true},
		{"all allowed characters", []metric{{Name: "Az09_.-x", Unit: "a/%.-_9", Better: "higher"}}, layer, true},
		{"64-character name", []metric{{Name: strings.Repeat("a", 64), Unit: "s", Better: "lower"}}, layer, true},
		{"65-character name", []metric{{Name: strings.Repeat("a", 65), Unit: "s", Better: "lower"}}, layer, false},
		{"leading underscore", []metric{{Name: "_wall", Unit: "s", Better: "lower"}}, layer, false},
		{"leading dot", []metric{{Name: ".wall", Unit: "s", Better: "lower"}}, layer, false},
		{"space in name", []metric{{Name: "wall s", Unit: "s", Better: "lower"}}, layer, false},
		{"slash in name", []metric{{Name: "wall/s", Unit: "s", Better: "lower"}}, layer, false},
		{"empty unit", []metric{{Name: "wall_s", Unit: "", Better: "lower"}}, layer, false},
		{"17-character unit", []metric{{Name: "wall_s", Unit: strings.Repeat("s", 17), Better: "lower"}}, layer, false},
		{"space in unit", []metric{{Name: "wall_s", Unit: "m s", Better: "lower"}}, layer, false},
		{"bad direction", []metric{{Name: "wall_s", Unit: "s", Better: "faster"}}, layer, false},
		{"duplicate across sets", []metric{ok}, []metric{{"wall_s", "s", "lower"}}, false},
		{"per-layer metric without direction", []metric{ok}, []metric{{Name: "des.events", Unit: "count"}}, false},
		{"no end-to-end metric", nil, layer, false},
		{"no per-layer metric", []metric{ok}, nil, false},
		{"16 end-to-end", many(16, "lower"), layer, true},
		{"17 end-to-end", many(17, "lower"), layer, false},
		{"128 per-layer", []metric{ok}, many(128, "higher"), true},
		{"129 per-layer", []metric{ok}, many(129, "higher"), false},
	} {
		err := validateMetrics(tc.e2e, tc.layer)
		if (err == nil) != tc.wantOK {
			t.Errorf("%s: validateMetrics = %v, want ok=%v", tc.name, err, tc.wantOK)
		}
	}
}

// TestBenchmarkFileMatches holds BENCHMARK.json at the repository root to
// the workloads and metrics this program reports.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %+v, program %q: %q", i, f.Workloads[i], w.name, w.why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		g := f.EndToEnd[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("end-to-end metric %d: file has %+v, program %+v", i, g, m)
		}
		if g.Bound <= 0 || g.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", g.Name, g.Bound)
		}
	}
	pl := perLayer()
	if len(f.PerLayer) != len(pl) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(f.PerLayer), len(pl))
	}
	for i, m := range pl {
		if g := f.PerLayer[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per-layer metric %d: file has %+v, program %+v", i, f.PerLayer[i], m)
		}
	}
}

func TestCheckCountsDivergentOutput(t *testing.T) {
	ref := []call{{Digest: "a", Events: 10}, {Digest: "b"}}
	r := &result{}
	r.check("run", &childReport{runReport: runReport{Calls: ref}}, ref)
	r.check("run", &childReport{runReport: runReport{Calls: []call{{Digest: "a", Events: 11}, {Err: "boom"}}}}, ref)
	r.check("setup", &childReport{runReport: runReport{Calls: append(append([]call(nil), ref...), ref...)}}, ref)
	if r.attempted != 8 || r.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 8 and 2 (notes %v)", r.attempted, r.failed, r.notes)
	}
}

func TestCheckEnvRefusesOversubscription(t *testing.T) {
	o := options{trace: 0, seconds: 1}
	if err := checkEnv(o, 1); err != nil {
		t.Fatalf("one lane: %v", err)
	}
	if err := checkEnv(o, runtime.NumCPU()+1); err == nil {
		t.Errorf("lanes %d > nproc %d accepted", runtime.NumCPU()+1, runtime.NumCPU())
	}
	old := runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	defer runtime.GOMAXPROCS(old)
	if err := checkEnv(o, 1); err == nil {
		t.Errorf("GOMAXPROCS %d > nproc %d accepted", runtime.NumCPU()+1, runtime.NumCPU())
	}
}

func TestLeastStolenKeepsTheCalmerHalf(t *testing.T) {
	reps := func(steal ...float64) []*childReport {
		var out []*childReport
		for _, s := range steal {
			out = append(out, &childReport{Steal: s})
		}
		return out
	}
	for _, tc := range []struct {
		steal []float64
		kept  int
	}{
		{[]float64{0.3, 0, 0.01, 0.2}, 2},
		{[]float64{0.3, 0, 0.01, 0.2, 0.02}, 3},
		{[]float64{0, 0, 0, 0}, 4}, // no steal reported
		{[]float64{0.05}, 1},
	} {
		got := leastStolen(reps(tc.steal...))
		if len(got) != tc.kept {
			t.Errorf("steal %v: kept %d, want %d", tc.steal, len(got), tc.kept)
		}
		m := median(tc.steal)
		for _, rep := range got {
			if rep.Steal > m {
				t.Errorf("steal %v: kept %v, above the median %v", tc.steal, rep.Steal, m)
			}
		}
	}
}
