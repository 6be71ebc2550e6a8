package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBench drops a BENCH_*.json artifact into dir.
func writeBench(t *testing.T, dir, name string, doc any) {
	t.Helper()
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func record(t *testing.T, dir, traj, sha string) {
	t.Helper()
	var out strings.Builder
	err := runRecord([]string{
		"-dir", dir, "-out", traj, "-sha", sha, "-date", "2026-01-01T00:00:00Z",
		"-goos", "linux", "-goarch", "amd64", "-cpu", "testcpu", "-numcpu", "4",
	}, &out)
	if err != nil {
		t.Fatalf("record %s: %v\n%s", sha, err, out.String())
	}
}

// The end-to-end contract: record two points where the second has a
// throughput collapse and a cost blow-up, and the diff must fail with
// a non-nil error (main turns that into a non-zero exit).
func TestDiffFailsOnInjectedRegression(t *testing.T) {
	dir := t.TempDir()
	traj := filepath.Join(dir, "TRAJECTORY.json")

	doc := map[string]any{
		"benchmark": "BenchmarkPDES",
		"rows": []any{
			map[string]any{"hosts": 10000, "engine": "sequential", "lanes": 0,
				"events": 3706815, "wall_seconds": 0.94, "events_per_sec": 3.9e6},
			map[string]any{"hosts": 10000, "engine": "timewarp", "lanes": 2,
				"events": 3706815, "wall_seconds": 0.80, "events_per_sec": 4.6e6},
		},
	}
	obs := map[string]any{"ns_per_op": map[string]any{"disabled": 51252408.0, "enabled": 65863859.0}}
	writeBench(t, dir, "BENCH_pdes.json", doc)
	writeBench(t, dir, "BENCH_obs.json", obs)
	record(t, dir, traj, "aaaa111")

	// Inject: throughput halves, the disabled obs path costs 2x.
	doc["rows"].([]any)[0].(map[string]any)["events_per_sec"] = 1.9e6
	obs["ns_per_op"].(map[string]any)["disabled"] = 1.1e8
	writeBench(t, dir, "BENCH_pdes.json", doc)
	writeBench(t, dir, "BENCH_obs.json", obs)
	record(t, dir, traj, "bbbb222")

	var out strings.Builder
	err := runDiff([]string{"-file", traj}, &out)
	if err == nil {
		t.Fatalf("diff passed on an injected regression:\n%s", out.String())
	}
	for _, want := range []string{"pdes.rows.h10000/sequential/l0.events_per_sec", "obs.ns_per_op.disabled", "fail"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("diff output missing %q:\n%s", want, out.String())
		}
	}
}

// Identical points must pass, and re-recording the same SHA must
// replace its point instead of growing the trajectory.
func TestDiffPassAndIdempotentRecord(t *testing.T) {
	dir := t.TempDir()
	traj := filepath.Join(dir, "TRAJECTORY.json")
	writeBench(t, dir, "BENCH_x.json", map[string]any{"ns_per_op": 100.0, "note": "text is skipped"})
	record(t, dir, traj, "aaaa111")
	record(t, dir, traj, "aaaa111") // replace, not append
	record(t, dir, traj, "bbbb222")

	tr, err := loadTrajectory(traj)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Points) != 2 {
		t.Fatalf("trajectory has %d points, want 2", len(tr.Points))
	}
	if _, ok := tr.Points[0].Metrics["x.ns_per_op"]; !ok {
		t.Fatalf("flattened metrics missing x.ns_per_op: %v", tr.Points[0].Metrics)
	}

	var out strings.Builder
	if err := runDiff([]string{"-file", traj}, &out); err != nil {
		t.Fatalf("diff of identical points failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "pass") {
		t.Errorf("diff output missing pass: %s", out.String())
	}
}

// A small move should warn but not fail; a deterministic metric
// (neutral direction) should never fail no matter how far it moves.
func TestDiffThresholdsAndNeutralMetrics(t *testing.T) {
	dir := t.TempDir()
	traj := filepath.Join(dir, "TRAJECTORY.json")
	doc := map[string]any{"wall_seconds": 1.00, "events": 1000.0, "ntot_rate": 4.0}
	writeBench(t, dir, "BENCH_y.json", doc)
	record(t, dir, traj, "aaaa111")
	doc["wall_seconds"] = 1.15 // +15%: warn at 10%, below fail at 25%
	doc["events"] = 5000.0     // +400%, but deterministic => note only
	writeBench(t, dir, "BENCH_y.json", doc)
	record(t, dir, traj, "bbbb222")

	var out strings.Builder
	if err := runDiff([]string{"-file", traj}, &out); err != nil {
		t.Fatalf("diff failed on warn-level move: %v\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "warn") || !strings.Contains(s, "y.wall_seconds") {
		t.Errorf("expected a warn on y.wall_seconds:\n%s", s)
	}
	if !strings.Contains(s, "note") || !strings.Contains(s, "y.events") {
		t.Errorf("expected a note on y.events:\n%s", s)
	}

	// Tighten -fail below the move and it must now fail.
	out.Reset()
	if err := runDiff([]string{"-file", traj, "-fail", "0.12"}, &out); err == nil {
		t.Fatalf("diff passed with -fail 0.12 on a +15%% cost move:\n%s", out.String())
	}
}

// direction is the heuristic everything hangs on — pin its behaviour
// for the metric names that actually occur in results/BENCH_*.json.
func TestDirection(t *testing.T) {
	cases := []struct {
		key  string
		want metricDirection
	}{
		{"pdes.rows.h10000/sequential/l0.events_per_sec", higherBetter},
		{"pdes.rows.h10000/sequential/l0.wall_seconds", lowerBetter},
		{"obs.ns_per_op.disabled", lowerBetter},
		{"hotpath.after.BenchmarkEngine.allocs_per_op", lowerBetter},
		{"hotpath.after.BenchmarkEngine.bytes_per_op", lowerBetter},
		{"scale.h1000000/calendar.peak_rss_bytes", lowerBetter},
		{"scale.h10/calendar.events", neutral},
		{"scale.h10/calendar.ntot_rate.QBC", neutral},
		{"replay.metrics.QBC_undone_plain", neutral},
		{"pdes.rows.h10000/conservative/l2.pdes_windows", neutral},
	}
	for _, c := range cases {
		if got := direction(c.key); got != c.want {
			t.Errorf("direction(%q) = %v, want %v", c.key, got, c.want)
		}
	}
}

// The flattener must key array rows by identity, not position.
func TestFlattenRowIdentity(t *testing.T) {
	out := map[string]float64{}
	flatten([]any{
		map[string]any{"hosts": 10.0, "queue": "calendar", "wall_seconds": 1.0},
		map[string]any{"hosts": 100.0, "queue": "calendar", "wall_seconds": 2.0},
	}, "scale", out)
	if out["scale.h10/calendar.wall_seconds"] != 1.0 || out["scale.h100/calendar.wall_seconds"] != 2.0 {
		t.Fatalf("unexpected keys: %v", out)
	}
}
