package main

import (
	"fmt"
	"regexp"
)

// metric is one reported figure: a name, its unit and which direction is
// better.
type metric struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the figures a user of the simulator waits on, reported by
// an untraced run. ops_failed_frac is printed in the human-readable table
// only: it is 0 on a healthy program, so it rides the result line as its
// attempted/failed counts instead of as a metric.
var endToEnd = []metric{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"events_per_s", "1/s", "higher"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// layers are the buckets the CPU and alloc profiles are split into, named
// after the repository's modules; gc and runtime_other take the samples
// no module owns.
var layers = []string{
	"sim", "des", "equeue", "pdes", "mobile", "workload", "rng", "protocol",
	"storage", "mlog", "trace", "recovery", "gc", "runtime_other",
}

// layerCounts are the per-layer counters read from the program's own
// reports (Result, its probes, the obs registry, runtime/metrics).
var layerCounts = []metric{
	{"des.events", "count", "lower"},
	{"des.event_pool_hit_frac", "frac", "higher"},
	{"equeue.pushes", "count", "lower"},
	{"equeue.max_len", "count", "lower"},
	{"equeue.chain_steps_per_pop", "steps/pop", "lower"},
	{"equeue.sweep_steps_per_pop", "steps/pop", "lower"},
	{"equeue.resizes", "count", "lower"},
	{"pdes.windows", "count", "lower"},
	{"pdes.serial_steps", "count", "lower"},
	{"pdes.write_fences", "count", "lower"},
	{"pdes.mailbox_msgs", "count", "lower"},
	{"pdes.spin_yields", "count", "lower"},
	{"pdes.lane_imbalance", "ratio", "lower"},
	{"mobile.app_msgs", "count", "lower"},
	{"mobile.forward_frac", "frac", "lower"},
	{"mobile.msg_pool_hit_frac", "frac", "higher"},
	{"workload.empty_receive_frac", "frac", "lower"},
	{"protocol.ntot", "count", "lower"},
	{"protocol.forced_frac", "frac", "lower"},
	{"protocol.piggyback_b_per_msg", "B/msg", "lower"},
	{"protocol.tp_vector_copies", "count", "lower"},
	{"protocol.tp_snapshot_reuse_frac", "frac", "higher"},
	{"storage.checkpoints", "count", "lower"},
	{"mlog.appended", "count", "lower"},
	{"mlog.flushes", "count", "lower"},
	{"recovery.analyze_s", "s", "lower"},
	{"recovery.replayed_msgs", "count", "higher"},
	{"gc.cycles", "count", "lower"},
	{"gc.heap_peak_mb", "MiB", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
}

// perLayer lists every metric a traced run reports: the profile split of
// each layer, then the counters.
func perLayer() []metric {
	var ms []metric
	for _, l := range layers {
		ms = append(ms, metric{l + ".cpu_frac", "frac", "lower"}, metric{l + ".alloc_mb", "MiB", "lower"})
	}
	return append(ms, layerCounts...)
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

const (
	maxEndToEnd = 16
	maxPerLayer = 128
)

// validateMetrics enforces the benchmark's naming contract: names start
// with a letter or digit and use at most 64 of [A-Za-z0-9_.-], units at
// most 16 of [A-Za-z0-9_/%.-], every name is used once, and there are
// 1..16 end-to-end and 1..128 per-layer metrics.
func validateMetrics(e2e, layer []metric) error {
	if len(e2e) < 1 || len(e2e) > maxEndToEnd {
		return fmt.Errorf("%d end-to-end metrics, need 1..%d", len(e2e), maxEndToEnd)
	}
	if len(layer) < 1 || len(layer) > maxPerLayer {
		return fmt.Errorf("%d per-layer metrics, need 1..%d", len(layer), maxPerLayer)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), e2e...), layer...) {
		if !nameRE.MatchString(m.Name) {
			return fmt.Errorf("metric name %q: need 1..64 of [A-Za-z0-9_.-], starting with a letter or digit", m.Name)
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: unit %q: need 1..16 of [A-Za-z0-9_/%%.-]", m.Name, m.Unit)
		}
		if seen[m.Name] {
			return fmt.Errorf("metric name %q used twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %s: better = %q, need lower or higher", m.Name, m.Better)
		}
	}
	return nil
}
