package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"mobickpt/internal/obs"
	"mobickpt/internal/obs/probe"
	"mobickpt/internal/sim"
)

// tally accumulates the per-layer counters of a traced execution over
// every sim.Run and sim.AnalyzeReplay call of a workload.
type tally struct {
	events, poolHits, poolMisses, msgHits, msgMisses   uint64
	pushes, pops, chainSteps, sweepSteps, resizes      uint64
	maxLen                                             int
	windows, serialSteps, writeFences, mailbox, yields uint64
	imbalance                                          float64
	appMsgs, forwards, receives, emptyReceives         int64
	ntot, forced, piggyback, checkpoints               int64
	tpCopies, tpReuses, mlogAppended, mlogFlushes      int64
	analyzeSec                                         float64
	replayed                                           int64
}

// instrument turns on the engine probes and a fresh metrics registry.
func instrument(cfg sim.Config) sim.Config {
	cfg.Probes = true
	cfg.Metrics = obs.NewRegistry()
	return cfg
}

func (t *tally) addRun(res *sim.Result, cfg sim.Config) {
	t.events += res.EventsFired
	if p := res.Probes; p != nil {
		t.poolHits += p.EventPool.Hits
		t.poolMisses += p.EventPool.Misses
		t.msgHits += p.MessagePool.Hits
		t.msgMisses += p.MessagePool.Misses
		for _, q := range append([]probe.QueueProbe{p.GlobalQueue}, p.LaneQueues...) {
			t.pushes += q.Pushes
			t.pops += q.Pops
			t.chainSteps += q.ChainSteps
			t.sweepSteps += q.SweepSteps
			t.resizes += q.Resizes
			t.maxLen = max(t.maxLen, q.MaxLen)
		}
		var most, sum uint64
		for _, l := range p.LaneProbes {
			t.mailbox += l.MailboxMsgs
			t.yields += l.SpinYields
			most = max(most, l.Events)
			sum += l.Events
		}
		if sum > 0 {
			mean := float64(sum) / float64(len(p.LaneProbes))
			t.imbalance = max(t.imbalance, float64(most)/mean)
		}
	}
	if s := res.PDES; s != nil {
		t.windows += s.Windows
		t.serialSteps += s.SerialSteps
		t.writeFences += s.WriteFences
	}
	t.appMsgs += res.Network.AppMessages
	t.forwards += res.Network.Forwards
	t.receives += res.Workload.Receives
	t.emptyReceives += res.Workload.EmptyReceives
	for i := range res.Protocols {
		pr := &res.Protocols[i]
		t.ntot += pr.Ntot
		t.forced += pr.Forced
		t.piggyback += pr.PiggybackBytes
		t.checkpoints += pr.Storage.Checkpoints
	}
	snap := cfg.Metrics.Snapshot()
	t.tpCopies += sumCounter(snap, "sim_tp_vector_copies_total")
	t.tpReuses += sumCounter(snap, "sim_tp_snapshot_reuses_total")
	t.mlogAppended += sumCounter(snap, "mlog_appended_total")
	t.mlogFlushes += sumCounter(snap, "mlog_flushes_total")
}

func (t *tally) addReplay(out sim.ReplayOutcome, sec float64) {
	t.analyzeSec += sec
	t.replayed += int64(out.Replay.ReplayedMessages)
}

// sumCounter adds up a counter over all its label sets.
func sumCounter(s obs.Snapshot, name string) int64 {
	var v int64
	for _, c := range s.Counters {
		if c.Name == name {
			v += c.Value
		}
	}
	return v
}

func frac[T int64 | uint64](num, den T) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// counts returns the counter metrics of layerCounts, except the ones the
// traced process measures around the run (gc.*, trace.overhead_frac).
func (t *tally) counts() map[string]float64 {
	return map[string]float64{
		"des.events":                      float64(t.events),
		"des.event_pool_hit_frac":         frac(t.poolHits, t.poolHits+t.poolMisses),
		"equeue.pushes":                   float64(t.pushes),
		"equeue.max_len":                  float64(t.maxLen),
		"equeue.chain_steps_per_pop":      frac(t.chainSteps, t.pops),
		"equeue.sweep_steps_per_pop":      frac(t.sweepSteps, t.pops),
		"equeue.resizes":                  float64(t.resizes),
		"pdes.windows":                    float64(t.windows),
		"pdes.serial_steps":               float64(t.serialSteps),
		"pdes.write_fences":               float64(t.writeFences),
		"pdes.mailbox_msgs":               float64(t.mailbox),
		"pdes.spin_yields":                float64(t.yields),
		"pdes.lane_imbalance":             t.imbalance,
		"mobile.app_msgs":                 float64(t.appMsgs),
		"mobile.forward_frac":             frac(t.forwards, t.appMsgs),
		"mobile.msg_pool_hit_frac":        frac(t.msgHits, t.msgHits+t.msgMisses),
		"workload.empty_receive_frac":     frac(t.emptyReceives, t.receives+t.emptyReceives),
		"protocol.ntot":                   float64(t.ntot),
		"protocol.forced_frac":            frac(t.forced, t.ntot),
		"protocol.piggyback_b_per_msg":    frac(t.piggyback, t.appMsgs),
		"protocol.tp_vector_copies":       float64(t.tpCopies),
		"protocol.tp_snapshot_reuse_frac": frac(t.tpReuses, t.tpCopies+t.tpReuses),
		"storage.checkpoints":             float64(t.checkpoints),
		"mlog.appended":                   float64(t.mlogAppended),
		"mlog.flushes":                    float64(t.mlogFlushes),
		"recovery.analyze_s":              t.analyzeSec,
		"recovery.replayed_msgs":          float64(t.replayed),
	}
}

const (
	metricGCCycles  = "/gc/cycles/total:gc-cycles"
	metricHeapBytes = "/memory/classes/heap/objects:bytes"
	mib             = 1 << 20
)

// executeTraced runs the workload once with every probe on, under a CPU
// and an allocation profile, and fills rep.Layer with the per-layer
// metrics (all but trace.overhead_frac, which needs an untraced run).
func executeTraced(jobs []job) (*runReport, error) {
	t := &tally{}
	runtime.GC()
	cycles := readMetric(metricGCCycles)
	stopSampler := sampleHeapPeak()
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	rep := execute(jobs, t)
	pprof.StopCPUProfile()
	heapPeak := stopSampler()
	cycles = readMetric(metricGCCycles) - cycles

	runtime.GC() // the allocation profile is as of the last completed GC
	var allocs bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&allocs, 0); err != nil {
		return nil, fmt.Errorf("alloc profile: %w", err)
	}
	cpuProf, err := parseProfile(cpu.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	allocProf, err := parseProfile(allocs.Bytes())
	if err != nil {
		return nil, fmt.Errorf("alloc profile: %w", err)
	}
	ci, ai := cpuProf.typeIndex("cpu"), allocProf.typeIndex("alloc_space")
	if ci < 0 || ai < 0 {
		return nil, fmt.Errorf("profiles lack cpu or alloc_space samples")
	}
	rep.Layer = t.counts()
	cpuBy, allocBy := splitByLayer(cpuProf, ci), splitByLayer(allocProf, ai)
	var cpuTotal int64
	for _, v := range cpuBy {
		cpuTotal += v
	}
	for _, l := range layers {
		rep.Layer[l+".cpu_frac"] = frac(cpuBy[l], cpuTotal)
		rep.Layer[l+".alloc_mb"] = float64(allocBy[l]) / mib
	}
	rep.Layer["gc.cycles"] = float64(cycles)
	rep.Layer["gc.heap_peak_mb"] = float64(heapPeak) / mib
	return rep, nil
}

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// sampleHeapPeak polls the heap size (live plus not yet swept objects)
// every few milliseconds until the returned stop func is called, which
// waits for the poller to exit and returns the largest size seen.
func sampleHeapPeak() (stop func() uint64) {
	done := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var most uint64
		for {
			most = max(most, readMetric(metricHeapBytes))
			select {
			case <-done:
				peak <- most
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-peak
	}
}
