package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"mobickpt/internal/des"
	"mobickpt/internal/mlog"
	"mobickpt/internal/mobile"
	"mobickpt/internal/pdes"
	"mobickpt/internal/sim"
)

// job is one sim.Run call of a workload; analyze additionally puts every
// protocol of the run through sim.AnalyzeReplay (a crash of host 0 at the
// horizon), as the E18 recovery analysis does.
type job struct {
	cfg     sim.Config
	analyze bool
}

// workload is one fixed batch input: its jobs run in order, to
// completion, from one caller.
type workload struct {
	name string
	why  string
	// lanes reports whether the workload runs on scaleLanes parallel
	// lanes.
	lanes bool
	plan  func(seed uint64) []job
}

// scaleLanes is the lane count of the parallel workload.
const scaleLanes = 2

// laneCount is the number of lanes the workload runs on.
func (w workload) laneCount() int {
	if w.lanes {
		return scaleLanes
	}
	return 1
}

// Figure 6 is swept over this many seeds, like cmd/figures' default.
const figureSeeds = 3

var workloads = []workload{
	{
		name: "paper",
		why:  "the paper's own n=10 world: Figure 6 over 3 seeds plus one E18 recovery run; work is in workload/rng, protocol callbacks and the heap",
		plan: paperPlan,
	},
	{
		name: "tp-wall",
		why:  "TP alone at n=2000: O(n) piggyback vector copies make the protocol-callback layer dominate",
		plan: func(seed uint64) []job {
			p := sim.ScalePoint{Hosts: 2000, Horizon: 1000, Protocols: []sim.ProtocolName{sim.TP}}
			return []job{{cfg: p.Config(seed, des.QueueCalendar)}}
		},
	},
	{
		name: "scale-seq",
		why:  "BCS+QBC at n=3e4 on the sequential engine: a 3e4-deep pending set, so start-up, the event queue and GC dominate",
		plan: func(seed uint64) []job { return []job{{cfg: scaleConfig(seed)}} },
	},
	{
		name:  "scale-lanes",
		why:   "the scale-seq world and seed on 2 Time Warp lanes: the same events scheduled through pdes.Core instead of des.Solo",
		lanes: true,
		plan: func(seed uint64) []job {
			c := scaleConfig(seed)
			c.Engine = pdes.ModeTimeWarp
			c.Lanes = scaleLanes
			return []job{{cfg: c}}
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaleConfig is the world of both scale workloads. Its 3e4 hosts keep
// the quadratic des.Solo start-up the larger part of scale-seq's wall time
// while one execution stays near 2 s, so a run takes the median of many.
func scaleConfig(seed uint64) sim.Config {
	p := sim.ScalePoint{Hosts: 30_000, Horizon: 60, Protocols: []sim.ProtocolName{sim.BCS, sim.QBC}}
	return p.Config(seed, des.QueueCalendar)
}

// paperPlan is Figure 6 (P_switch 0.8, H=30%, every T_switch point,
// TP/BCS/QBC at the paper's horizon) point by point over figureSeeds
// seeds, then the BenchmarkReplayRecovery environment at the paper's
// horizon with QBC+UNC, a recorded trace and pessimistic MSS logs.
func paperPlan(seed uint64) []job {
	spec, err := sim.Figure(6)
	if err != nil {
		panic(err) // the paper's figures are compiled in
	}
	var jobs []job
	for _, ts := range spec.TSwitch {
		for _, s := range sim.Seeds(seed, figureSeeds) {
			c := spec.Apply(sim.DefaultConfig(), ts)
			c.Seed = s
			jobs = append(jobs, job{cfg: c})
		}
	}
	c := sim.DefaultConfig()
	c.Seed = seed
	c.Workload.PSwitch = 0.8
	c.Workload.PComm = 0.3
	c.Workload.DisconnectMean = c.Workload.TSwitch / 2
	c.Protocols = []sim.ProtocolName{sim.QBC, sim.UNC}
	c.RecordTrace = true
	c.MessageLog = mlog.Pessimistic
	return append(jobs, job{cfg: c, analyze: true})
}

// call is the outcome of one sim.Run or sim.AnalyzeReplay call.
type call struct {
	Digest string `json:"digest,omitempty"`
	Events uint64 `json:"events,omitempty"`
	Err    string `json:"err,omitempty"`
}

// runReport is what one execution of a workload reports to the parent.
type runReport struct {
	Wall       float64 `json:"wall"`
	RunSec     float64 `json:"run_sec"`
	AnalyzeSec float64 `json:"analyze_sec"`
	Events     uint64  `json:"events"`
	Calls      []call  `json:"calls"`
	// Ntot holds N_tot per protocol of every run not analyzed for
	// recovery, in job order (for paper: the Figure 6 sweep).
	Ntot [][]int64 `json:"ntot"`
	// Layer holds the per-layer metrics (traced runs only).
	Layer map[string]float64 `json:"layer,omitempty"`
}

// execute runs the workload's jobs once. With tally non-nil every run
// also enables the engine probes and a metrics registry, and tally
// accumulates what they report. Failed calls are recorded, not returned.
func execute(jobs []job, tally *tally) *runReport {
	rep := &runReport{}
	start := time.Now()
	for _, j := range jobs {
		cfg := j.cfg
		if tally != nil {
			cfg = instrument(cfg)
		}
		t0 := time.Now()
		res, err := sim.Run(cfg)
		rep.RunSec += time.Since(t0).Seconds()
		if err != nil {
			rep.Calls = append(rep.Calls, call{Err: err.Error()})
			continue
		}
		rep.Events += res.EventsFired
		if tally != nil {
			tally.addRun(res, cfg)
		}
		rep.Calls = append(rep.Calls, call{Digest: resultDigest(res), Events: res.EventsFired})
		if !j.analyze {
			row := make([]int64, len(res.Protocols))
			for i := range res.Protocols {
				row[i] = res.Protocols[i].Ntot
			}
			rep.Ntot = append(rep.Ntot, row)
			continue
		}
		n := res.FinalHosts
		for i := range res.Protocols {
			t0 := time.Now()
			out, err := sim.AnalyzeReplay(&res.Protocols[i], n, mobile.HostID(0), cfg.Horizon)
			d := time.Since(t0).Seconds()
			rep.AnalyzeSec += d
			if err != nil {
				rep.Calls = append(rep.Calls, call{Err: err.Error()})
				continue
			}
			if tally != nil {
				tally.addReplay(out, d)
			}
			rep.Calls = append(rep.Calls, call{Digest: digest([]byte(fmt.Sprintf("%+v", out)))})
		}
	}
	rep.Wall = time.Since(start).Seconds()
	return rep
}

// figureMeans averages consecutive groups of figureSeeds runs (one
// T_switch point each) per protocol.
func figureMeans(ntot [][]int64) [][]float64 {
	var out [][]float64
	for p := 0; p+figureSeeds <= len(ntot); p += figureSeeds {
		row := make([]float64, len(ntot[p]))
		for _, seedRow := range ntot[p : p+figureSeeds] {
			for i := range row {
				row[i] += float64(seedRow[i])
			}
		}
		for i := range row {
			row[i] /= figureSeeds
		}
		out = append(out, row)
	}
	return out
}

// resultDigest hashes the run's ExportJSON with the engine probes left
// out, so traced and untraced runs of one input hash alike.
func resultDigest(res *sim.Result) string {
	probes := res.Probes
	res.Probes = nil
	defer func() { res.Probes = probes }()
	h := sha256.New()
	if err := res.ExportJSON(h); err != nil {
		return "export error: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// setupJobs cuts every job's horizon to the smallest positive value, so
// sim.Run does only the world build, protocol Init and the initial
// scheduling of every host.
func setupJobs(jobs []job) []job {
	out := make([]job, len(jobs))
	for i, j := range jobs {
		j.cfg.Horizon = des.Time(math.SmallestNonzeroFloat64)
		out[i] = job{cfg: j.cfg}
	}
	return out
}
