// Command mhsim runs one simulation of the paper's mobile checkpointing
// study and prints per-protocol results.
//
// Example (the environment of Figure 2 at T_switch = 1000):
//
//	mhsim -tswitch 1000 -pswitch 0.8 -h 0 -seeds 5
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mobickpt/internal/des"
	"mobickpt/internal/mlog"
	"mobickpt/internal/obs"
	"mobickpt/internal/pdes"
	"mobickpt/internal/sim"
	"mobickpt/internal/stats"
)

func main() {
	var (
		hosts      = flag.Int("hosts", 10, "number of mobile hosts")
		mss        = flag.Int("mss", 5, "number of mobile support stations")
		tswitch    = flag.Float64("tswitch", 1000, "mean cell permanence time of slow hosts")
		pswitch    = flag.Float64("pswitch", 1.0, "probability of hand-off (vs disconnection)")
		psend      = flag.Float64("ps", 0.4, "probability a communication is a send")
		pcomm      = flag.Float64("pcomm", 0.05, "probability an operation is a communication")
		contention = flag.Bool("contention", false, "model per-cell wireless channel contention")
		het        = flag.Float64("h", 0, "heterogeneity degree H in [0,1]")
		horizon    = flag.Float64("horizon", 100000, "simulated time units")
		seeds      = flag.Int("seeds", 1, "number of replication seeds")
		seed       = flag.Uint64("seed", 1, "base seed")
		workers    = flag.Int("workers", 0, "worker pool size for multi-seed replication; 0 = GOMAXPROCS")
		protos     = flag.String("protocols", "TP,BCS,QBC", "comma-separated protocols (TP,BCS,QBC,UNC,CL,PS,MS)")
		snapshot   = flag.Float64("snapshot", 100, "snapshot period for CL/PS")
		verbose    = flag.Bool("v", false, "print substrate counters and energy details, and report simulated-time progress to stderr")
		jsonOut    = flag.Bool("json", false, "emit the single-run result as JSON")
		checks     = flag.Bool("checks", false, "run the invariant checker during the simulation (fails on any violation)")
		audit      = flag.Bool("audit", false, "run the determinism/ablation audit: re-run each protocol alone and require exact agreement with the shared trace")
		logMode    = flag.String("log", "off", "MSS message logging: off, pessimistic or optimistic")
		queue      = flag.String("queue", "heap", "event-queue implementation: heap or calendar (never changes results)")
		engine     = flag.String("engine", "sequential", "execution engine: sequential, conservative or timewarp (never changes results)")
		lanes      = flag.Int("lanes", 0, "logical processes for parallel engines; 0 = GOMAXPROCS")
		logBatch   = flag.Int("logbatch", 0, "optimistic flush batch (0 = mlog default)")
		metrics    = flag.Bool("metrics", false, "print the run's metrics as Prometheus text after the results (single-run mode)")
		timeline   = flag.String("timeline", "", "write a per-host Chrome trace-event timeline (Perfetto-loadable) to this file (single-run mode)")
		laneTl     = flag.String("lanetimeline", "", "write the engine's lane-execution timeline (window spans; parallel engines only, engine-dependent) to this file (single-run mode)")
		probes     = flag.Bool("probes", false, "enable engine-internals probes (queue/pool/lane counters); adds a probes block to -json output (single-run mode)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		replayFile = flag.String("replay-schedule", "", "differential replay (E24): re-execute a recorded live bundle (examples/live -record) through the deterministic engine and diff the decision logs; exits 1 on any divergence")
		perturb    = flag.Int("replay-perturb", -1, "with -replay-schedule: flip the n-th replayed checkpoint decision before diffing (proves the gate can fail)")
	)
	flag.Parse()

	stopProfiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mhsim:", err)
		os.Exit(2)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "mhsim:", err)
		}
	}()

	cfg := sim.DefaultConfig()
	cfg.Mobile.NumHosts = *hosts
	cfg.Mobile.NumMSS = *mss
	cfg.Workload.TSwitch = *tswitch
	cfg.Workload.PSwitch = *pswitch
	cfg.Workload.PSend = *psend
	cfg.Workload.PComm = *pcomm
	cfg.Mobile.Contention = *contention
	cfg.Workload.Heterogeneity = *het
	cfg.Horizon = des.Time(*horizon)
	cfg.SnapshotPeriod = des.Time(*snapshot)
	cfg.Checks = *checks
	mode, err := mlog.ParseMode(*logMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mhsim:", err)
		os.Exit(2)
	}
	cfg.MessageLog = mode
	cfg.LogFlushBatch = *logBatch
	if *replayFile != "" {
		runReplay(*replayFile, *perturb, *checks, mode, *logBatch)
		return
	}
	cfg.Queue, err = des.ParseQueueKind(*queue)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mhsim:", err)
		os.Exit(2)
	}
	cfg.Engine, err = pdes.ParseMode(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mhsim:", err)
		os.Exit(2)
	}
	cfg.Lanes = *lanes
	if cfg.Checks && mode != mlog.Off {
		// The log-reconciliation invariants compare the log against the
		// recorded trace.
		cfg.RecordTrace = true
	}
	cfg.Protocols = nil
	for _, p := range strings.Split(*protos, ",") {
		cfg.Protocols = append(cfg.Protocols, sim.ProtocolName(strings.TrimSpace(p)))
	}
	if *verbose && cfg.Engine == pdes.ModeSequential {
		// Parallel runs have no single clock to report against.
		cfg.Progress = func(now des.Time, fired uint64) {
			fmt.Fprintf(os.Stderr, "mhsim: t=%.0f/%.0f (%.0f%%) events=%d\n",
				float64(now), float64(cfg.Horizon), 100*float64(now)/float64(cfg.Horizon), fired)
		}
	}
	if (*metrics || *timeline != "" || *laneTl != "" || *probes) && (*seeds > 1 || *audit) {
		fmt.Fprintln(os.Stderr, "mhsim: -metrics, -timeline, -lanetimeline and -probes need single-run mode (-seeds 1, no -audit)")
		os.Exit(2)
	}

	if *audit {
		cfg.Checks = true
		n := *seeds
		if n < 1 {
			n = 1
		}
		if err := sim.Audit(cfg, sim.Seeds(*seed, n)); err != nil {
			fmt.Fprintln(os.Stderr, "mhsim: audit failed:", err)
			os.Exit(1)
		}
		fmt.Printf("audit passed: %d protocol(s), %d seed(s), shared trace == solo re-simulation\n",
			len(cfg.Protocols), n)
		return
	}

	if *seeds <= 1 {
		cfg.Seed = *seed
		if *metrics {
			cfg.Metrics = obs.NewRegistry()
		}
		if *timeline != "" {
			cfg.Timeline = obs.NewTimeline()
		}
		if *laneTl != "" {
			cfg.LaneTimeline = obs.NewTimeline()
		}
		cfg.Probes = *probes
		res, err := sim.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mhsim:", err)
			os.Exit(1)
		}
		if *timeline != "" {
			if err := writeTimeline(*timeline, cfg.Timeline); err != nil {
				fmt.Fprintln(os.Stderr, "mhsim:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "mhsim: wrote timeline %s (%d events)\n", *timeline, cfg.Timeline.Len())
		}
		if *laneTl != "" {
			if err := writeTimeline(*laneTl, cfg.LaneTimeline); err != nil {
				fmt.Fprintln(os.Stderr, "mhsim:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "mhsim: wrote lane timeline %s (%d events)\n", *laneTl, cfg.LaneTimeline.Len())
		}
		if *jsonOut {
			if err := res.ExportJSON(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "mhsim:", err)
				os.Exit(1)
			}
			return
		}
		printRun(res, *verbose)
		if cfg.Metrics != nil {
			fmt.Println()
			if err := cfg.Metrics.Snapshot().WritePrometheus(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "mhsim:", err)
				os.Exit(1)
			}
		}
		return
	}

	sum, err := sim.ReplicateParallel(cfg, sim.Seeds(*seed, *seeds), *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mhsim:", err)
		os.Exit(1)
	}
	tab := stats.NewTable(
		fmt.Sprintf("Ntot over %d seeds (Tswitch=%.0f Pswitch=%.2f Ps=%.2f H=%.0f%%)",
			*seeds, *tswitch, *pswitch, *psend, *het*100),
		"protocol", "mean", "min", "max", "spread")
	for _, p := range sum.Protocols {
		tab.AddRow(string(p.Name),
			fmt.Sprintf("%.1f", p.Ntot.Mean()),
			fmt.Sprintf("%.0f", p.Ntot.Min()),
			fmt.Sprintf("%.0f", p.Ntot.Max()),
			fmt.Sprintf("%.1f%%", p.Ntot.RelSpread()*100))
	}
	fmt.Print(tab)
}

func writeTimeline(path string, tl *obs.Timeline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tl.Export(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printRun(res *sim.Result, verbose bool) {
	tab := stats.NewTable(
		fmt.Sprintf("single run, seed %d, horizon %.0f", res.Config.Seed, float64(res.Config.Horizon)),
		"protocol", "Ntot", "basic", "forced", "piggyback(B)", "ctrlMsgs")
	for _, pr := range res.Protocols {
		tab.AddRow(string(pr.Name),
			fmt.Sprint(pr.Ntot), fmt.Sprint(pr.Basic), fmt.Sprint(pr.Forced),
			fmt.Sprint(pr.PiggybackBytes), fmt.Sprint(pr.CtrlMessages))
	}
	fmt.Print(tab)
	if res.Config.MessageLog != mlog.Off {
		lt := stats.NewTable(
			fmt.Sprintf("MSS message log (%s)", res.Config.MessageLog),
			"protocol", "appended", "flushes", "stable(B)", "handoffs", "xfer(B)", "pruned")
		for _, pr := range res.Protocols {
			lt.AddRow(string(pr.Name),
				fmt.Sprint(pr.Log.Appended), fmt.Sprint(pr.Log.Flushes),
				fmt.Sprint(pr.Log.StableBytes), fmt.Sprint(pr.Log.Handoffs),
				fmt.Sprint(pr.Log.TransferBytes), fmt.Sprint(pr.Log.Pruned))
		}
		fmt.Print(lt)
	}
	if verbose {
		fmt.Printf("\nworkload: %+v\n", res.Workload)
		fmt.Printf("network:  %+v\n", res.Network)
		for _, pr := range res.Protocols {
			fmt.Printf("%s energy: %s  storage: %+v\n", pr.Name, pr.Energy, pr.Storage)
		}
		fmt.Printf("DES events fired: %d\n", res.EventsFired)
		if p := res.Probes; p != nil {
			fmt.Printf("probes: queue[%s] pushes=%d pops=%d maxlen=%d chain=%d sweep=%d resizes=%d\n",
				p.GlobalQueue.Kind, p.GlobalQueue.Pushes, p.GlobalQueue.Pops, p.GlobalQueue.MaxLen,
				p.GlobalQueue.ChainSteps, p.GlobalQueue.SweepSteps, p.GlobalQueue.Resizes)
			fmt.Printf("probes: event pool hit=%d miss=%d recycled=%d; message pool hit=%d miss=%d recycled=%d\n",
				p.EventPool.Hits, p.EventPool.Misses, p.EventPool.Recycled,
				p.MessagePool.Hits, p.MessagePool.Misses, p.MessagePool.Recycled)
			for i, lp := range p.LaneProbes {
				fmt.Printf("probes: lane %d events=%d windows=%d mailbox=%d (peak %d) spinyields=%d queue{push=%d pop=%d maxlen=%d}\n",
					i, lp.Events, lp.Windows, lp.MailboxMsgs, lp.MailboxPeak, lp.SpinYields,
					p.LaneQueues[i].Pushes, p.LaneQueues[i].Pops, p.LaneQueues[i].MaxLen)
			}
		}
		if st := res.PDES; st != nil {
			fmt.Printf("pdes: mode=%s lanes=%d processed=%d windows=%d serial=%d fences=%d global=%d\n",
				st.Mode, st.Lanes, st.Processed, st.Windows, st.SerialSteps, st.WriteFences, st.GlobalEvents)
		}
	}
}
