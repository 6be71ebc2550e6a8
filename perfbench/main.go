// Command perfbench is the repository benchmark. One invocation measures
// one workload: the parent process validates the environment, runs every
// execution of the workload in a child process of its own (so peak RSS
// and CPU time belong to that execution alone), checks every output and
// prints the metrics.
//
//	perfbench -workload paper -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it repeats the untraced workload for -seconds after one
// untimed warm-up execution, times a set-up-only run several times, and
// reports the end-to-end metrics as medians over the executions the host
// disturbed least (see leastStolen). With -trace 1 it runs the workload once untraced and once
// traced (engine probes, metrics registry, CPU and alloc profiles) and
// reports the per-layer metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// perfbench/run.sh builds and runs it from the repository root.
package main

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// figureCSV holds the committed Figure 6 means at seed 1, relative to
// the repository root the benchmark runs from.
const figureCSV = "results/figure6.csv"

// Set-up is timed in child processes, each repeating the set-up-only runs
// for its part of setupShare of the measuring time (at least once), until
// they have run for setupShare of it together and there are minSetupProcs
// of them. A workload whose single set-up process outlasts setupShare
// alone stops at one process. setup_s is the median of the per-process
// medians of the least stolen processes, so neither one slow repetition
// nor one slow process moves it.
const (
	minSetupProcs  = 3
	setupShare     = 0.25
	setupProcShare = setupShare / minSetupProcs
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	commit   string
	child    string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to measure: "+workloadNames())
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long to repeat the measured workload")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.commit, "commit", "unknown", "commit SHA to stamp the result with")
	fs.StringVar(&o.child, "child", "", "internal: run one execution (run, setup or traced) and report it as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", o.workload, workloadNames())
		return 2
	}
	if o.child != "" {
		return runChild(o, w, stdout, stderr)
	}
	if err := checkEnv(o, w.laneCount()); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := validateMetrics(endToEnd, perLayer()); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	res, err := measure(o, w, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	printResult(stdout, o, w, res)
	if !res.correct() {
		return 1
	}
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// checkEnv refuses oversubscription: neither the workload's lanes nor
// GOMAXPROCS may exceed the CPUs this process may run on, so a parallel
// figure never measures time-slicing.
func checkEnv(o options, lanes int) error {
	nproc := runtime.NumCPU()
	if lanes > nproc {
		return fmt.Errorf("%d lanes exceed nproc (%d)", lanes, nproc)
	}
	if g := runtime.GOMAXPROCS(0); g > nproc {
		return fmt.Errorf("GOMAXPROCS %d exceeds nproc (%d)", g, nproc)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace %d: need 0 or 1", o.trace)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds %v: need > 0", o.seconds)
	}
	return nil
}

// childReport is one child execution as the parent sees it: the child's
// own report plus the process accounting from wait4.
type childReport struct {
	runReport
	SetupSec []float64 `json:"setup_sec,omitempty"`
	CPU      float64   `json:"-"`
	RSSMiB   float64   `json:"-"`
	// Steal is the share of the machine's CPU time the hypervisor gave to
	// other guests while the child ran.
	Steal float64 `json:"-"`
}

// runChild is the child side: execute, print the report as JSON.
func runChild(o options, w workload, stdout, stderr io.Writer) int {
	jobs := w.plan(o.seed)
	var rep childReport
	switch o.child {
	case "run":
		rep.runReport = *execute(jobs, nil)
	case "traced":
		r, err := executeTraced(jobs)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: traced run: %v\n", err)
			return 1
		}
		rep.runReport = *r
	case "setup":
		jobs = setupJobs(jobs)
		start := time.Now()
		for len(rep.SetupSec) == 0 || time.Since(start).Seconds() < o.seconds*setupProcShare {
			r := execute(jobs, nil)
			rep.SetupSec = append(rep.SetupSec, r.RunSec)
			rep.Calls = append(rep.Calls, r.Calls...)
		}
	default:
		fmt.Fprintf(stderr, "perfbench: unknown -child %q\n", o.child)
		return 2
	}
	if err := json.NewEncoder(stdout).Encode(&rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// spawn runs one child execution of the workload and waits for it.
func spawn(o options, workload, mode string, stderr io.Writer) (*childReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self,
		"-child", mode, "-workload", workload,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.GOMAXPROCS(0)))
	// The child dies with this process, so no execution outlives a
	// measurement that is cut short.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	steal0, t0 := stealTicks(), time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child of %s: %w", mode, workload, err)
	}
	el, steal := time.Since(t0).Seconds(), float64(stealTicks()-steal0)/userHZ
	var rep childReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("%s child of %s: bad report: %w", mode, workload, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.CPU = tvSec(ru.Utime) + tvSec(ru.Stime)
		rep.RSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	rep.Steal = steal / (el * float64(runtime.NumCPU()))
	return &rep, nil
}

// userHZ is the unit of the times in /proc/stat: 1/100 s on every Linux
// architecture Go supports.
const userHZ = 100

// stealTicks reads the machine's steal time from /proc/stat: the ticks in
// which its virtual CPUs were ready to run but the hypervisor ran another
// guest. It is 0 where the kernel does not report it.
func stealTicks() uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseUint(f[8], 10, 64)
	return v
}

// leastStolen keeps the executions whose steal share is at most the
// median of the run's: at least half of them. On a shared host the
// hypervisor's steal comes in bursts that slow an execution by more than
// the CPU time it takes, so timing only the calmer half keeps a burst
// from moving the run's medians. Where the kernel reports no steal, every
// share is 0 and every execution is kept.
func leastStolen(reps []*childReport) []*childReport {
	shares := make([]float64, len(reps))
	for i, rep := range reps {
		shares[i] = rep.Steal
	}
	m := median(shares)
	var kept []*childReport
	for _, rep := range reps {
		if rep.Steal <= m {
			kept = append(kept, rep)
		}
	}
	return kept
}

func tvSec(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// result is one measurement: the metrics and the operation tallies.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string
	// timing says which executions the medians are taken over.
	timing string
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// fail records n failed operations with the reason.
func (r *result) fail(n int, format string, args ...any) {
	r.failed += n
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check counts a child's calls as attempted, and as failed where a call
// errored or its digest or event count differs from the reference calls.
func (r *result) check(what string, rep *childReport, ref []call) {
	r.attempted += len(rep.Calls)
	if len(ref) > 0 && len(rep.Calls)%len(ref) != 0 {
		r.fail(len(rep.Calls), "%s: %d calls, the first run made %d", what, len(rep.Calls), len(ref))
		return
	}
	for i, c := range rep.Calls {
		switch {
		case c.Err != "":
			r.fail(1, "%s call %d: %s", what, i, c.Err)
		case len(ref) > 0 && c != ref[i%len(ref)]:
			r.fail(1, "%s call %d: output differs from the first run (digest %.12s, %d events)", what, i, c.Digest, c.Events)
		}
	}
}

// measure runs the workload's executions as children and checks them.
func measure(o options, w workload, stderr io.Writer) (*result, error) {
	r := &result{metrics: map[string]float64{}}
	var runs []*childReport
	var ref []call
	addRun := func(rep *childReport) {
		if ref == nil {
			ref = rep.Calls
		}
		r.check("run", rep, ref)
		if w.name == "paper" && o.seed == 1 {
			if err := checkFigure(rep.Ntot); err != nil {
				r.fail(len(rep.Ntot), "Figure 6: %v", err)
			}
		}
		runs = append(runs, rep)
	}

	if o.trace == 0 {
		// Repeat the workload while the next execution still fits in the
		// measuring time (at least twice). The first execution warms the
		// page cache and CPU clocks: it is checked but not timed.
		start, last := time.Now(), 0.0
		for len(runs) < 2 || time.Since(start).Seconds()+last <= o.seconds {
			t0 := time.Now()
			rep, err := spawn(o, w.name, "run", stderr)
			if err != nil {
				return nil, err
			}
			last = time.Since(t0).Seconds()
			addRun(rep)
		}
		var setups []*childReport
		var setupCalls []call
		budget := o.seconds * setupShare
		for start := time.Now(); ; {
			setup, err := spawn(o, w.name, "setup", stderr)
			if err != nil {
				return nil, err
			}
			if setupCalls == nil {
				setupCalls = setup.Calls[:len(setup.Calls)/len(setup.SetupSec)]
			}
			r.check("setup", setup, setupCalls)
			setups = append(setups, setup)
			// Processes that average more than the whole budget each
			// end the loop without reaching minSetupProcs.
			el := time.Since(start).Seconds()
			if el >= budget && (len(setups) >= minSetupProcs || el >= budget*float64(len(setups))) {
				break
			}
		}
		var setupSec, walls, evps, cpus, rss []float64
		for _, setup := range leastStolen(setups) {
			setupSec = append(setupSec, median(setup.SetupSec))
		}
		timed, steal := leastStolen(runs[1:]), 0.0
		for _, rep := range timed {
			steal = max(steal, rep.Steal)
			walls = append(walls, rep.Wall)
			evps = append(evps, float64(rep.Events)/rep.RunSec)
			cpus = append(cpus, rep.CPU)
			rss = append(rss, rep.RSSMiB)
		}
		r.timing = fmt.Sprintf("timed %d of %d executions after the warm-up, host steal at most %.1f%% of CPU time",
			len(timed), len(runs)-1, 100*steal)
		r.metrics["wall_s"] = median(walls)
		r.metrics["setup_s"] = median(setupSec)
		r.metrics["events_per_s"] = median(evps)
		r.metrics["cpu_s"] = median(cpus)
		r.metrics["peak_rss_mb"] = median(rss)
	} else {
		plain, err := spawn(o, w.name, "run", stderr)
		if err != nil {
			return nil, err
		}
		addRun(plain)
		traced, err := spawn(o, w.name, "traced", stderr)
		if err != nil {
			return nil, err
		}
		addRun(traced)
		for k, v := range traced.Layer {
			r.metrics[k] = v
		}
		r.metrics["trace.overhead_frac"] = traced.Wall/plain.Wall - 1
	}

	if w.name == seqWorkload {
		storeReference(o, ref, stderr)
	}
	if w.lanes {
		// The parallel engine must reproduce the sequential run exactly.
		seq, err := seqReference(o, r, stderr)
		if err != nil {
			return nil, err
		}
		for _, rep := range runs {
			for i, c := range rep.Calls {
				if i >= len(seq) || c.Digest != seq[i].Digest {
					r.fail(1, "call %d: digest %.12s differs from %s's", i, c.Digest, seqWorkload)
				}
			}
		}
	}
	return r, nil
}

// seqWorkload is the sequential run every lanes workload must reproduce.
const seqWorkload = "scale-seq"

// referencePath names the cached scale-seq calls for o.seed, keyed by a
// hash of this executable so a rebuilt program never reads a stale
// reference. The cache sits next to the executable, in the build
// directory.
func referencePath(o options) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	bin, err := os.ReadFile(self)
	if err != nil {
		return "", err
	}
	key := digest(bin)[:16]
	return filepath.Join(filepath.Dir(self), "ref", fmt.Sprintf("%s-%s-%d.json", seqWorkload, key, o.seed)), nil
}

// storeReference caches the calls of a scale-seq run. A failure to cache
// only costs a later lanes run a scale-seq execution of its own.
func storeReference(o options, calls []call, stderr io.Writer) {
	path, err := referencePath(o)
	if err == nil {
		b, _ := json.Marshal(calls) // plain struct slice: cannot fail
		if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = os.WriteFile(path, b, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: caching the %s reference: %v\n", seqWorkload, err)
	}
}

// seqReference returns scale-seq's calls at o.seed: cached by an earlier
// run of this executable, or else from a scale-seq execution that counts
// as attempted operations of this measurement.
func seqReference(o options, r *result, stderr io.Writer) ([]call, error) {
	if path, err := referencePath(o); err == nil {
		if b, err := os.ReadFile(path); err == nil {
			var calls []call
			if json.Unmarshal(b, &calls) == nil && len(calls) > 0 {
				return calls, nil
			}
		}
	}
	seq, err := spawn(o, seqWorkload, "run", stderr)
	if err != nil {
		return nil, err
	}
	r.check(seqWorkload+" reference", seq, nil)
	storeReference(o, seq.Calls, stderr)
	return seq.Calls, nil
}

// checkFigure compares the Figure 6 means of one paper execution at
// seed 1 against the committed table, cell by cell as the table prints
// them.
func checkFigure(ntot [][]int64) error {
	f, err := os.Open(figureCSV)
	if err != nil {
		return err
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return fmt.Errorf("%s: %w", figureCSV, err)
	}
	means := figureMeans(ntot)
	if len(rows) != len(means)+1 {
		return fmt.Errorf("%s has %d points, the sweep %d", figureCSV, len(rows)-1, len(means))
	}
	for p, row := range means {
		want := rows[p+1][1:]
		if len(want) != len(row) {
			return fmt.Errorf("point %s: %d protocols, want %d", rows[p+1][0], len(row), len(want))
		}
		for i, v := range row {
			if got := fmt.Sprintf("%.4g", v); got != want[i] {
				return fmt.Errorf("T_switch %s, %s: mean N_tot %s, committed %s", rows[p+1][0], rows[0][i+1], got, want[i])
			}
		}
	}
	return nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// stamp identifies where and how a result was measured, so rows from
// different commits and machines can be compared.
type stamp struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	OS         string `json:"goos"`
	Arch       string `json:"goarch"`
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Lanes      int    `json:"lanes"`
	Trace      int    `json:"trace"`
}

func newStamp(o options, w workload) stamp {
	return stamp{
		Commit: o.commit, Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload: w.name, Seed: o.seed, Lanes: w.laneCount(), Trace: o.trace,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes a readable table (every metric, including
// ops_failed_frac), the stamp, and the result line last.
func printResult(stdout io.Writer, o options, w workload, r *result) {
	set := endToEnd
	if o.trace == 1 {
		set = perLayer()
	}
	if r.timing != "" {
		fmt.Fprintln(stdout, r.timing)
	}
	for _, n := range r.notes {
		fmt.Fprintf(stdout, "FAILED: %s\n", n)
	}
	fmt.Fprintf(stdout, "%-34s %16s  %s\n", "metric ("+w.name+")", "value", "unit")
	out := make(map[string]metricValue, len(set))
	for _, m := range set {
		v := r.metrics[m.Name]
		out[m.Name] = metricValue{v, m.Unit}
		fmt.Fprintf(stdout, "%-34s %16.6g  %s\n", m.Name, v, m.Unit)
	}
	fmt.Fprintf(stdout, "%-34s %16.6g  %s\n", "ops_failed_frac", float64(r.failed)/float64(max(r.attempted, 1)), "frac")
	st, _ := json.Marshal(newStamp(o, w)) // plain struct: cannot fail
	fmt.Fprintf(stdout, "stamp %s\n", st)
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, out})
	fmt.Fprintf(stdout, "%s\n", line)
}
