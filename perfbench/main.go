// Command perfbench is the repository benchmark: closed-loop workloads that
// drive the public API of the soNUMA stack, check every result they read,
// and print end-to-end metrics (untraced runs) or per-layer metrics (traced
// runs). See README.md for the workloads and metric definitions; run it
// through run.sh, which builds it and the sonuma-node daemon first.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// env is what a workload needs from the command line to build its system.
type env struct {
	seed    uint64
	nodeBin string // prebuilt sonuma-node binary (kvs-proc)
	out     string // scratch directory for sockets and span files
	boots   int    // systems built so far, for unique scratch names
}

// system is one booted workload: a cluster, its services, and the clients
// that drive it.
type system interface {
	clients() []client
	// counters snapshots every public counter the layers expose. Called
	// only while no client is running.
	counters() (counters, error)
	// sweep re-reads the whole data set after the measured phase and
	// counts every mismatch against what the clients acknowledged.
	sweep(rec *recorder)
	// transport is the timing wrapper of a traced in-process system, or
	// nil.
	transport() *tracedTransport
	close() error
}

// client is one closed-loop caller, driven by a single goroutine.
type client interface {
	// step draws the next operation from the client's seeded stream,
	// times the call into rec and checks its result outside the timed
	// region.
	step(rec *recorder)
}

// workload is one named input set.
type workload struct {
	name    string
	warmOps int // calls per client before measuring, part of set-up
	params  map[string]any
	open    func(e *env, traced bool) (system, error)
	// daemons, if set, is measured after the calibration probes of this
	// workload's traced run, for the proc.* per-layer metrics.
	daemons *workload
}

var workloads = []*workload{rmcMix, kvsHotRead, kvsUpdate}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// result is the last line every run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload name, or \"all\"")
		seed    = fs.Uint64("seed", 1, "seed every input is derived from")
		seconds = fs.Int("seconds", 10, "length of the measured phase")
		trace   = fs.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
		nodeBin = fs.String("node-bin", "", "sonuma-node binary for kvs-proc")
		out     = fs.String("out", ".bench_build", "scratch directory")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	w := lookup(*name)
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	e := &env{seed: *seed, nodeBin: *nodeBin, out: *out}
	var (
		res *result
		rec runRecord
		err error
	)
	if *trace == 1 {
		res, rec, err = measureTraced(w, e, float64(*seconds))
	} else {
		res, rec, err = measure(w, e, float64(*seconds))
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rec.Workload, rec.Seed, rec.Seconds, rec.Trace = w.name, *seed, *seconds, *trace
	rec.Host = host()
	rec.Params = w.params
	if *trace == 1 && w.daemons != nil {
		rec.Params = map[string]any{"daemon_phase": w.daemons.params}
		for k, v := range w.params {
			rec.Params[k] = v
		}
	}
	printTable(stdout, w.name, res)
	line, _ := json.Marshal(map[string]any{"run": rec})
	fmt.Fprintln(stdout, string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runRecord describes the host and the run next to every result.
type runRecord struct {
	Workload     string         `json:"workload"`
	Seed         uint64         `json:"seed"`
	Seconds      int            `json:"seconds"`
	Trace        int            `json:"trace"`
	Host         hostInfo       `json:"host"`
	Params       map[string]any `json:"params"`
	ReadSamples  int            `json:"read_samples"`
	WriteSamples int            `json:"write_samples"`
	SetupRunsS   []float64      `json:"setup_runs_s,omitempty"`
	SpanFile     string         `json:"span_file,omitempty"`
	Errors       []string       `json:"errors,omitempty"`
}

type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
}

func host() hostInfo {
	h := hostInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && h.Commit != "unknown" {
			h.Commit += "+modified"
		}
	}
	return h
}

// boot builds one system and warms it up; the returned duration runs from
// the start of cluster construction to the end of the warm-up, i.e. to
// where the first measured call can start. Failed warm-up calls are
// returned in the recorder.
func boot(w *workload, e *env, traced bool) (system, *recorder, float64, error) {
	start := time.Now()
	sys, err := w.open(e, traced)
	e.boots++
	if err != nil {
		return nil, nil, 0, err
	}
	warm := newRecorder(start, 0, false)
	for _, r := range drive(sys.clients(), w.warmOps, 0, false, 1024) {
		warm.absorb(r)
	}
	return sys, warm, time.Since(start).Seconds(), nil
}

// drive runs every client on its own goroutine, either for ops calls each
// (ops > 0) or until the phase deadline. It returns one recorder per
// client.
func drive(cls []client, ops int, seconds float64, traced bool, capacity int) []*recorder {
	base := time.Now()
	deadline := int64(seconds * 1e9)
	recs := make([]*recorder, len(cls))
	for i := range recs {
		recs[i] = newRecorder(base, capacity, traced)
	}
	var wg sync.WaitGroup
	for i, c := range cls {
		wg.Add(1)
		go func(c client, r *recorder) {
			defer wg.Done()
			if ops > 0 {
				for n := 0; n < ops; n++ {
					c.step(r)
				}
				return
			}
			for r.last < deadline {
				c.step(r)
			}
		}(c, recs[i])
	}
	wg.Wait()
	return recs
}

// instances is how many times an untraced run builds and measures its
// system.
const instances = 3

// measure is an untraced run. It builds the workload's system instances
// times and measures each for an equal share of the run, so that setup_s
// is the median of several set-ups and no single built system decides the
// result. Every call is checked as it returns; the final sweep of the whole
// data set runs on the last instance only.
func measure(w *workload, e *env, seconds float64) (*result, runRecord, error) {
	var (
		rec    runRecord
		phases []*phase
		wins   []window
		setups []float64
	)
	res := &result{Correct: true}
	for i := 0; i < instances; i++ {
		p, d, err := bootAndRun(w, e, seconds/instances, false, i == instances-1)
		if err != nil {
			return nil, rec, err
		}
		r := p.result()
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		res.Correct = res.Correct && r.Correct
		reads, writes := p.sampleCounts()
		rec.ReadSamples += reads
		rec.WriteSamples += writes
		rec.Errors = append(rec.Errors, p.errors()...)
		wins = append(wins, p.windows()...)
		p.dropSamples()
		phases = append(phases, p)
		setups = append(setups, d)
	}
	res.Metrics = endToEnd(phases, wins, res, median(setups))
	rec.SetupRunsS = setups
	return res, rec, nil
}

// measureTraced is a traced run. It measures the workload twice, each for
// half the run: first untraced, exactly as users call the API, for the
// counter and runtime deltas and the per-op-type latency split; then with
// the fabric timing wrapper and per-call classification, for spans and
// the tracing overhead. Calibration probes follow, on their own cluster,
// and last the workload's daemon phase, if it has one, for a quarter of
// the run.
func measureTraced(w *workload, e *env, seconds float64) (*result, runRecord, error) {
	var rec runRecord
	half := seconds / 2
	plain, _, err := bootAndRun(w, e, half, false, true)
	if err != nil {
		return nil, rec, err
	}
	traced, _, err := bootAndRun(w, e, half, true, true)
	if err != nil {
		return nil, rec, err
	}
	cal, err := calibrate()
	if err != nil {
		return nil, rec, err
	}
	var daemons *phase
	daemonSetup := 0.0
	if w.daemons != nil {
		daemons, daemonSetup, err = bootAndRun(w.daemons, e, half/2, false, true)
		if err != nil {
			return nil, rec, fmt.Errorf("%s: %w", w.daemons.name, err)
		}
	}
	spanFile, err := writeSpans(e.out, w.name, traced)
	if err != nil {
		return nil, rec, err
	}
	res := plain.result()
	tres := traced.result()
	res.Attempted += tres.Attempted
	res.Failed += tres.Failed
	res.Correct = res.Correct && tres.Correct
	if daemons != nil {
		dres := daemons.result()
		res.Attempted += dres.Attempted
		res.Failed += dres.Failed
		res.Correct = res.Correct && dres.Correct
		rec.Errors = append(rec.Errors, daemons.errors()...)
	}
	res.Metrics = perLayer(plain, traced, cal, w == rmcMix)
	daemonMetrics(res.Metrics, daemons, daemonSetup)
	rec.ReadSamples, rec.WriteSamples = plain.sampleCounts()
	rec.SpanFile = spanFile
	rec.Errors = append(append(plain.errors(), traced.errors()...), rec.Errors...)
	return res, rec, nil
}

// bootAndRun builds one system, measures it, sweeps it if asked and tears
// it down. It also returns the set-up time.
func bootAndRun(w *workload, e *env, seconds float64, traced, sweep bool) (*phase, float64, error) {
	sys, warm, setup, err := boot(w, e, traced)
	if err != nil {
		return nil, 0, err
	}
	p, err := runPhase(sys, seconds, traced)
	if err != nil {
		return nil, 0, errors.Join(err, sys.close())
	}
	p.after.absorb(warm)
	if sweep {
		sys.sweep(p.after)
	}
	if err := sys.close(); err != nil {
		p.fail("close: %v", err)
	}
	return p, setup, nil
}

// runAll runs every workload in its own process, one after the other, and
// prints one table of their metrics.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	var names []string
	byWorkload := map[string]*result{}
	for _, w := range workloads {
		wargs := append(withoutFlag(args, "workload"), "-workload", w.name)
		cmd := exec.Command(self, wargs...)
		cmd.Stderr = stderr
		outb, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintln(stdout, lines[len(lines)-2]) // the run record
		names = append(names, w.name)
		byWorkload[w.name] = &r
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, m := range r.Metrics {
			all.Metrics[w.name+"."+k] = m
		}
	}
	printMatrix(stdout, names, byWorkload)
	line, _ := json.Marshal(all)
	fmt.Fprintln(stdout, string(line))
	return 0
}

// withoutFlag drops -name/--name and its value from args.
func withoutFlag(args []string, name string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		if a == name {
			i++
			continue
		}
		if strings.HasPrefix(a, name+"=") {
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func printTable(w io.Writer, name string, r *result) {
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	printVerdict(w, name, r)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
}

func printMatrix(w io.Writer, names []string, rs map[string]*result) {
	keys := map[string]string{}
	for _, r := range rs {
		for k, m := range r.Metrics {
			keys[k] = m.Unit
		}
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	fmt.Fprintf(w, "%-32s %-6s", "metric", "unit")
	for _, n := range names {
		fmt.Fprintf(w, " %14s", n)
	}
	fmt.Fprintln(w)
	for _, k := range sorted {
		fmt.Fprintf(w, "%-32s %-6s", k, keys[k])
		for _, n := range names {
			fmt.Fprintf(w, " %14.4f", rs[n].Metrics[k].Value)
		}
		fmt.Fprintln(w)
	}
	for _, n := range names {
		printVerdict(w, n, rs[n])
	}
}

func printVerdict(w io.Writer, name string, r *result) {
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d fail_frac=%g\n",
		name, r.Correct, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
}
