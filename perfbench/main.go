// Command perfbench is the repository's end-to-end benchmark. One seeded
// program runs one of three workloads in a single process against the
// public APIs of the gateway (internal/serve), the settlement chain
// (internal/chain) and the mechanism core (internal/core):
//
//	solve    async gateway jobs over loopback HTTP (fleet, DBR, CGBD)
//	settle   the Fig. 3 settlement lifecycle on a fresh WAL chain
//	recover  crash recovery of a durable ledger with chain.RecoverOpts
//
// It checks every answer, and prints as its last line one JSON object with
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// See README.md in this directory for the metric definitions.
//
// Usage (from the root of a checkout, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload settle --seed 1 --seconds 36 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tradefl/internal/chain"
	"tradefl/internal/obs"
)

// setupRuns is how many times a run builds its workload; setup_s is the
// median, and the last build is the one measured.
const setupRuns = 5

// workload is one benchmark workload. A value is built by setup and used
// by one run.
type workload interface {
	// setup builds the run's inputs from the seed under dir. It is timed
	// as setup_s.
	setup(seed int64, dir string) error
	// teardown releases everything setup built.
	teardown()
	// clients is the closed-loop client count.
	clients() int
	// warmup is the number of ops each client runs and discards before
	// the timed phase.
	warmup() int
	// op runs operation k (ops are numbered from 0 across all clients).
	// tr is nil in untraced runs.
	op(k int, tr *tracer) opResult
	// check runs the answer checks that need the whole run (the solve
	// workload's reference re-solve); nil when there are none.
	check() error
	// verifyTxs returns the signed transactions the ops submit or replay,
	// for the chain.verify_us_per_tx measurement (nil if none).
	verifyTxs() []chain.Transaction
	// fixtureBytes is the on-disk size of the workload's fixture, for
	// chain.snapshot_mb (0 if none).
	fixtureBytes() int64
}

// opResult is the outcome of one operation.
type opResult struct {
	// lat is the op's timed wall latency; fixture copies and directory
	// clean-up around it are not timed.
	lat time.Duration
	// work is the number of work units the op completed (instances,
	// committed txs or recovered history txs).
	work int
	err  error
}

func newWorkload(name, mutate string) (workload, error) {
	switch name {
	case "solve":
		return &solveWL{mutate: mutate}, nil
	case "settle":
		return &settleWL{mutate: mutate}, nil
	case "recover":
		return &recoverWL{mutate: mutate}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want solve, settle, recover or all)", name)
}

var workloadNames = []string{"solve", "settle", "recover"}

// mutations lists the answer-check self-tests: each corrupts one answer
// (or injects one fault) so that its check must fail the run.
var mutations = map[string]string{
	"solve-unconverged": "solve",
	"solve-reference":   "solve",
	"settle-receipt":    "settle",
	"settle-payoff":     "settle",
	"settle-budget":     "settle",
	"settle-verify":     "settle",
	"recover-truncate":  "recover",
	"recover-root":      "recover",
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	dataDir  string
	mutate   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "solve, settle, recover, or all (each in a child process)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 30, "length of the measured phase in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.dataDir, "data-dir", ".bench_build/data", "directory for chain directories and profiles")
	flag.StringVar(&o.mutate, "mutate", "", "answer-check self-test to inject (see README.md)")
	flag.Parse()
	// Per-op info lines (every recovery logs one) would only add noise.
	obs.SetLogLevel(slog.LevelWarn)
	if o.workload == "all" {
		os.Exit(runAll(o))
	}
	if err := validate(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	os.Exit(runOne(o))
}

func validate(o options) error {
	if _, err := newWorkload(o.workload, ""); err != nil {
		return err
	}
	if o.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if o.trace != 0 && o.trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	if o.mutate != "" && mutations[o.mutate] != o.workload {
		return fmt.Errorf("--mutate %q does not apply to workload %q", o.mutate, o.workload)
	}
	return nil
}

// result is the last line of standard output.
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

// phase is what one timed loop measured.
type phase struct {
	lats      []time.Duration
	work      int64
	attempted int
	failed    int
	// cpu is the process CPU time of the phase, probes excluded.
	cpu time.Duration
	// probeMs is the mean host-speed probe time of the phase.
	probeMs float64
	// host is the machine-wide CPU time split over the phase.
	host     hostShares
	firstErr error
}

func (p *phase) ops() int { return len(p.lats) }

func (p *phase) cpuMsPerOp() float64 {
	return ms(p.cpu) / float64(max(p.attempted, 1))
}

// speed is how much faster the host ran this phase than the reference
// host: the reference probe time over the measured one.
func (p *phase) speed() float64 { return refProbeMs / p.probeMs }

func runOne(o options) int {
	dir, err := filepath.Abs(filepath.Join(o.dataDir, fmt.Sprintf("%s-%d", o.workload, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o700)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: data dir:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	w, setupS, err := buildWorkload(o, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
		return 1
	}
	defer w.teardown()

	next := &atomic.Int64{}
	warm := loop(w, next, nil, func(done int) bool { return done >= w.warmup() }, 0)
	runtime.GC()

	prov := provenance(o, dir)
	prov["warmup_ops_discarded"] = warm.attempted
	res := result{Metrics: map[string]metric{}}
	var timed phase
	if o.trace == 0 {
		timed = loop(w, next, nil, nil, seconds(o.seconds))
		var raw map[string]metric
		res.Metrics, raw = endToEnd(w, timed, setupS)
		for name, m := range raw {
			prov["raw_"+name] = m.Value
		}
	} else {
		var layers map[string]metric
		timed, layers = traced(w, next, o, dir)
		res.Metrics = layers
		// Instances never repeat within a run, so no solve may be served
		// from the fleet's warm-result memo.
		if v := layers["fleet.warm_hit_ratio"].Value; v != 0 && timed.firstErr == nil {
			timed.failed++
			timed.firstErr = fmt.Errorf("fleet.warm_hit_ratio = %v, want 0: an op was served from the memo", v)
		}
	}
	res.Attempted = timed.attempted + warm.attempted
	res.Failed = timed.failed + warm.failed
	checkErr := w.check()
	firstErr := warm.firstErr
	if firstErr == nil {
		firstErr = timed.firstErr
	}
	if checkErr != nil {
		res.Failed++
		res.Attempted++
		if firstErr == nil {
			firstErr = checkErr
		}
	}
	res.Correct = res.Failed == 0
	prov["ops_attempted"] = res.Attempted
	prov["ops_failed"] = res.Failed
	prov["timed_ops"] = timed.ops()
	prov["probe_ms"] = timed.probeMs
	prov["host_steal_pct"] = timed.host.steal
	prov["host_iowait_pct"] = timed.host.iowait
	prov["host_busy_pct"] = timed.host.busy
	if firstErr != nil {
		prov["first_error"] = firstErr.Error()
		fmt.Fprintln(os.Stderr, "perfbench: answer check failed:", firstErr)
	}
	printJSON(map[string]any{"provenance": prov})
	printJSON(res)
	if !res.Correct {
		return 1
	}
	return 0
}

// buildWorkload runs setup setupRuns times, keeping the last, and returns
// the median setup time in seconds.
func buildWorkload(o options, dir string) (workload, float64, error) {
	var times []float64
	var w workload
	for i := 0; i < setupRuns; i++ {
		if w != nil {
			w.teardown()
		}
		sub := filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(sub, 0o700); err != nil {
			return nil, 0, err
		}
		w, _ = newWorkload(o.workload, o.mutate)
		start := time.Now()
		err := w.setup(o.seed, sub)
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			w.teardown()
			return nil, 0, err
		}
	}
	return w, median(times), nil
}

// probeEvery is the interval between host-speed probes in a loop.
const probeEvery = 250 * time.Millisecond

// loop runs the closed loop: w.clients() goroutines each run ops back to
// back until stop reports true for the client's own op count, or until the
// deadline passes (when d > 0). Every probeEvery it holds the clients
// between ops and times one host-speed probe.
func loop(w workload, next *atomic.Int64, tr *tracer, stop func(done int) bool, d time.Duration) phase {
	n := w.clients()
	per := make([]phase, n)
	pr := newProber()
	var gate sync.RWMutex // each op holds it shared, the probe exclusively
	var probes []time.Duration
	probe := func() {
		gate.Lock()
		probes = append(probes, pr.run())
		gate.Unlock()
	}
	probe()
	quit, probed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(probed)
		t := time.NewTicker(probeEvery)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				probe()
			}
		}
	}()

	host0 := readHostTicks()
	cpu0 := cpuTime()
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			for done := 0; ; done++ {
				if stop != nil && stop(done) || d > 0 && !time.Now().Before(deadline) {
					return
				}
				gate.RLock()
				r := w.op(int(next.Add(1)-1), tr)
				gate.RUnlock()
				p.attempted++
				if r.err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = r.err
					}
					continue
				}
				p.lats = append(p.lats, r.lat)
				p.work += int64(r.work)
			}
		}(&per[c])
	}
	wg.Wait()
	close(quit)
	<-probed
	out := phase{cpu: cpuTime() - cpu0, host: readHostTicks().since(host0)}
	var probeSum time.Duration
	for _, d := range probes {
		probeSum += d
	}
	// The probe is single-threaded: its CPU time is its wall time.
	out.cpu -= probeSum
	out.probeMs = ms(probeSum) / float64(len(probes))
	for _, p := range per {
		out.lats = append(out.lats, p.lats...)
		out.work += p.work
		out.attempted += p.attempted
		out.failed += p.failed
		if out.firstErr == nil {
			out.firstErr = p.firstErr
		}
	}
	return out
}

// endToEnd derives the end-to-end metrics of an untraced phase: the
// reported values, with every time scaled to the reference host speed, and
// the raw values as measured.
func endToEnd(w workload, p phase, setupS float64) (reported, raw map[string]metric) {
	lat := make([]float64, len(p.lats))
	var busy float64
	for i, d := range p.lats {
		lat[i] = ms(d)
		busy += d.Seconds()
	}
	sort.Float64s(lat)
	raw = map[string]metric{
		"p50_ms":        {quantile(lat, 0.5), "ms"},
		"p90_ms":        {quantile(lat, 0.9), "ms"},
		"work_per_s":    {div(float64(p.work)*float64(w.clients()), busy), "1/s"},
		"cpu_ms_per_op": {p.cpuMsPerOp(), "ms"},
		"peak_rss_mb":   {peakRSSMiB(), "MiB"},
		"setup_s":       {setupS, "s"},
	}
	reported = map[string]metric{}
	for name, m := range raw {
		switch name {
		case "peak_rss_mb":
		case "work_per_s":
			m.Value /= p.speed()
		default:
			m.Value *= p.speed()
		}
		reported[name] = m
	}
	return reported, raw
}

// runAll runs every workload in a child process of this binary, forwards
// their output, and ends with one combined result whose metrics are named
// <workload>/<metric>.
func runAll(o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range workloadNames {
		out, code := runChild(self, name, o)
		lines := strings.Split(strings.TrimSpace(out), "\n")
		for _, l := range lines {
			fmt.Printf("%s: %s\n", name, l)
		}
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil || code != 0 {
			all.Correct = false
		}
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, m := range r.Metrics {
			all.Metrics[name+"/"+k] = m
		}
	}
	printJSON(all)
	if !all.Correct {
		return 1
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile is the linearly interpolated q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and structs of numbers and strings
	}
	fmt.Println(string(b))
}
