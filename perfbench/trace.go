package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tradefl/internal/chain"
	"tradefl/internal/obs"
)

// tracer accumulates the traced run's per-layer observations: the wall
// time of each call the benchmark makes into a module (spans), and values
// read around such calls. It is nil in untraced runs, where every method
// is a no-op.
type tracer struct {
	mu   sync.Mutex
	accs map[string]*acc
}

type acc struct {
	sum float64
	n   int64
}

func newTracer() *tracer { return &tracer{accs: map[string]*acc{}} }

// span starts timing one call into a layer; calling the returned func ends
// it and records the call's wall time in milliseconds under name.
func (t *tracer) span(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.observe(name, ms(time.Since(start))) }
}

// observe records one value under name.
func (t *tracer) observe(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	a := t.accs[name]
	if a == nil {
		a = &acc{}
		t.accs[name] = a
	}
	a.sum += v
	a.n++
	t.mu.Unlock()
}

func (t *tracer) get(name string) acc {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.accs[name]; a != nil {
		return *a
	}
	return acc{}
}

// mean is the mean value recorded under name (0 when none was).
func (t *tracer) mean(name string) float64 {
	a := t.get(name)
	return div(a.sum, float64(a.n))
}

// topLevel are the spans that tile an op's wall time: the calls each op
// makes into the program, none nested in another. Their sum over the op
// wall time is trace.coverage.
var topLevel = []string{
	"serve.create", "serve.stream", "serve.fetch",
	"chain.open", "chain.submit", "chain.seal", "chain.receipt",
	"chain.verify_chain", "chain.close", "chain.recover",
}

// delta reads counter and histogram changes between two snapshots of the
// program's own metrics registry.
type delta struct{ a, b []obs.Sample }

func (d delta) counter(name string) float64 {
	x, _ := obs.Find(d.a, name)
	y, _ := obs.Find(d.b, name)
	return y.Value - x.Value
}

// histMs is the mean of the observations a seconds histogram received
// between the snapshots, in milliseconds.
func (d delta) histMs(name string) float64 {
	x, _ := obs.Find(d.a, name)
	y, _ := obs.Find(d.b, name)
	return div(y.Sum-x.Sum, float64(y.Count-x.Count)) * 1e3
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traced runs the traced measurement: half the run untraced (the baseline
// of trace.overhead_pct), then half with layer spans, metric snapshots and
// the CPU profiler on. It returns both halves merged, for the op counts,
// and the per-layer metrics.
func traced(w workload, next *atomic.Int64, o options, dir string) (phase, map[string]metric) {
	half := seconds(o.seconds / 2)
	plain := loop(w, next, nil, nil, half)
	runtime.GC()

	tr := newTracer()
	var m0, m1 runtime.MemStats
	profPath := filepath.Join(dir, "cpu.pprof")
	prof, profErr := os.Create(profPath)
	if profErr == nil {
		profErr = pprof.StartCPUProfile(prof)
	}
	runtime.ReadMemStats(&m0)
	before := obs.Default.Snapshot()
	p := loop(w, next, tr, nil, half)
	after := obs.Default.Snapshot()
	runtime.ReadMemStats(&m1)
	if profErr == nil {
		pprof.StopCPUProfile()
		profErr = prof.Close()
	}

	d := delta{before, after}
	ops := float64(p.ops())
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	set("serve.create_ms", "ms", tr.mean("serve.create"))
	set("serve.fetch_ms", "ms", tr.mean("serve.fetch"))
	set("serve.queue_wait_ms", "ms", tr.mean("serve.queue_wait"))
	set("serve.run_ms", "ms", tr.mean("serve.run"))
	set("serve.stream_ms", "ms", tr.mean("serve.stream"))
	set("serve.events_per_job", "count", div(d.counter("tradefl_serve_stream_events_total"), float64(tr.get("serve.stream").n)))
	rejected := d.counter("tradefl_serve_rejected_queue_total") + d.counter("tradefl_serve_rejected_concurrency_total") +
		d.counter("tradefl_serve_rejected_rate_total") + d.counter("tradefl_serve_rejected_draining_total")
	set("serve.rejected_share", "ratio", div(rejected, rejected+d.counter("tradefl_serve_jobs_created_total")))

	set("fleet.instance_ms", "ms", d.histMs("tradefl_fleet_solve_seconds"))
	planDBR, planPruned, planTrav := d.counter("tradefl_fleet_plan_dbr_total"), d.counter("tradefl_fleet_plan_pruned_total"), d.counter("tradefl_fleet_plan_traversal_total")
	planned := planDBR + planPruned + planTrav
	set("fleet.plan_dbr_share", "ratio", div(planDBR, planned))
	set("fleet.plan_pruned_share", "ratio", div(planPruned, planned))
	set("fleet.plan_traversal_share", "ratio", div(planTrav, planned))
	hits, misses := d.counter("tradefl_fleet_warm_hits_total"), d.counter("tradefl_fleet_warm_misses_total")
	set("fleet.warm_hit_ratio", "ratio", div(hits, hits+misses))

	dbrRuns, brs := d.counter("tradefl_dbr_runs_total"), d.counter("tradefl_dbr_best_responses_total")
	set("dbr.solve_ms", "ms", d.histMs("tradefl_dbr_solve_seconds"))
	set("dbr.rounds_per_solve", "count", div(d.counter("tradefl_dbr_rounds_total"), dbrRuns))
	set("dbr.best_responses_per_solve", "count", div(brs, dbrRuns))
	set("dbr.candidates_per_best_response", "count", div(d.counter("tradefl_dbr_candidates_total"), brs))

	gbdRuns := d.counter("tradefl_gbd_runs_total")
	set("gbd.solve_ms", "ms", d.histMs("tradefl_gbd_solve_seconds"))
	set("gbd.primal_ms", "ms", d.histMs("tradefl_gbd_primal_seconds"))
	set("gbd.master_ms", "ms", d.histMs("tradefl_gbd_master_seconds"))
	set("gbd.feasibility_ms", "ms", d.histMs("tradefl_gbd_feasibility_seconds"))
	set("gbd.iterations_per_solve", "count", div(d.counter("tradefl_gbd_iterations_total"), gbdRuns))
	set("gbd.cuts_per_solve", "count", div(d.counter("tradefl_gbd_optimality_cuts_total")+d.counter("tradefl_gbd_feasibility_cuts_total"), gbdRuns))
	ph, pm := d.counter("tradefl_cache_primal_hits_total"), d.counter("tradefl_cache_primal_misses_total")
	set("gbd.primal_cache_hit_ratio", "ratio", div(ph, ph+pm))

	set("parallel.tasks_per_op", "count", div(d.counter("tradefl_pool_tasks_total"), ops))
	set("parallel.fanout_ms", "ms", d.histMs("tradefl_pool_fanout_seconds"))

	set("chain.submit_ms", "ms", tr.mean("chain.submit"))
	set("chain.verify_us_per_tx", "us", verifyMicros(w.verifyTxs()))
	set("chain.seal_ms", "ms", tr.mean("chain.seal"))
	set("chain.exec_waves_per_block", "count", div(d.counter("tradefl_chain_exec_waves_total"), d.counter("tradefl_chain_blocks_sealed_total")))
	set("chain.verify_chain_ms", "ms", tr.mean("chain.verify_chain"))
	set("chain.open_ms", "ms", tr.mean("chain.open"))
	set("chain.receipt_ms", "ms", tr.mean("chain.receipt"))
	set("chain.close_ms", "ms", tr.mean("chain.close"))
	fsyncs := d.counter("tradefl_chain_wal_fsyncs_total")
	set("chain.wal_fsyncs_per_op", "count", div(fsyncs, ops))
	set("chain.wal_fsync_ms", "ms", d.histMs("tradefl_chain_wal_fsync_seconds"))
	set("chain.wal_bytes_per_tx", "B", div(d.counter("tradefl_chain_wal_bytes_total"), d.counter("tradefl_chain_tx_mined_total")))
	set("chain.wal_records_per_fsync", "count", div(d.counter("tradefl_chain_wal_records_total"), fsyncs))
	recovers := float64(tr.get("chain.recover").n)
	set("chain.recover_ms", "ms", tr.mean("chain.recover"))
	set("chain.recover_txs_replayed_per_op", "count", div(tr.get("chain.recover_txs").sum, recovers))
	set("chain.recover_wal_records_per_op", "count", div(tr.get("chain.recover_wal_records").sum, recovers))
	set("chain.snapshot_mb", "MiB", float64(w.fixtureBytes())/(1<<20))

	set("runtime.alloc_mb_per_op", "MiB", div(float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), ops))
	set("runtime.gc_per_op", "count", div(float64(m1.NumGC-m0.NumGC), ops))

	shares, err := cpuShares(profPath)
	if profErr != nil {
		err = profErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
	}
	for _, c := range cpuCategories {
		set("cpu_share."+c.name, "ratio", shares[c.name])
	}

	// Both halves' CPU times scaled to the reference host speed, so host
	// drift between them does not read as overhead.
	set("trace.overhead_pct", "%", (div(p.cpuMsPerOp()*p.speed(), plain.cpuMsPerOp()*plain.speed())-1)*100)
	var covered, wall float64
	for _, name := range topLevel {
		covered += tr.get(name).sum
	}
	for _, l := range p.lats {
		wall += ms(l)
	}
	set("trace.coverage", "ratio", div(covered, wall))

	merged := p
	merged.attempted += plain.attempted
	merged.failed += plain.failed
	if plain.firstErr != nil {
		merged.firstErr = plain.firstErr
	}
	return merged, m
}

// verifyMicros times Transaction.Verify over txs, in microseconds per tx.
// It runs after the traced phase so it adds nothing to the op timings.
func verifyMicros(txs []chain.Transaction) float64 {
	if len(txs) == 0 {
		return 0
	}
	start := time.Now()
	for i := range txs {
		if err := txs[i].Verify(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: verify timing:", err)
			return 0
		}
	}
	return float64(time.Since(start).Microseconds()) / float64(len(txs))
}

// cpuCategories groups profile functions by the layer they belong to; a
// function counts toward the first category with a matching prefix.
var cpuCategories = []struct {
	name     string
	prefixes []string
}{
	{"dbr", []string{"tradefl/internal/dbr."}},
	{"gbd", []string{"tradefl/internal/gbd."}},
	{"game", []string{"tradefl/internal/game."}},
	{"ed25519", []string{"crypto/ed25519.", "crypto/internal/edwards25519", "crypto/internal/fips140/edwards25519",
		"crypto/internal/fips140/ed25519", "crypto/sha512.", "crypto/internal/fips140/sha512."}},
	{"json", []string{"encoding/json."}},
	{"gc_malloc", []string{"runtime.mallocgc", "runtime.gc", "runtime.scanobject", "runtime.scanblock",
		"runtime.markroot", "runtime.greyobject", "runtime.findObject", "runtime.sweepone", "runtime.(*mspan)",
		"runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*gcWork)", "runtime.(*gcBits)",
		"runtime.heapSetType", "runtime.wbBuf", "runtime.bulkBarrier", "runtime.typePointers", "runtime.nextFreeFast",
		"runtime.memclrNoHeapPointers", "runtime.(*sweepLocked)", "runtime.newobject", "runtime.makeslice",
		"runtime.growslice", "runtime.(*typePointers)", "runtime.spanOf", "runtime.pageIndexOf"}},
	{"net_http", []string{"net/http.", "net/textproto.", "net/http/internal"}},
	{"syscall", []string{"syscall.", "internal/runtime/syscall.", "runtime/internal/syscall.", "internal/syscall/",
		"internal/poll."}},
}

// cpuShares summarises a CPU profile per category: the share of all
// samples whose leaf (flat) function falls in the category. It runs the
// installed `go tool pprof -top`.
func cpuShares(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	shares := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		// flat flat% sum% cum cum% name...
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		name := strings.Join(f[5:], " ")
	cat:
		for _, c := range cpuCategories {
			for _, pre := range c.prefixes {
				if strings.HasPrefix(name, pre) {
					shares[c.name] += pct / 100
					break cat
				}
			}
		}
	}
	return shares, sc.Err()
}
