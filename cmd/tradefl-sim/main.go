// Command tradefl-sim regenerates the tables and figures of the TradeFL
// paper's evaluation (Sec. VI) as CSV.
//
// Usage:
//
//	tradefl-sim -list
//	tradefl-sim -fig fig7 [-seed 7] [-quick]
//	tradefl-sim -all -out results/
//	tradefl-sim -fig table2 -diag-addr 127.0.0.1:6060 -diag-hold 30s
//	tradefl-sim -chaos "seed=7,drop=0.15,dup=0.05,rpcfail=0.1,rpclost=0.05"
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"tradefl/internal/chaos"
	"tradefl/internal/experiments"
	"tradefl/internal/obs"
	"tradefl/internal/parallel"
	"tradefl/internal/verify"
)

func main() {
	// A panic anywhere in the run dumps the flight recorder before dying:
	// the ring holds the last ~2k fault/retry/span events, which is the
	// post-mortem context a stack trace alone lacks.
	defer obs.FlightDumpOnPanic(os.Stderr)
	err := run(os.Args[1:])
	if err == nil {
		// With -verify, any invariant breach turns into a nonzero exit.
		err = verify.Finish()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tradefl-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("tradefl-sim", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "", "experiment id to run (see -list)")
		all      = fs.Bool("all", false, "run every experiment")
		list     = fs.Bool("list", false, "list experiment ids")
		chaosRun = fs.String("chaos", "", "run a seeded chaos soak instead of an experiment, e.g. \"seed=7,drop=0.15,rpclost=0.05\" (keys: seed drop dup delayp delaymin delaymax partition crash rpcfail rpclost rpcdelayp orgs game token suspect seal settle crashcycles crashmin crashmax snapevery waldir shards pipeline batch)")
		walDir   = fs.String("wal-dir", "", "with -chaos crashcycles: keep the soak's WAL/snapshot directory here instead of a temp dir (left behind for inspection)")
		seed     = fs.Int64("seed", 7, "random seed of the reference instance")
		quick    = fs.Bool("quick", false, "coarse sweeps and short FL runs")
		out      = fs.String("out", "", "directory for CSV files (default stdout)")
		plot     = fs.Bool("plot", false, "render terminal charts instead of CSV")
		fleetN   = fs.Int("fleet", 0, "solve a synthetic batch of this many game instances through the fleet engine instead of an experiment")
		planName = fs.String("plan", "auto", "fleet solver plan: auto|pruned|traversal|dbr (auto picks per instance by cost model)")
		planProf = fs.String("plan-profile", "", "planner cost-profile JSON; loaded if present, else self-calibrated and saved")
		workers  = fs.Int("workers", 0, "solver/kernel worker goroutines (0 = GOMAXPROCS, 1 = serial)")
		verifyOn = fs.Bool("verify", false, "audit solver and settlement invariants at runtime (tradefl_verify_* metrics; nonzero exit on violation)")
		summary  = fs.String("summary", "text", "end-of-run solver summary: text|json|none")
		diagHold = fs.Duration("diag-hold", 0, "keep the diagnostics server alive this long after the run (requires -diag-addr)")
		obsFlags = obs.RegisterFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *summary {
	case "text", "json", "none":
	default:
		return fmt.Errorf("-summary must be text, json or none, got %q", *summary)
	}
	diag, err := obsFlags.Apply()
	if err != nil {
		return err
	}
	if diag != nil {
		defer diag.Close()
	}
	// Flush -trace-out / -telemetry-out sinks whichever way the run exits.
	defer func() {
		if ferr := obsFlags.Finish(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	parallel.SetDefault(*workers)
	if *verifyOn {
		verify.Enable(verify.Options{})
	}
	// SIGINT/SIGTERM cancels the run; the deferred sink flush above still
	// runs, so partial traces/telemetry survive an interrupted soak.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *chaosRun != "" {
		copts, err := chaos.ParseSpec(*chaosRun)
		if err != nil {
			return err
		}
		if *walDir != "" {
			copts.WALDir = *walDir
		}
		rep, err := chaos.Run(ctx, copts)
		if err != nil {
			return err
		}
		fmt.Print(rep.String())
		if diag != nil && *diagHold > 0 {
			obs.Component("sim").Info("holding diagnostics server", "addr", diag.Addr(), "hold", *diagHold)
			time.Sleep(*diagHold)
		}
		if gateErr := rep.Err(); gateErr != nil {
			// A failed chaos gate dumps the flight recorder: the fault
			// injections and retries leading to the breach are in the ring.
			obs.DumpFlight(os.Stderr, "chaos gate failed: "+gateErr.Error())
			return gateErr
		}
		return nil
	}
	if *fleetN > 0 {
		start := time.Now()
		if err := runFleet(ctx, *fleetN, *planName, *planProf, *seed); err != nil {
			return err
		}
		if err := printSummary(*summary, time.Since(start)); err != nil {
			return err
		}
		if diag != nil && *diagHold > 0 {
			obs.Component("sim").Info("holding diagnostics server", "addr", diag.Addr(), "hold", *diagHold)
			time.Sleep(*diagHold)
		}
		return nil
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	}
	var ids []string
	switch {
	case *all:
		ids = experiments.IDs()
	case *fig != "":
		ids = []string{*fig}
	default:
		return fmt.Errorf("need -fig <id>, -all or -list")
	}
	start := time.Now()
	opts := experiments.Options{Seed: *seed, Quick: *quick}
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("interrupted before %s: %w", id, err)
		}
		figure, err := experiments.Run(id, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if *plot {
			fmt.Print(figure.Plot(72, 18))
			continue
		}
		csv := figure.CSV()
		if *out == "" {
			fmt.Print(csv)
			continue
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*out, id+".csv")
		if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	if err := printSummary(*summary, time.Since(start)); err != nil {
		return err
	}
	if diag != nil && *diagHold > 0 {
		obs.Component("sim").Info("holding diagnostics server", "addr", diag.Addr(), "hold", *diagHold)
		time.Sleep(*diagHold)
	}
	return nil
}

// printSummary condenses the metrics snapshot into the solver headline
// numbers of the run. Text goes to stderr (stdout carries the CSV), JSON to
// stdout for scripted consumers.
func printSummary(mode string, wall time.Duration) error {
	if mode == "none" {
		return nil
	}
	snap := obs.Default.Snapshot()
	val := func(name string) float64 {
		s, ok := obs.Find(snap, name)
		if !ok {
			return 0
		}
		return s.Value
	}
	sum := struct {
		WallSeconds   float64 `json:"wallSeconds"`
		GBDRuns       float64 `json:"gbdRuns"`
		GBDIterations float64 `json:"gbdIterations"`
		GBDOptCuts    float64 `json:"gbdOptimalityCuts"`
		GBDFeasCuts   float64 `json:"gbdFeasibilityCuts"`
		GBDGap        float64 `json:"gbdBoundGap"`
		GBDWelfare    float64 `json:"gbdSocialWelfare"`
		DBRRuns       float64 `json:"dbrRuns"`
		DBRRounds     float64 `json:"dbrRounds"`
		DBRMoves      float64 `json:"dbrMoves"`
		DBRWelfare    float64 `json:"dbrSocialWelfare"`
		FLRounds      float64 `json:"flRounds"`
		FLAccuracy    float64 `json:"flRoundAccuracy"`
		PoolFanouts   float64 `json:"poolFanouts"`
		FleetSolves   float64 `json:"fleetSolves"`
		FleetRate     float64 `json:"fleetSolvesPerSec"`
		FleetWarmHits float64 `json:"fleetWarmHits"`
		FleetPlanDBR  float64 `json:"fleetPlanDBR"`
		FleetPlanPrn  float64 `json:"fleetPlanPruned"`
		FleetPlanTrv  float64 `json:"fleetPlanTraversal"`
	}{
		WallSeconds:   wall.Seconds(),
		GBDRuns:       val("tradefl_gbd_runs_total"),
		GBDIterations: val("tradefl_gbd_iterations_total"),
		GBDOptCuts:    val("tradefl_gbd_optimality_cuts_total"),
		GBDFeasCuts:   val("tradefl_gbd_feasibility_cuts_total"),
		GBDGap:        val("tradefl_gbd_bound_gap"),
		GBDWelfare:    val("tradefl_gbd_social_welfare"),
		DBRRuns:       val("tradefl_dbr_runs_total"),
		DBRRounds:     val("tradefl_dbr_rounds_total"),
		DBRMoves:      val("tradefl_dbr_moves_total"),
		DBRWelfare:    val("tradefl_dbr_social_welfare"),
		FLRounds:      val("tradefl_fl_rounds_total"),
		FLAccuracy:    val("tradefl_fl_round_accuracy"),
		PoolFanouts:   val("tradefl_pool_fanouts_total"),
		FleetSolves:   val("tradefl_fleet_instances_total"),
		FleetRate:     val("tradefl_fleet_solves_per_sec"),
		FleetWarmHits: val("tradefl_fleet_warm_hits_total"),
		FleetPlanDBR:  val("tradefl_fleet_plan_dbr_total"),
		FleetPlanPrn:  val("tradefl_fleet_plan_pruned_total"),
		FleetPlanTrv:  val("tradefl_fleet_plan_traversal_total"),
	}
	if mode == "json" {
		enc := json.NewEncoder(os.Stdout)
		return enc.Encode(sum)
	}
	w := io.Writer(os.Stderr)
	fmt.Fprintf(w, "--- run summary (%.2fs wall) ---\n", sum.WallSeconds)
	fmt.Fprintf(w, "gbd:  %.0f runs, %.0f iterations, %.0f+%.0f cuts (opt+feas), gap %.3g, welfare %.2f\n",
		sum.GBDRuns, sum.GBDIterations, sum.GBDOptCuts, sum.GBDFeasCuts, sum.GBDGap, sum.GBDWelfare)
	fmt.Fprintf(w, "dbr:  %.0f runs, %.0f sweeps, %.0f moves, welfare %.2f\n",
		sum.DBRRuns, sum.DBRRounds, sum.DBRMoves, sum.DBRWelfare)
	fmt.Fprintf(w, "fl:   %.0f rounds, last accuracy %.4f\n", sum.FLRounds, sum.FLAccuracy)
	fmt.Fprintf(w, "pool: %.0f fan-outs\n", sum.PoolFanouts)
	if sum.FleetSolves > 0 {
		fmt.Fprintf(w, "fleet: %.0f solves at %.0f/sec (plans dbr=%.0f pruned=%.0f traversal=%.0f, warm hits=%.0f)\n",
			sum.FleetSolves, sum.FleetRate, sum.FleetPlanDBR, sum.FleetPlanPrn, sum.FleetPlanTrv, sum.FleetWarmHits)
	}
	return nil
}
