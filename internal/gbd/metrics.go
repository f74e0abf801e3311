package gbd

import "tradefl/internal/obs"

// Telemetry of Algorithm 1. Registered at init so the metric names are
// present (at zero) in /metrics even before the first solver run; every
// update on the solve path is a single atomic operation.
var (
	mRuns       = obs.NewCounter("tradefl_gbd_runs_total", "CGBD solver runs started")
	mIterations = obs.NewCounter("tradefl_gbd_iterations_total", "CGBD iterations completed across all runs")
	mOptCuts    = obs.NewCounter("tradefl_gbd_optimality_cuts_total", "optimality cuts added to the master problem")
	mFeasCuts   = obs.NewCounter("tradefl_gbd_feasibility_cuts_total", "feasibility cuts added to the master problem")
	mConverged  = obs.NewCounter("tradefl_gbd_converged_total", "CGBD runs that reached UB-LB <= epsilon")
	mGap        = obs.NewGauge("tradefl_gbd_bound_gap", "UB-LB optimality gap at exit of the last CGBD run")
	mPotential  = obs.NewGauge("tradefl_gbd_potential", "potential U at the incumbent of the last CGBD run")
	mWelfare    = obs.NewGauge("tradefl_gbd_social_welfare", "social welfare at the solution of the last CGBD run")
	mPrimalSec  = obs.NewHistogram("tradefl_gbd_primal_seconds", "wall time of primal problem (19) solves", obs.TimeBuckets)
	mMasterSec  = obs.NewHistogram("tradefl_gbd_master_seconds", "wall time of master problem (23) solves", obs.TimeBuckets)
	mFeasSec    = obs.NewHistogram("tradefl_gbd_feasibility_seconds", "wall time of feasibility-check problem (21) solves", obs.TimeBuckets)
	mSolveSec   = obs.NewHistogram("tradefl_gbd_solve_seconds", "end-to-end wall time of CGBD runs", obs.TimeBuckets)

	// Convergence distributions across solves — the fleet-wide view of the
	// paper's bound-sandwich guarantee (exit gap, iterations to converge,
	// welfare attained), complementing the last-run gauges above.
	mGapHist = obs.NewHistogram("tradefl_gbd_exit_gap", "distribution of UB-LB at CGBD exit",
		obs.ExpBuckets(1e-9, 10, 14))
	mItersHist = obs.NewHistogram("tradefl_gbd_iterations_per_solve", "distribution of CGBD iterations per solve",
		[]float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64})
	mWelfareHist = obs.NewHistogram("tradefl_gbd_welfare_per_solve", "distribution of social welfare at CGBD solutions",
		obs.ExpBuckets(1, 4, 14))
)

// Incremental-evaluation cache telemetry (tradefl_cache_*): primal-subproblem
// memoization, incremental cut tabulation, and dominated-cut eviction.
var (
	mPrimalHits   = obs.NewCounter("tradefl_cache_primal_hits_total", "primal subproblems served from the f-vector memo")
	mPrimalMisses = obs.NewCounter("tradefl_cache_primal_misses_total", "primal subproblems solved fresh and memoized")
	mPrimalEvicts = obs.NewCounter("tradefl_cache_primal_evictions_total", "memoized primal subproblems evicted (FIFO, capacity bound)")
	mCutTabIncr   = obs.NewCounter("tradefl_cache_cut_tables_incremental_total", "cuts tabulated incrementally into the persistent master tables")
	mCutsEvicted  = obs.NewCounter("tradefl_cache_cuts_evicted_total", "optimality cuts dropped as strictly dominated by another cut")
	mMasterSeeded = obs.NewCounter("tradefl_cache_master_seeds_total", "master searches seeded with the incumbent lower bound")
	mMasterWarm   = obs.NewCounter("tradefl_cache_master_warm_starts_total", "master searches warm-started from the previous argmax grid point")
	mWarmResults  = obs.NewCounter("tradefl_cache_gbd_warm_results_total", "CGBD solves served verbatim from a warm result (unchanged instance)")
	mWarmScratch  = obs.NewCounter("tradefl_cache_gbd_warm_scratch_total", "CGBD solves that rebound a shape-matched warm solver's allocations")
)
