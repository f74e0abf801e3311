package dbr

import (
	"sync"

	"tradefl/internal/game"
	"tradefl/internal/optimize"
	"tradefl/internal/parallel"
)

// Engine is the incremental best-response engine: a DeltaEvaluator plus
// pooled scratch so a steady-state best-response scan performs zero heap
// allocations (asserted by TestBestResponseZeroAlloc). Results are
// byte-identical to a naive scan that evaluates every payoff with
// Config.Payoff — the evaluator's exactness contract plus the identical
// golden-section driver guarantee it (the dbr tests hold that oracle).
//
// An Engine is single-goroutine for mutation; the parallel candidate scan
// only reads the bound evaluator, which is race-free.
type Engine struct {
	cfg   *game.Config
	ev    *game.DeltaEvaluator
	cands []candidate

	// eval is the golden-section objective, created once at engine
	// construction so the serial scan allocates no closure per candidate;
	// the candidate under evaluation is passed through evalOrg/evalF.
	eval    func(d float64) float64
	evalOrg int
	evalF   float64
}

// NewEngine builds an engine for cfg. Prefer the package-level pooled
// entry points (BestResponseWorkers, Solve) unless you are managing engine
// lifetime yourself.
func NewEngine(cfg *game.Config) *Engine {
	e := &Engine{}
	e.eval = func(d float64) float64 {
		return e.ev.PayoffWith(e.evalOrg, game.Strategy{D: d, F: e.evalF})
	}
	e.reset(cfg)
	return e
}

// enginePool recycles engines across solver invocations so the pooled
// entry points are allocation-free in steady state.
var enginePool = sync.Pool{New: func() any { return NewEngine(nil) }}

func acquireEngine(cfg *game.Config) *Engine {
	e := enginePool.Get().(*Engine)
	e.reset(cfg)
	return e
}

func releaseEngine(e *Engine) { enginePool.Put(e) }

// reset rebinds the engine to cfg, reusing scratch when possible. The
// evaluator's static caches are always re-derived from the config's current
// values: a pooled engine can come back for a config that was mutated in
// place between solves (campaign.drift does exactly that), so a pointer
// match proves nothing about the cached values. Reuse is allocation-level
// only — the O(N²) rebuild is the price of correctness and is negligible
// next to the scan it precedes.
func (e *Engine) reset(cfg *game.Config) {
	if cfg == nil {
		return
	}
	e.cfg = cfg
	if e.ev == nil {
		mEngineMisses.Inc()
		e.ev = game.NewDeltaEvaluator(cfg)
	} else {
		mEngineHits.Inc()
		e.ev.Reset(cfg)
	}
	maxLevels := 0
	for i := range cfg.Orgs {
		if m := len(cfg.Orgs[i].CPULevels); m > maxLevels {
			maxLevels = m
		}
	}
	if cap(e.cands) < maxLevels {
		e.cands = make([]candidate, maxLevels)
	}
}

// Bind points the engine's evaluator at profile p (copied).
func (e *Engine) Bind(p game.Profile) { e.ev.Bind(p) }

// Update replaces the bound strategy of organization i in O(1).
func (e *Engine) Update(i int, s game.Strategy) { e.ev.Update(i, s) }

// Payoff returns organization i's payoff at the bound profile,
// byte-identical to Config.Payoff.
func (e *Engine) Payoff(i int) float64 { return e.ev.Payoff(i) }

// BestResponse computes organization i's best response against the bound
// profile, byte-identical to the naive Config.Payoff scan on the same profile. The
// serial path (workers ≤ 1) is allocation-free.
func (e *Engine) BestResponse(i int, dTol float64, workers int) (game.Strategy, float64, bool) {
	if dTol <= 0 {
		dTol = 1e-7
	}
	levels := e.cfg.Orgs[i].CPULevels
	mScans.Inc()
	mCandidates.Add(int64(len(levels)))
	workers = parallel.Resolve(workers)
	if workers > 1 && len(levels) > 1 {
		// Candidates only read the bound evaluator; each writes a disjoint
		// slot of the pooled candidate buffer.
		cands := e.cands[:len(levels)]
		parallel.ForLabeled("dbr.scan", workers, len(levels), func(k int) {
			cands[k] = e.solveCandidate(i, levels[k], dTol)
		})
		return reduceCandidates(cands)
	}
	cands := e.cands[:0]
	for _, f := range levels {
		cands = append(cands, e.solveCandidateSerial(i, f, dTol))
	}
	return reduceCandidates(cands)
}

// solveCandidateSerial maximizes the payoff at a fixed CPU level through
// the engine's pre-built closure — no per-candidate allocation.
func (e *Engine) solveCandidateSerial(i int, f, dTol float64) candidate {
	lo, hi, feasible := e.cfg.FeasibleD(i, f)
	if !feasible {
		return candidate{}
	}
	e.evalOrg, e.evalF = i, f
	d, val, _ := optimize.GoldenSection(e.eval, lo, hi, dTol)
	return candidate{s: game.Strategy{D: d, F: f}, val: val, feasible: true}
}

// solveCandidate is the concurrency-safe variant used by the parallel
// scan: the objective closure is per-call, so concurrent candidates do not
// share the engine's evalOrg/evalF scratch.
func (e *Engine) solveCandidate(i int, f, dTol float64) candidate {
	lo, hi, feasible := e.cfg.FeasibleD(i, f)
	if !feasible {
		return candidate{}
	}
	d, val, _ := optimize.GoldenSection(func(d float64) float64 {
		return e.ev.PayoffWith(i, game.Strategy{D: d, F: f})
	}, lo, hi, dTol)
	return candidate{s: game.Strategy{D: d, F: f}, val: val, feasible: true}
}
