package gbd

import (
	"context"

	"tradefl/internal/accuracy"
	"tradefl/internal/game"
	"tradefl/internal/parallel"
)

// Warm carries reusable CGBD solver state across solves: the previous
// solver's allocations (per-level constant caches, cut tables, primal memo,
// water-fill scratch) and the previous result keyed by the instance's value
// signature. It is the warm-state unit the fleet engine retains per
// instance and recycles across shape-matched instances.
//
// A Warm is single-goroutine: callers that solve concurrently must give
// each in-flight solve its own Warm (the fleet engine transfers ownership
// under its lock).
type Warm struct {
	s   *solver
	cfg *game.Config
	sig uint64
	acc accuracy.Model
	key warmKey
	res *Result
}

// warmKey is the option subset that can change solver output. Workers is
// deliberately excluded: it is a byte-identical knob, so a cached result
// stays valid across it.
type warmKey struct {
	Epsilon float64
	MaxIter int
	Master  MasterSolver
}

// Fits reports whether the warm state's allocations fit cfg: same
// organization count and per-organization CPU-grid widths. A fitting Warm
// rebinds without allocating; a non-fitting one falls back to a fresh
// solver.
func (w *Warm) Fits(cfg *game.Config) bool {
	if w == nil || w.s == nil || len(w.s.rhoBar) != cfg.N() {
		return false
	}
	for i := range cfg.Orgs {
		if len(w.s.lvlCost[i]) != len(cfg.Orgs[i].CPULevels) {
			return false
		}
	}
	return true
}

// rebind points a shape-matched solver at a (possibly drifted) config,
// recomputing every numeric field from the config's current values and
// emptying all cross-solve state. Only allocations survive, so the solve
// that follows is byte-identical to one on a fresh solver.
func (s *solver) rebind(cfg *game.Config, opts Options) {
	n := cfg.N()
	s.cfg = cfg
	s.opts = opts
	s.workers = parallel.Resolve(opts.Workers)
	for i := 0; i < n; i++ {
		s.rhoBar[i] = cfg.RhoRowSum(i)
		s.zs[i] = cfg.Weight(i)
		s.scale[i] = cfg.OmegaScale(i)
	}
	s.prevIdx = s.prevIdx[:0]
	s.initCaches()
}

// SolveWarm is Solve with warm-state reuse. When w holds the result of this
// exact instance (same config pointer, same value signature, same accuracy
// model, output-equivalent options) the previous Result is returned
// verbatim — byte-identical by construction, since it is the object a cold
// solve would recompute. Otherwise the instance is solved, reusing the warm
// solver's allocations when the shapes match (the drifted-instance path:
// campaign epochs mutate values but keep the grid shape).
//
// The returned Warm (w itself when non-nil) holds the state for the next
// call; a nil w means cold start. Callers must treat returned Results as
// immutable — the result cache shares them.
func SolveWarm(cfg *game.Config, opts Options, w *Warm) (*Result, *Warm, error) {
	return SolveWarmCtx(context.Background(), cfg, opts, w)
}

// SolveWarmCtx is SolveWarm under a caller context; the solve's span joins
// the trace carried by ctx, with no effect on the computed result.
func SolveWarmCtx(ctx context.Context, cfg *game.Config, opts Options, w *Warm) (*Result, *Warm, error) {
	if err := validateFor(cfg); err != nil {
		return nil, w, err
	}
	opts = opts.withDefaults()
	sig := cfg.Signature()
	key := warmKey{Epsilon: opts.Epsilon, MaxIter: opts.MaxIter, Master: opts.Master}
	if w != nil && w.res != nil && w.cfg == cfg && w.sig == sig &&
		w.key == key && game.SameModel(w.acc, cfg.Accuracy) {
		mWarmResults.Inc()
		return w.res, w, nil
	}
	if w == nil {
		w = &Warm{}
	}
	var s *solver
	if w.Fits(cfg) {
		s = w.s
		s.rebind(cfg, opts)
		mWarmScratch.Inc()
	} else {
		s = newSolver(cfg, opts)
	}
	res, err := run(ctx, cfg, opts, s)
	w.s = s
	if err != nil {
		// Keep the scratch (still shape-valid), drop the result key.
		w.cfg, w.sig, w.acc, w.key, w.res = nil, 0, nil, warmKey{}, nil
		return nil, w, err
	}
	w.cfg, w.sig, w.acc, w.key, w.res = cfg, sig, cfg.Accuracy, key, res
	return res, w, nil
}
