package dbr

import (
	"testing"

	"tradefl/internal/game"
	"tradefl/internal/optimize"
)

// This file holds the naive reference implementation of Algorithm 2 that
// the engine equivalence tests compare against: every payoff is evaluated
// from scratch by Config.Payoff in O(N²), with the same golden-section
// driver and the same CPU-level-order reduction as the Engine.

// bestResponseNaive is the reference best-response scan of organization i
// against p.
func bestResponseNaive(cfg *game.Config, p game.Profile, i int, dTol float64) (game.Strategy, float64, bool) {
	work := p.Clone()
	levels := cfg.Orgs[i].CPULevels
	cands := make([]candidate, len(levels))
	for k, f := range levels {
		lo, hi, feasible := cfg.FeasibleD(i, f)
		if !feasible {
			continue
		}
		d, val, _ := optimize.GoldenSection(func(d float64) float64 {
			work[i] = game.Strategy{D: d, F: f}
			return cfg.Payoff(i, work)
		}, lo, hi, dTol)
		cands[k] = candidate{s: game.Strategy{D: d, F: f}, val: val, feasible: true}
	}
	return reduceCandidates(cands)
}

// solveNaive is the reference Algorithm 2 sweep from the minimal profile:
// organizations best-respond in index order against Config.Payoff until a
// full sweep changes nothing, recording the same traces as Solve.
func solveNaive(t *testing.T, cfg *game.Config, opts Options) *Result {
	t.Helper()
	opts = opts.withDefaults()
	p := cfg.MinimalProfile()
	res := &Result{}
	for r := 0; r < opts.MaxRounds; r++ {
		res.Rounds = r + 1
		changed := false
		for i := range cfg.Orgs {
			cur := cfg.Payoff(i, p)
			next, val, ok := bestResponseNaive(cfg, p, i, opts.DTol)
			if ok && val > cur+opts.Tol {
				p[i] = next
				changed = true
			}
		}
		res.PotentialTrace = append(res.PotentialTrace, cfg.Potential(p))
		res.PayoffTrace = append(res.PayoffTrace, cfg.Payoffs(p))
		if !changed {
			res.Converged = true
			break
		}
	}
	res.Profile = p
	return res
}
