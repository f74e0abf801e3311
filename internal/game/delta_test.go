package game

import (
	"math"
	"testing"

	"tradefl/internal/randx"
)

// deltaTestConfigs yields game instances across the dimensions that change
// the payoff expression tree: size, competition intensity and the
// personalization extension (α > 0 switches the revenue and damage forms).
func deltaTestConfigs(t *testing.T) []*Config {
	t.Helper()
	var cfgs []*Config
	for _, gen := range []GenOptions{
		{Seed: 1},
		{Seed: 7, N: 4},
		{Seed: 11, N: 16, Mu: 0.9},
		{Seed: 3, N: 8, CPUSteps: 5},
	} {
		cfg, err := DefaultConfig(gen)
		if err != nil {
			t.Fatalf("DefaultConfig(%+v): %v", gen, err)
		}
		cfgs = append(cfgs, cfg)

		pers, err := DefaultConfig(gen)
		if err != nil {
			t.Fatalf("DefaultConfig(%+v): %v", gen, err)
		}
		pers.Personal = Personalization{Alpha: 0.3, LocalBoost: 1.5}
		cfgs = append(cfgs, pers)
	}
	return cfgs
}

// randomStrategy draws a feasible deviation for organization i.
func randomStrategy(cfg *Config, i int, src *randx.Source) (Strategy, bool) {
	levels := cfg.Orgs[i].CPULevels
	f := levels[src.Intn(len(levels))]
	lo, hi, ok := cfg.FeasibleD(i, f)
	if !ok {
		return Strategy{}, false
	}
	return Strategy{D: src.Uniform(lo, hi), F: f}, true
}

// TestDeltaEvaluatorMatchesNaive is the core exactness contract: every
// PayoffWith result is bit-for-bit equal to Config.Payoff on the substituted
// profile, across configs, profiles and single-coordinate mutations.
func TestDeltaEvaluatorMatchesNaive(t *testing.T) {
	for _, cfg := range deltaTestConfigs(t) {
		src := randx.New(42)
		ev := NewDeltaEvaluator(cfg)
		for trial := 0; trial < 20; trial++ {
			p := randomProfile(cfg, src)
			ev.Bind(p)
			work := p.Clone()
			for i := 0; i < cfg.N(); i++ {
				if got, want := ev.Payoff(i), cfg.Payoff(i, p); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Payoff(%d) = %x, naive %x (n=%d α=%v)",
						i, math.Float64bits(got), math.Float64bits(want), cfg.N(), cfg.Personal.Alpha)
				}
				for dev := 0; dev < 5; dev++ {
					s, ok := randomStrategy(cfg, i, src)
					if !ok {
						continue
					}
					work[i] = s
					got, want := ev.PayoffWith(i, s), cfg.Payoff(i, work)
					work[i] = p[i]
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("PayoffWith(%d, %+v) = %x, naive %x (n=%d α=%v)",
							i, s, math.Float64bits(got), math.Float64bits(want), cfg.N(), cfg.Personal.Alpha)
					}
				}
			}
		}
	}
}

// TestDeltaEvaluatorUpdate walks a random sequence of single-coordinate
// Update moves (the best-response access pattern) and checks the evaluator
// stays bit-identical to a naive evaluation of the mutated profile.
func TestDeltaEvaluatorUpdate(t *testing.T) {
	for _, cfg := range deltaTestConfigs(t) {
		src := randx.New(99)
		p := randomProfile(cfg, src)
		ev := NewDeltaEvaluator(cfg)
		ev.Bind(p)
		cur := p.Clone()
		for move := 0; move < 50; move++ {
			i := src.Intn(cfg.N())
			s, ok := randomStrategy(cfg, i, src)
			if !ok {
				continue
			}
			ev.Update(i, s)
			cur[i] = s
			for j := 0; j < cfg.N(); j++ {
				got, want := ev.Payoff(j), cfg.Payoff(j, cur)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("move %d: Payoff(%d) = %x, naive %x", move, j, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
		if got := ev.Bound(); len(got) != len(cur) {
			t.Fatalf("Bound() has %d entries, want %d", len(got), len(cur))
		} else {
			for i := range cur {
				if got[i] != cur[i] {
					t.Fatalf("Bound()[%d] = %+v, want %+v", i, got[i], cur[i])
				}
			}
		}
	}
}

// TestDeltaEvaluatorSelfCheck exercises the runtime fallback: with the
// cross-check enabled results are unchanged and no mismatch is recorded.
func TestDeltaEvaluatorSelfCheck(t *testing.T) {
	cfg := testConfig(t, 5)
	src := randx.New(5)
	p := randomProfile(cfg, src)

	plain := NewDeltaEvaluator(cfg)
	plain.Bind(p)
	checked := NewDeltaEvaluator(cfg)
	checked.SetSelfCheck(true)
	checked.Bind(p)

	for i := 0; i < cfg.N(); i++ {
		for dev := 0; dev < 10; dev++ {
			s, ok := randomStrategy(cfg, i, src)
			if !ok {
				continue
			}
			a, b := plain.PayoffWith(i, s), checked.PayoffWith(i, s)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("self-check changed the result: %x vs %x", math.Float64bits(a), math.Float64bits(b))
			}
		}
	}
	if n := checked.Mismatches(); n != 0 {
		t.Fatalf("self-check recorded %d mismatches, want 0", n)
	}
	if checked.Config() != cfg {
		t.Fatalf("Config() does not return the bound config")
	}
}

// TestDeltaEvaluatorResetReuses verifies Reset rebinds without growing and
// that a reused evaluator is still exact for the new config.
func TestDeltaEvaluatorResetReuses(t *testing.T) {
	big := testConfig(t, 1)
	small, err := DefaultConfig(GenOptions{Seed: 2, N: 4})
	if err != nil {
		t.Fatalf("DefaultConfig: %v", err)
	}
	ev := NewDeltaEvaluator(big)
	ev.Reset(small)
	src := randx.New(17)
	p := randomProfile(small, src)
	ev.Bind(p)
	for i := 0; i < small.N(); i++ {
		got, want := ev.Payoff(i), small.Payoff(i, p)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("after Reset: Payoff(%d) = %x, naive %x", i, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

var deltaSink float64

// TestDeltaEvaluatorZeroAlloc pins the steady-state query cost: a bound
// evaluator answers PayoffWith without allocating.
func TestDeltaEvaluatorZeroAlloc(t *testing.T) {
	cfg := testConfig(t, 1)
	src := randx.New(3)
	p := randomProfile(cfg, src)
	ev := NewDeltaEvaluator(cfg)
	ev.Bind(p)
	s, ok := randomStrategy(cfg, 2, src)
	if !ok {
		t.Fatal("no feasible deviation for org 2")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		deltaSink = ev.PayoffWith(2, s)
	})
	if allocs != 0 {
		t.Fatalf("PayoffWith allocates %v per query, want 0", allocs)
	}
}

// checkNashNaive is the reference CheckNash: the same deviation grid with
// every payoff evaluated from scratch by Config.Payoff.
func checkNashNaive(c *Config, p Profile, gridRes int, tol float64) NashReport {
	report := NashReport{Deviator: -1, Tolerance: tol}
	work := p.Clone()
	for i := range c.Orgs {
		base := c.Payoff(i, p)
		for _, f := range c.Orgs[i].CPULevels {
			lo, hi, ok := c.FeasibleD(i, f)
			if !ok {
				continue
			}
			for k := 0; k < gridRes; k++ {
				work[i] = Strategy{D: lo + (hi-lo)*float64(k)/float64(gridRes-1), F: f}
				if regret := c.Payoff(i, work) - base; regret > report.MaxRegret {
					report.MaxRegret = regret
					report.Deviator = i
				}
			}
		}
		work[i] = p[i]
	}
	report.IsNash = report.MaxRegret <= tol
	return report
}

// TestCheckNashIncrementalEquivalence asserts the CheckNash report, whose
// deviations run through the DeltaEvaluator, is bit-identical to the naive
// reference.
func TestCheckNashIncrementalEquivalence(t *testing.T) {
	for _, cfg := range deltaTestConfigs(t) {
		src := randx.New(8)
		p := randomProfile(cfg, src)
		got := cfg.CheckNash(p, 25, 1e-2)
		want := checkNashNaive(cfg, p, 25, 1e-2)
		if got.IsNash != want.IsNash || got.Deviator != want.Deviator ||
			math.Float64bits(got.MaxRegret) != math.Float64bits(want.MaxRegret) {
			t.Fatalf("CheckNash diverged: incremental %+v vs naive %+v", got, want)
		}
	}
}

// FuzzDeltaEvaluator fuzzes the exactness contract: for a random instance,
// profile and single-coordinate mutation, the incremental payoff must match
// the naive evaluator bit-for-bit. The committed seed corpus in
// testdata/fuzz covers both model variants and the extreme grid points.
func FuzzDeltaEvaluator(f *testing.F) {
	f.Add(int64(1), int64(0), 0.0)
	f.Add(int64(7), int64(3), 0.5)
	f.Add(int64(11), int64(42), 1.0)
	f.Add(int64(-5), int64(9), 0.25)
	f.Fuzz(func(t *testing.T, seed, pick int64, dFrac float64) {
		n := 2 + int(uint64(seed)%15) // 2..16 organizations
		gen := GenOptions{Seed: seed, N: n}
		cfg, err := DefaultConfig(gen)
		if err != nil {
			t.Skip()
		}
		if seed%2 == 0 {
			cfg.Personal = Personalization{Alpha: 0.25, LocalBoost: 2}
		}
		src := randx.New(seed ^ 0x5DEECE66D)
		p := randomProfile(cfg, src)
		i := int(uint64(pick) % uint64(cfg.N()))
		levels := cfg.Orgs[i].CPULevels
		fv := levels[int(uint64(pick)>>8)%len(levels)]
		lo, hi, ok := cfg.FeasibleD(i, fv)
		if !ok {
			t.Skip()
		}
		if math.IsNaN(dFrac) || math.IsInf(dFrac, 0) {
			dFrac = 0
		}
		dFrac = math.Abs(dFrac)
		if dFrac > 1 {
			dFrac = math.Mod(dFrac, 1)
		}
		s := Strategy{D: lo + (hi-lo)*dFrac, F: fv}

		ev := NewDeltaEvaluator(cfg)
		ev.Bind(p)
		work := p.Clone()
		work[i] = s
		got, want := ev.PayoffWith(i, s), cfg.Payoff(i, work)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("PayoffWith(%d, %+v) = %x, naive %x (seed=%d n=%d)",
				i, s, math.Float64bits(got), math.Float64bits(want), seed, n)
		}
		// After committing the move, every organization's payoff must match
		// the naive evaluation of the mutated profile.
		ev.Update(i, s)
		for j := 0; j < cfg.N(); j++ {
			got, want := ev.Payoff(j), cfg.Payoff(j, work)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("after Update: Payoff(%d) = %x, naive %x (seed=%d n=%d)",
					j, math.Float64bits(got), math.Float64bits(want), seed, n)
			}
		}
	})
}
