package dbr

import (
	"math"
	"testing"

	"tradefl/internal/game"
)

// engineGames yields instances across sizes and both model variants so the
// equivalence tests cover every payoff expression form.
func engineGames(t *testing.T) []*game.Config {
	t.Helper()
	var cfgs []*game.Config
	for _, gen := range []game.GenOptions{
		{Seed: 1},
		{Seed: 7, N: 4},
		{Seed: 11, N: 16, Mu: 0.9},
	} {
		cfg, err := game.DefaultConfig(gen)
		if err != nil {
			t.Fatalf("DefaultConfig(%+v): %v", gen, err)
		}
		cfgs = append(cfgs, cfg)
		pers, err := game.DefaultConfig(gen)
		if err != nil {
			t.Fatalf("DefaultConfig(%+v): %v", gen, err)
		}
		pers.Personal = game.Personalization{Alpha: 0.3, LocalBoost: 1.5}
		cfgs = append(cfgs, pers)
	}
	return cfgs
}

// TestEngineBestResponseMatchesNaive compares the incremental engine scan
// against the naive oracle on identical profiles: strategy, value and the
// feasibility flag must agree bit-for-bit at every worker count.
func TestEngineBestResponseMatchesNaive(t *testing.T) {
	for _, cfg := range engineGames(t) {
		p := cfg.MinimalProfile()
		eng := NewEngine(cfg)
		eng.Bind(p)
		for i := 0; i < cfg.N(); i++ {
			ns, nv, nok := bestResponseNaive(cfg, p, i, 1e-7)
			for _, workers := range []int{1, 2, 4} {
				es, ev, eok := eng.BestResponse(i, 1e-7, workers)
				if nok != eok || ns != es || math.Float64bits(nv) != math.Float64bits(ev) {
					t.Fatalf("org %d workers %d: engine (%+v, %x, %v) != naive (%+v, %x, %v)",
						i, workers, es, math.Float64bits(ev), eok, ns, math.Float64bits(nv), nok)
				}
			}
		}
	}
}

// TestBestResponseWorkersHonorsProcessDefault checks the pooled entry
// point. There is no process-wide engine default any more: the pool always
// runs the incremental engine, so its answer must equal the naive oracle's
// bit-for-bit at every worker count.
func TestBestResponseWorkersHonorsProcessDefault(t *testing.T) {
	for _, cfg := range engineGames(t) {
		p := cfg.MinimalProfile()
		for i := 0; i < cfg.N(); i++ {
			ns, nv, nok := bestResponseNaive(cfg, p, i, 1e-7)
			for _, workers := range []int{1, 2, 4} {
				ps, pv, pok := BestResponseWorkers(cfg, p, i, 1e-7, workers)
				if nok != pok || ns != ps || math.Float64bits(nv) != math.Float64bits(pv) {
					t.Fatalf("org %d workers %d: pooled (%+v, %x, %v) != naive (%+v, %x, %v)",
						i, workers, ps, math.Float64bits(pv), pok, ns, math.Float64bits(nv), nok)
				}
			}
		}
	}
}

// requireSameSolve asserts two Algorithm 2 runs agree bitwise: control
// flow, profile, potential trace and payoff trace.
func requireSameSolve(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Rounds != want.Rounds || got.Converged != want.Converged {
		t.Fatalf("control flow diverged: got=(%d,%v) want=(%d,%v)", got.Rounds, got.Converged, want.Rounds, want.Converged)
	}
	if len(got.Profile) != len(want.Profile) {
		t.Fatalf("profile lengths differ: %d vs %d", len(got.Profile), len(want.Profile))
	}
	for i := range got.Profile {
		if got.Profile[i] != want.Profile[i] {
			t.Fatalf("profile[%d] diverged: got=%+v want=%+v", i, got.Profile[i], want.Profile[i])
		}
	}
	if len(got.PotentialTrace) != len(want.PotentialTrace) {
		t.Fatalf("potential trace length diverged: %d vs %d", len(got.PotentialTrace), len(want.PotentialTrace))
	}
	for r := range got.PotentialTrace {
		if math.Float64bits(got.PotentialTrace[r]) != math.Float64bits(want.PotentialTrace[r]) {
			t.Fatalf("potential trace[%d] diverged: %x vs %x", r,
				math.Float64bits(got.PotentialTrace[r]), math.Float64bits(want.PotentialTrace[r]))
		}
		for i := range got.PayoffTrace[r] {
			if math.Float64bits(got.PayoffTrace[r][i]) != math.Float64bits(want.PayoffTrace[r][i]) {
				t.Fatalf("payoff trace[%d][%d] diverged", r, i)
			}
		}
	}
}

// TestSolveIncrementalEquivalence is the end-to-end check of the engine:
// Solve must return the profile, payoff traces and potential traces of the
// naive Algorithm 2 sweep bit for bit.
func TestSolveIncrementalEquivalence(t *testing.T) {
	for _, cfg := range engineGames(t) {
		got, err := Solve(cfg, nil, Options{})
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		requireSameSolve(t, got, solveNaive(t, cfg, Options{}))
	}
}

var engineSink float64

// TestBestResponseZeroAlloc pins the tentpole's allocation contract: a
// steady-state serial best-response scan on a bound engine performs zero
// heap allocations. It uses an explicit engine (not the pool) so a
// concurrent GC cannot empty the pool mid-measurement and flake the count.
func TestBestResponseZeroAlloc(t *testing.T) {
	cfg := defaultGame(t, 1)
	p := cfg.MinimalProfile()
	eng := NewEngine(cfg)
	eng.Bind(p)
	// Warm once: the first scan may grow the golden-section bracket scratch.
	if _, _, ok := eng.BestResponse(0, 1e-7, 1); !ok {
		t.Fatal("no feasible best response for org 0")
	}
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < cfg.N(); i++ {
			_, v, _ := eng.BestResponse(i, 1e-7, 1)
			engineSink = v
		}
	})
	if allocs != 0 {
		t.Fatalf("BestResponse allocates %v per sweep, want 0", allocs)
	}
}

// BenchmarkBestResponseAllocs measures the engine's serial scan at the
// default instance size; with -benchmem it documents the zero-alloc steady
// state.
func BenchmarkBestResponseAllocs(b *testing.B) {
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: 7, NoOrgName: true})
	if err != nil {
		b.Fatal(err)
	}
	p := cfg.MinimalProfile()
	b.ReportAllocs()
	eng := NewEngine(cfg)
	eng.Bind(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := eng.BestResponse(i%cfg.N(), 1e-7, 1); !ok {
			b.Fatal("no feasible response")
		}
	}
}

// TestEngineResetReusesForSameConfig verifies the pool fast path: releasing
// and re-acquiring for the same config skips the evaluator rebuild and the
// engine still answers correctly after rebinding.
func TestEngineResetReusesForSameConfig(t *testing.T) {
	cfg := defaultGame(t, 2)
	p := cfg.MinimalProfile()
	e := acquireEngine(cfg)
	e.Bind(p)
	want := e.Payoff(0)
	releaseEngine(e)
	e2 := acquireEngine(cfg)
	e2.Bind(p)
	if got := e2.Payoff(0); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("pooled engine diverged after reuse: %x vs %x", math.Float64bits(got), math.Float64bits(want))
	}
	releaseEngine(e2)
}
