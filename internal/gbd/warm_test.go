package gbd

import (
	"reflect"
	"testing"

	"tradefl/internal/game"
)

func warmConfig(t *testing.T, seed int64, n int) *game.Config {
	t.Helper()
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: seed, N: n, NoOrgName: true})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// requireSameResult asserts bitwise equality of two solver results.
func requireSameResult(t *testing.T, label string, warm, cold *Result) {
	t.Helper()
	if !reflect.DeepEqual(warm, cold) {
		t.Fatalf("%s: warm result differs from cold solve\nwarm: %+v\ncold: %+v", label, warm, cold)
	}
}

// TestSolveWarmResultCache: re-solving the identical instance returns the
// cached Result verbatim, including across byte-identical option knobs
// (Workers is excluded from the result key).
func TestSolveWarmResultCache(t *testing.T) {
	cfg := warmConfig(t, 7, 8)
	r1, w, err := SolveWarm(cfg, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, w, err := SolveWarm(cfg, Options{}, w)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("identical re-solve did not hit the warm result cache")
	}
	r3, _, err := SolveWarm(cfg, Options{Workers: 1}, w)
	if err != nil {
		t.Fatal(err)
	}
	if r3 != r1 {
		t.Fatal("Workers is a byte-identical knob; it must not invalidate the result cache")
	}
	// A different epsilon is a different solve.
	r4, _, err := SolveWarm(cfg, Options{Epsilon: 1e-3}, w)
	if err != nil {
		t.Fatal(err)
	}
	if r4 == r1 {
		t.Fatal("changed Epsilon must invalidate the warm result")
	}
}

// TestSolveWarmDriftByteIdentical: an in-place drifted instance (same shape,
// new values) solved on the rebound warm solver must match a cold Solve
// bit for bit.
func TestSolveWarmDriftByteIdentical(t *testing.T) {
	for _, master := range []MasterSolver{MasterPruned, MasterTraversal} {
		cfg := warmConfig(t, 3, 6)
		opts := Options{Master: master}
		_, w, err := SolveWarm(cfg, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Drift the instance in place, campaign-style.
		for i := range cfg.Orgs {
			cfg.Orgs[i].Profitability *= 1.2
			cfg.Orgs[i].DataBits *= 1.05
			cfg.Orgs[i].Samples *= 1.05
		}
		cfg.NormalizeRho(game.DefaultZMargin)

		warm, _, err := SolveWarm(cfg, opts, w)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Solve(cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, master.goString(), warm, cold)
	}
}

// TestSolveWarmShapeChange: a warm state from one shape falls back to a
// fresh solver for a different shape and still matches the cold solve.
func TestSolveWarmShapeChange(t *testing.T) {
	a := warmConfig(t, 7, 5)
	b := warmConfig(t, 9, 8)
	_, w, err := SolveWarm(a, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.Fits(b) {
		t.Fatal("shape mismatch must not fit")
	}
	warm, _, err := SolveWarm(b, Options{}, w)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Solve(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "shape-change", warm, cold)
}

// TestSolveWarmSequence: a single warm state driven across a mixed sequence
// of instances (shape reuse, value drift, repeats) matches cold solves at
// every step.
func TestSolveWarmSequence(t *testing.T) {
	seeds := []int64{1, 2, 3, 1, 2}
	var w *Warm
	for step, seed := range seeds {
		cfg := warmConfig(t, seed, 6)
		var warm *Result
		var err error
		warm, w, err = SolveWarm(cfg, Options{}, w)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Solve(cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "sequence step", warm, cold)
		_ = step
	}
}

// goString labels a master solver in test output.
func (m MasterSolver) goString() string {
	if m == MasterTraversal {
		return "traversal"
	}
	return "pruned"
}
