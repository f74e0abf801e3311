package fleet

import (
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestParsePlanRoundTrip: every plan parses back from its String form.
func TestParsePlanRoundTrip(t *testing.T) {
	for _, p := range []Plan{PlanAuto, PlanDBR, PlanPruned, PlanTraversal} {
		got, err := ParsePlan(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePlan(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePlan("greedy"); err == nil {
		t.Error("accepted unknown plan name")
	}
}

// TestDecideSerialTinyInstances: instances with N ≤ 4 always take the
// exact serial path (Workers 1), even with idle pool workers and a large
// grid — the fan-out overhead exceeds the whole solve.
func TestDecideSerialTinyInstances(t *testing.T) {
	var pl Planner
	for n := 1; n <= 4; n++ {
		st := Stats{N: n, MaxLevels: 64, MeanLevels: 64, Grid: 1 << 24, Epsilon: 1e-6}
		if dec := pl.Decide(st, 8); dec.Workers != 1 {
			t.Errorf("N=%d: Workers = %d, want the serial path", n, dec.Workers)
		}
	}
	// Large instances with idle workers may shard.
	st := Stats{N: 12, MaxLevels: 8, MeanLevels: 8, Grid: math.Pow(8, 12), Epsilon: 1e-6}
	if dec := pl.Decide(st, 3); dec.Workers != 4 {
		t.Errorf("large instance with 3 spare workers: Workers = %d, want 4", dec.Workers)
	}
	// A saturated pool (no spare workers) never shards.
	if dec := pl.Decide(st, 0); dec.Workers != 1 {
		t.Errorf("saturated pool: Workers = %d, want 1", dec.Workers)
	}
}

// TestDecideDeterministicPlan: the chosen plan is a pure function of the
// instance statistics — spare workers may only move the byte-identical
// worker count.
func TestDecideDeterministicPlan(t *testing.T) {
	var pl Planner
	base := Stats{N: 8, MaxLevels: 3, MeanLevels: 3, Grid: 6561, Epsilon: 1e-6}
	ref := pl.Decide(base, 0)
	for _, spare := range []int{0, 1, 4, 16} {
		if dec := pl.Decide(base, spare); dec.Plan != ref.Plan {
			t.Fatalf("plan flipped to %s under spare=%d", dec.Plan, spare)
		}
	}
}

// TestDecideDefaultProfileFallback: with no calibration profile at all the
// planner still routes the measured solver crossovers sensibly — tiny
// grids to a CGBD master, big-N instances to DBR, and never traversal on
// an intractable grid.
func TestDecideDefaultProfileFallback(t *testing.T) {
	var pl Planner // nil profile → DefaultProfile
	small := pl.Decide(Stats{N: 4, MaxLevels: 3, MeanLevels: 3, Grid: 81, Epsilon: 1e-6}, 0)
	if small.Plan == PlanDBR {
		t.Errorf("N=4 m=3 routed to %s; a CGBD master is an order of magnitude cheaper there", small.Plan)
	}
	big := pl.Decide(Stats{N: 16, MaxLevels: 3, MeanLevels: 3, Grid: math.Pow(3, 16), Epsilon: 1e-6}, 0)
	if big.Plan != PlanDBR {
		t.Errorf("N=16 m=3 routed to %s, want dbr (grid 3^16 is intractable for traversal, slow for pruned)", big.Plan)
	}
	huge := pl.Decide(Stats{N: 40, MaxLevels: 10, MeanLevels: 10, Grid: math.Pow(10, 40), Epsilon: 1e-6}, 0)
	if huge.Plan == PlanTraversal {
		t.Error("traversal chosen on a 10^40 grid")
	}
	if !math.IsInf(DefaultProfile().Predict(PlanTraversal, Stats{Grid: 1e12}), 1) {
		t.Error("traversal prediction finite beyond the hard grid cap")
	}
}

// TestProfileSaveLoad: JSON round-trip, version guard, and degenerate
// coefficient rejection.
func TestProfileSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "profile.json")
	prof := DefaultProfile()
	prof.DBRUnit = 1234.5
	if err := prof.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *prof {
		t.Fatalf("round-trip mismatch: %+v vs %+v", got, prof)
	}

	stale := DefaultProfile()
	stale.Version = profileVersion + 1
	stalePath := filepath.Join(dir, "stale.json")
	if err := stale.Save(stalePath); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadProfile(stalePath); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("stale profile version accepted: %v", err)
	}

	broken := DefaultProfile()
	broken.PrunedUnit = 0
	brokenPath := filepath.Join(dir, "broken.json")
	if err := broken.Save(brokenPath); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadProfile(brokenPath); err == nil {
		t.Error("zero coefficient accepted")
	}

	if _, err := LoadProfile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestCalibrate: the self-calibration micro-bench produces a valid profile
// with every coefficient inside the clamp band around the defaults.
func TestCalibrate(t *testing.T) {
	prof, err := Calibrate(CalibrateOptions{Seeds: []int64{1}, Ns: []int{4, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if err := prof.valid(); err != nil {
		t.Fatal(err)
	}
	def := DefaultProfile()
	for _, pair := range [][2]float64{
		{prof.DBRUnit, def.DBRUnit},
		{prof.PrunedUnit, def.PrunedUnit},
		{prof.TraversalUnit, def.TraversalUnit},
	} {
		if pair[0] > pair[1]*unitClamp || pair[0] < pair[1]/unitClamp {
			t.Errorf("calibrated unit %v outside the clamp band around %v", pair[0], pair[1])
		}
	}
	if prof.CalibratedNs <= 0 {
		t.Error("calibration wall time not recorded")
	}
}

// TestPlannerRegret: on the calibration corpus, auto planning is never
// slower than the best fixed plan by more than a bounded factor. The
// acceptance bound is 1.10 on the reference host; the test allows 1.5×
// plus an absolute slack so scheduler noise on loaded CI machines cannot
// flake it — auto picks the per-instance winner, which on this corpus
// beats every fixed plan outright.
func TestPlannerRegret(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock regret measurement")
	}
	cfgs := mixedCorpus(t, 2)
	run := func(plan Plan) time.Duration {
		best := time.Duration(math.MaxInt64)
		for rep := 0; rep < 3; rep++ {
			eng := New(Options{Plan: plan, Workers: 1})
			start := time.Now()
			for _, r := range eng.Solve(context.Background(), cfgs) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
			}
			if dt := time.Since(start); dt < best {
				best = dt
			}
		}
		return best
	}
	auto := run(PlanAuto)
	fixedBest := time.Duration(math.MaxInt64)
	for _, plan := range []Plan{PlanDBR, PlanPruned} { // traversal diverges on N=10
		if dt := run(plan); dt < fixedBest {
			fixedBest = dt
		}
	}
	const slack = 5 * time.Millisecond
	if auto > fixedBest+fixedBest/2+slack {
		t.Errorf("auto %v vs best fixed %v: regret above the 1.5× + %v bound", auto, fixedBest, slack)
	}
}
