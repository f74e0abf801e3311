package gbd

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"tradefl/internal/game"
)

// gbdGames yields CGBD instances across sizes, grid densities, competition
// intensities and a deadline tight enough to make slow CPU levels
// infeasible (CGBD rejects the personalization extension, so only the base
// model).
func gbdGames(t *testing.T) []*game.Config {
	t.Helper()
	var cfgs []*game.Config
	for _, gen := range []game.GenOptions{
		{Seed: 7},
		{Seed: 3, N: 4, CPUSteps: 5},
		{Seed: 11, N: 6, Mu: 0.9},
		{Seed: 2, N: 5, CPUSteps: 4},
	} {
		cfg, err := game.DefaultConfig(gen)
		if err != nil {
			t.Fatalf("DefaultConfig(%+v): %v", gen, err)
		}
		cfgs = append(cfgs, cfg)
	}
	tight := cfgs[len(cfgs)-1]
	tight.DMin = 0.6
	tight.Deadline = 0.5 + 0.6*25e9/4.2e9
	return cfgs
}

// TestSolveIncrementalEquivalence replays each solve's cut sequence into a
// fresh solver and, after every cut, checks the production masters against
// the reference scan over tables rebuilt from all cuts so far (see
// reference_test.go). The replay solver's incumbent seed stays disabled
// (lb = −∞, no previous argmax), so the pruned and traversal masters must
// return the reference argmax and φ bit for bit at every worker count.
// This pins the exactness of the cached cut terms, incremental
// tabulation, dominated-cut eviction and the fused search kernels. The
// live solver that generates the cuts runs seeded, and its masters are
// held to the same reference, which pins the incumbent seeds too.
func TestSolveIncrementalEquivalence(t *testing.T) {
	var feasCuts, evicted int
	for gi, cfg := range gbdGames(t) {
		for _, master := range []MasterSolver{MasterPruned, MasterTraversal} {
			opts := Options{Master: master}.withDefaults()
			live := newSolver(cfg, opts)
			replay := newSolver(cfg, opts)
			var opt, natural []optimalityCut
			var feas []feasibilityCut
			n := cfg.N()
			f := make([]float64, n)
			fIdx := make([]int, n)
			for i, o := range cfg.Orgs {
				fIdx[i] = len(o.CPULevels) - 1
				f[i] = o.CPULevels[fIdx[i]]
			}
			lb, ub := math.Inf(-1), math.Inf(1)
			for k := 0; k < opts.MaxIter; k++ {
				d, u, feasible := live.solvePrimal(f, fIdx)
				if feasible {
					if v := cfg.Potential(toProfile(d, f)); v > lb {
						lb = v
					}
					live.lb = lb
					c := live.newOptCut(d, u)
					live.addOptCut(c)
					natural = append(natural, c)
					for _, rc := range withShiftedCopy(c, k) {
						replay.addOptCut(rc)
						opt = append(opt, rc)
					}
				} else {
					c := feasibilityCut{d: d, lambda: live.solveFeasibility(f)}
					live.addFeasCut(c)
					replay.addFeasCut(c)
					feas = append(feas, c)
				}
				label := fmt.Sprintf("game %d master %d cut %d", gi, master, k)
				checkReplay(t, replay, buildTables(replay, opt, feas), label)
				// The live master runs seeded: when it finds a point it must
				// be the reference argmax, and when it finds none no point
				// may reach the incumbent.
				fIdxNext, fNext, phi, ok := live.solveMaster()
				wantIdx, wantPhi, wantOK := scanGrid(buildTables(live, natural, feas))
				if ok && (!slices.Equal(fIdxNext, wantIdx) || math.Float64bits(phi) != math.Float64bits(wantPhi)) {
					t.Fatalf("%s: seeded master = (%v, %x), reference scan (%v, %x)",
						label, fIdxNext, math.Float64bits(phi), wantIdx, math.Float64bits(wantPhi))
				}
				if !ok && wantOK && wantPhi >= lb {
					t.Fatalf("%s: seeded master found nothing, reference scan reaches φ %v ≥ incumbent %v", label, wantPhi, lb)
				}
				if !ok {
					break
				}
				ub = math.Min(ub, phi)
				if ub-lb <= opts.Epsilon {
					break
				}
				f, fIdx = fNext, fIdxNext
			}
			feasCuts += len(feas)
			evicted += len(opt) - len(replay.tables.opt)
		}
	}
	// The suite must exercise both cut kinds and eviction, or the replay
	// proves less than it claims.
	if feasCuts == 0 || evicted == 0 {
		t.Fatalf("replay covered %d feasibility cuts and %d evictions; want both > 0", feasCuts, evicted)
	}
}

// withShiftedCopy returns c followed, on two of every three iterations,
// by a copy shifted down or up by 1e-3. Algorithm 1's cuts are each tight
// at their own grid point and bound the primal value everywhere else, so
// none can strictly dominate another and eviction never fires on them
// alone; the copies drive both eviction directions — a lowered copy evicts
// c, a raised copy is dominated by c and skipped.
func withShiftedCopy(c optimalityCut, k int) []optimalityCut {
	shifted := c
	switch k % 3 {
	case 1:
		shifted.pHat -= 1e-3
	case 2:
		shifted.pHat += 1e-3
	default:
		return []optimalityCut{c}
	}
	return []optimalityCut{c, shifted}
}

// checkReplay runs both production masters on s, serial and sharded, with
// the incumbent seed disabled, and requires the reference scan's argmax
// and φ bits.
func checkReplay(t *testing.T, s *solver, ref *cutTables, label string) {
	t.Helper()
	if !math.IsInf(s.lb, -1) {
		t.Fatalf("%s: replay solver has lower bound %v; the seed must stay disabled", label, s.lb)
	}
	wantIdx, wantPhi, wantOK := scanGrid(ref)
	for _, master := range []MasterSolver{MasterPruned, MasterTraversal} {
		for _, workers := range []int{1, 4} {
			s.opts.Master, s.workers, s.prevIdx = master, workers, nil
			idx, f, phi, ok := s.solveMaster()
			if ok != wantOK || !slices.Equal(idx, wantIdx) ||
				(ok && math.Float64bits(phi) != math.Float64bits(wantPhi)) {
				t.Fatalf("%s: master %d workers %d = (%v, %v, %x), reference scan (%v, %v, %x)",
					label, master, workers, idx, ok, math.Float64bits(phi), wantIdx, wantOK, math.Float64bits(wantPhi))
			}
			for i, k := range idx {
				if f[i] != ref.levels[i][k] {
					t.Fatalf("%s: master %d workers %d: f[%d] = %v, want level %d = %v",
						label, master, workers, i, f[i], k, ref.levels[i][k])
				}
			}
		}
	}
	s.prevIdx = nil
}

// TestSolveIncrementalEquivalenceParallel runs whole solves with a
// sharded master search: at 2 and 4 workers each master must return the
// serial solve's Result exactly — solution, bounds and traces.
func TestSolveIncrementalEquivalenceParallel(t *testing.T) {
	cfg := defaultGame(t, 7)
	for _, master := range []MasterSolver{MasterTraversal, MasterPruned} {
		serial, err := Solve(cfg, Options{Master: master, Workers: 1})
		if err != nil {
			t.Fatalf("Solve(master=%v, workers=1): %v", master, err)
		}
		for _, workers := range []int{2, 4} {
			sharded, err := Solve(cfg, Options{Master: master, Workers: workers})
			if err != nil {
				t.Fatalf("Solve(master=%v, workers=%d): %v", master, workers, err)
			}
			requireSameResult(t, fmt.Sprintf("master %d workers %d", master, workers), sharded, serial)
		}
	}
}

// TestPrimalMemoHits verifies the f-vector memo actually fires: solving an
// instance whose master revisits f-vectors must record cache hits, and a
// repeated solve must never change the answer.
func TestPrimalMemoHits(t *testing.T) {
	cfg := defaultGame(t, 7)
	before := mPrimalHits.Value() + mPrimalMisses.Value()
	first, err := Solve(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	after := mPrimalHits.Value() + mPrimalMisses.Value()
	if after == before {
		t.Fatal("solve recorded no primal cache traffic")
	}
	second, err := Solve(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "repeat", second, first)
}

// TestCutDomination exercises the domination predicate directly: a cut that
// sits below another by at least the margin at every grid point is
// dominated, identical cuts are not (margin rule), and crossing cuts are
// incomparable in both directions.
func TestCutDomination(t *testing.T) {
	terms := [][]float64{{0, 1}, {2, 3}}
	if !cutDominates(terms, 1, terms, 2) {
		t.Fatal("a cut should dominate a shifted-up copy of itself")
	}
	if cutDominates(terms, 1, terms, 1) {
		t.Fatal("a cut must not dominate an identical copy (margin rule)")
	}
	if cutDominates(terms, 1-5e-7, terms, 1) {
		t.Fatal("a gap inside the 1e-6 margin must not count as domination")
	}
	crossA := [][]float64{{0, 10}}
	crossB := [][]float64{{10, 0}}
	if cutDominates(crossA, 0, crossB, 0) || cutDominates(crossB, 0, crossA, 0) {
		t.Fatal("crossing cuts must be incomparable")
	}
}
