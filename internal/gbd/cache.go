package gbd

import "math"

// This file holds the incremental-evaluation state of the CGBD solver:
// per-(organization, CPU-level) constant caches, the persistent
// incrementally-grown master cut tables with dominated-cut eviction, and
// the f-vector-keyed primal memo. Every cached quantity is produced by the
// same floating-point expression a direct evaluation uses, so the masters
// return exactly what a full grid scan over freshly tabulated cuts would —
// the tests keep that reference (buildTables, optCutTermDirect, the
// mixed-radix scan) and replay every solve's cuts against it.

// primalResult memoizes one solved primal subproblem (19), keyed by the
// f-grid index vector. The d/u slices are shared with the optimality cuts
// generated from them and are never mutated after insertion.
type primalResult struct {
	d, u     []float64
	feasible bool
}

// primalMemoCap bounds the memo; far above any real run (MaxIter defaults
// to 50, so at most 50 distinct f vectors occur), it exists so adversarial
// option settings cannot grow the map without bound. Eviction is FIFO.
const primalMemoCap = 512

// dominationMargin is the strictness margin of dominated-cut eviction: cut
// B is dropped only when the separable bound proves A(f) ≤ B(f) − margin
// for every grid point f. The margin absorbs the floating-point error of
// the bound itself (≈ N·ulp of the term scale, orders of magnitude below
// 1e-6 at the potential's O(1e3) scale), so eviction never removes a cut
// that could tie the min at any grid point — which is what keeps the
// master's φ values bit-identical to keeping every cut.
const dominationMargin = 1e-6

// initCaches precomputes the per-(org, level) constants every primal
// solve and cut tabulation reuses, and seeds the persistent structures.
// Each cached value is computed once by exactly the expression a direct
// evaluation uses per call (linearCostPerOmega, fOnlyTerm, FeasibleD,
// MaxDataFraction), so cached and fresh bits agree.
//
// It is reuse-friendly: when the solver already holds shape-matched
// allocations (a warm rebind, see warm.go), every slice and map is recycled
// and only the values are recomputed — the numeric state is re-derived from
// the config in full, so a rebound solver's output stays byte-identical to
// a fresh one's.
func (s *solver) initCaches() {
	cfg := s.cfg
	n := cfg.N()
	if len(s.levels) != n {
		s.levels = make([][]float64, n)
		s.lvlCost = make([][]float64, n)
		s.lvlLoY = make([][]float64, n)
		s.lvlHiY = make([][]float64, n)
		s.lvlFOnly = make([][]float64, n)
		s.lvlCapD = make([][]float64, n)
		s.lvlOK = make([][]bool, n)
	}
	for i := 0; i < n; i++ {
		o := cfg.Orgs[i]
		levels := o.CPULevels
		m := len(levels)
		s.levels[i] = levels
		if len(s.lvlCost[i]) != m {
			s.lvlCost[i] = make([]float64, m)
			s.lvlLoY[i] = make([]float64, m)
			s.lvlHiY[i] = make([]float64, m)
			s.lvlFOnly[i] = make([]float64, m)
			s.lvlCapD[i] = make([]float64, m)
			s.lvlOK[i] = make([]bool, m)
		}
		for k, fi := range levels {
			dlo, dhi, ok := cfg.FeasibleD(i, fi)
			s.lvlOK[i][k] = ok
			s.lvlLoY[i][k] = dlo * s.scale[i]
			s.lvlHiY[i][k] = dhi * s.scale[i]
			s.lvlCost[i][k] = s.linearCostPerOmega(i, fi)
			s.lvlFOnly[i][k] = s.fOnlyTerm(i, fi)
			s.lvlCapD[i][k] = o.Comm.MaxDataFraction(o.DataBits, fi, cfg.Deadline)
		}
	}
	if s.tables == nil {
		s.tables = &cutTables{}
	}
	t := s.tables
	t.levels = s.levels
	t.opt, t.optMax, t.optConst = t.opt[:0], t.optMax[:0], t.optConst[:0]
	t.feas, t.feasMin = t.feas[:0], t.feasMin[:0]
	if s.memo == nil {
		s.memo = make(map[string]primalResult)
	} else {
		clear(s.memo)
	}
	s.memoKeys = s.memoKeys[:0]
	if len(s.wfY) != n {
		s.wfY = make([]float64, n)
		s.wfOrder = make([]int, n)
		s.wfW = make([]float64, n)
		s.wfLo = make([]float64, n)
		s.wfHi = make([]float64, n)
	}
	s.lb = math.Inf(-1)
}

// optCutTerm is the f_i-dependent contribution of organization i at CPU
// level k to a linearized optimality cut:
//
//	max_{d∈[DMin,1]} [(P'(Ω̂) − w_i(f_i))·scale_i − u_i·slope_i(f_i)]·d
//	  + γ·ρ̄_i·λ·f_i/z_i − u_i·(T1 + T3 − τ) ,
//
// where slope_i(f) = η_i·s_i/f is dG_i/dd_i and the Lagrangian of the
// maximization primal is L = U − u·G (weak duality: −u·G ≥ 0 on the
// feasible set). The inner maximum of the linear term sits at one of the
// box endpoints. The two self-contained f_i-only subexpressions
// (linearCostPerOmega, fOnlyTerm) are read from the level caches; the
// remaining arithmetic is the direct expression verbatim.
func (s *solver) optCutTerm(c optimalityCut, i, k int) float64 {
	fi := s.levels[i][k]
	o := s.cfg.Orgs[i]
	coef := (c.pSlope-s.lvlCost[i][k])*s.scale[i] -
		c.u[i]*o.Comm.CyclesPerBit*o.DataBits/fi
	inner := coef * s.cfg.DMin
	if v := coef * 1; v > inner {
		inner = v
	}
	base := o.Comm.DownloadTime + o.Comm.UploadTime - s.cfg.Deadline
	return inner + s.lvlFOnly[i][k] - c.u[i]*base
}

// cutDominates reports whether cut A sits strictly below cut B across the
// whole f grid: max_f [A(f) − B(f)] ≤ Σ_i max_k (A_ik − B_ik) + cA − cB,
// and A dominates when that separable bound is ≤ −dominationMargin. A
// dominated cut never attains the min-over-cuts alone, so dropping it
// leaves every φ value bit-identical.
func cutDominates(aTerms [][]float64, aConst float64, bTerms [][]float64, bConst float64) bool {
	bound := aConst - bConst
	for i := range aTerms {
		best := math.Inf(-1)
		for k := range aTerms[i] {
			if d := aTerms[i][k] - bTerms[i][k]; d > best {
				best = d
			}
		}
		bound += best
	}
	return bound <= -dominationMargin
}

// addOptCut tabulates a freshly generated optimality cut into the
// persistent master tables and evicts strictly dominated cuts (either
// direction).
func (s *solver) addOptCut(c optimalityCut) {
	n := s.cfg.N()
	terms := make([][]float64, n)
	maxs := make([]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, len(s.levels[i]))
		best := math.Inf(-1)
		for k := range s.levels[i] {
			row[k] = s.optCutTerm(c, i, k)
			if row[k] > best {
				best = row[k]
			}
		}
		terms[i] = row
		maxs[i] = best
	}
	konst := s.optCutConst(c)
	t := s.tables
	// An existing cut strictly below the new one everywhere already implies
	// the constraint the new cut would add — skip it.
	for v := range t.opt {
		if cutDominates(t.opt[v], t.optConst[v], terms, konst) {
			mCutsEvicted.Inc()
			return
		}
	}
	// Drop existing cuts the new cut strictly dominates.
	w := 0
	for v := range t.opt {
		if cutDominates(terms, konst, t.opt[v], t.optConst[v]) {
			mCutsEvicted.Inc()
			continue
		}
		t.opt[w], t.optMax[w], t.optConst[w] = t.opt[v], t.optMax[v], t.optConst[v]
		w++
	}
	t.opt = append(t.opt[:w], terms)
	t.optMax = append(t.optMax[:w], maxs)
	t.optConst = append(t.optConst[:w], konst)
	mCutTabIncr.Inc()
}

// addFeasCut tabulates a feasibility cut into the persistent master
// tables.
func (s *solver) addFeasCut(c feasibilityCut) {
	n := s.cfg.N()
	terms := make([][]float64, n)
	mins := make([]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, len(s.levels[i]))
		best := math.Inf(1)
		for k, fi := range s.levels[i] {
			row[k] = s.feasCutTerm(c, i, fi)
			if row[k] < best {
				best = row[k]
			}
		}
		terms[i] = row
		mins[i] = best
	}
	t := s.tables
	t.feas = append(t.feas, terms)
	t.feasMin = append(t.feasMin, mins)
	mCutTabIncr.Inc()
}

// masterSeed returns the incumbent-derived φ seed of the master search: a
// hair below the lower bound, so grid points that cannot beat the
// incumbent are pruned immediately. Exactness: a suppressed point has
// φ < LB, so an unseeded master would return ub = φ < lb and Algorithm 1
// would declare convergence on the incumbent — exactly what the seeded
// master's "nothing found" path does; Profile, Potential, iteration count
// and the LowerBounds trace are identical, only the final UpperBounds
// entry may read lb instead of the (converged-anyway) φ.
func (s *solver) masterSeed() float64 {
	if math.IsInf(s.lb, -1) {
		return math.Inf(-1)
	}
	mMasterSeeded.Inc()
	return s.lb - (math.Abs(s.lb)*1e-9 + 1e-9)
}

// masterWarmSeed returns the strongest exactness-preserving incumbent seed
// for a master search: the lower-bound seed (masterSeed), raised to a hair
// below φ(prevIdx) when the previous master's argmax is still feasible
// under the current cut tables — the CGBD warm start. Exactness of the warm
// part: y = φ(prevIdx) is *attained* by a grid point, so seeding strictly
// below y cannot change the search result at all. The incumbent stays below
// the true maximum until the first maximizer is visited (an earlier point
// with φ equal to the maximum would itself be the first maximizer), every
// subtree containing it has optimistic bound ≥ max > incumbent and is never
// pruned, and the leaf records it via the same strict > update — so the
// returned argmax, φ, and hence the whole UpperBounds trace are
// byte-identical to the unseeded search. Only the lb-derived floor retains
// masterSeed's final-UB-entry caveat.
func (s *solver) masterWarmSeed(t *cutTables) float64 {
	seed := s.masterSeed()
	if len(s.prevIdx) != s.cfg.N() || !s.gridFeasible(t, s.prevIdx) {
		return seed
	}
	y := s.gridPhi(t, s.prevIdx)
	if math.IsInf(y, 1) {
		return seed
	}
	if warm := y - (math.Abs(y)*1e-9 + 1e-9); warm > seed {
		seed = warm
		mMasterWarm.Inc()
	}
	return seed
}

// solvePrimal maximizes U(·, f) over the box of feasible d, served from
// the f-vector memo and solved (solvePrimalFresh) and inserted on miss.
// Hits occur when the master revisits an f — typically near convergence
// and on warm re-solves — and cost O(N) key bytes. fIdx gives f's grid
// indices. Memoized slices are shared — callers must not mutate the result.
func (s *solver) solvePrimal(f []float64, fIdx []int) ([]float64, []float64, bool) {
	s.keyBuf = s.keyBuf[:0]
	for _, k := range fIdx {
		s.keyBuf = append(s.keyBuf, byte(k), byte(k>>8))
	}
	if r, ok := s.memo[string(s.keyBuf)]; ok {
		mPrimalHits.Inc()
		return r.d, r.u, r.feasible
	}
	mPrimalMisses.Inc()
	d, u, feasible := s.solvePrimalFresh(f, fIdx)
	if len(s.memoKeys) >= primalMemoCap {
		delete(s.memo, s.memoKeys[0])
		s.memoKeys = s.memoKeys[1:]
		mPrimalEvicts.Inc()
	}
	key := string(s.keyBuf)
	s.memo[key] = primalResult{d: d, u: u, feasible: feasible}
	s.memoKeys = append(s.memoKeys, key)
	return d, u, feasible
}
