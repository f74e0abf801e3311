package gbd

import (
	"math"
	"sort"

	"tradefl/internal/parallel"
)

// cutTables precomputes, for every cut, the per-organization per-CPU-level
// term values, so grid enumeration touches no float math beyond additions.
type cutTables struct {
	levels [][]float64 // levels[i] = CPU grid of organization i
	// opt[v][i][k]: term of optimality cut v for org i at level k.
	opt [][][]float64
	// optConst[v]: f-independent part of optimality cut v.
	optConst []float64
	// feas[w][i][k]: term of feasibility cut w for org i at level k.
	feas [][][]float64
	// optMax[v][i]: max over k of opt[v][i][k] (for pruning bounds).
	optMax [][]float64
	// feasMin[w][i]: min over k of feas[w][i][k].
	feasMin [][]float64
}

// branchBest is the result of searching one shard of the f grid: the
// shard's first (in enumeration order) maximizer and its φ value.
type branchBest struct {
	phi float64
	idx []int
	ok  bool
}

// reduceBranches folds shard results in shard order with the same
// strictly-greater comparison the serial scans use, so the winner is the
// globally first maximizer in serial enumeration order.
func reduceBranches(results []branchBest) ([]int, float64, bool) {
	bestPhi := math.Inf(-1)
	var bestIdx []int
	for _, r := range results {
		if r.ok && r.phi > bestPhi {
			bestPhi = r.phi
			bestIdx = r.idx
		}
	}
	if bestIdx == nil {
		return nil, 0, false
	}
	return bestIdx, bestPhi, true
}

// masterTraversal enumerates the full f grid — the paper's traversal
// method, Θ(m^N) grid points — as a depth-first enumeration whose per-depth
// partial sums (traversalSearch.assign) rebuild each cut sum as parent + term
// in organization order: the exact left-to-right fold gridPhi performs, so
// every φ is bit-identical to a mixed-radix scan of the grid while the
// shared prefix work drops the per-point cost from O(N·cuts) to O(cuts).
// No bound pruning is applied beyond the incumbent seed (masterWarmSeed);
// enumeration order (and hence the first-maximizer tie-break) matches the
// serial scan, and with more than one worker the tree is sharded over the
// first organization's CPU levels exactly like masterPruned, with shard
// results reduced in index order — the chosen grid point is byte-identical
// for every worker count.
func (s *solver) masterTraversal() ([]int, []float64, float64, bool) {
	t := s.tables
	n := s.cfg.N()
	seed := s.masterWarmSeed(t)
	roots := len(t.levels[0])
	if s.workers <= 1 || n < 2 || roots < 2 {
		ps := newTraversalSearch(t, n, nil)
		ps.bestPhi = seed
		ps.dfsExhaustive(0)
		if ps.bestIdx == nil {
			return nil, nil, 0, false
		}
		s.prevIdx = ps.bestIdx
		return ps.bestIdx, s.gridF(t, ps.bestIdx), ps.bestPhi, true
	}
	var shared parallel.MaxFloat64
	shared.Update(seed)
	results := parallel.MapLabeled("gbd.traversal", s.workers, roots, func(root int) branchBest {
		ps := newTraversalSearch(t, n, &shared)
		ps.bestPhi = seed
		ps.assign(0, root)
		ps.dfsExhaustive(1)
		return branchBest{phi: ps.bestPhi, idx: ps.bestIdx, ok: ps.bestIdx != nil}
	})
	bestIdx, bestPhi, ok := reduceBranches(results)
	if !ok {
		return nil, nil, 0, false
	}
	s.prevIdx = bestIdx
	return bestIdx, s.gridF(t, bestIdx), bestPhi, true
}

// gridFeasible checks all feasibility cuts at a grid point.
func (s *solver) gridFeasible(t *cutTables, idx []int) bool {
	for w := range t.feas {
		var sum float64
		for i, k := range idx {
			sum += t.feas[w][i][k]
		}
		if sum > 1e-12 {
			return false
		}
	}
	return true
}

// gridPhi evaluates min over optimality cuts at a grid point; +Inf with no
// cuts (the master is then unbounded and any feasible point works).
func (s *solver) gridPhi(t *cutTables, idx []int) float64 {
	if len(t.opt) == 0 {
		return math.Inf(1)
	}
	phi := math.Inf(1)
	for v := range t.opt {
		sum := t.optConst[v]
		for i, k := range idx {
			sum += t.opt[v][i][k]
		}
		if sum < phi {
			phi = sum
		}
	}
	return phi
}

func (s *solver) gridF(t *cutTables, idx []int) []float64 {
	f := make([]float64, len(idx))
	for i, k := range idx {
		f[i] = t.levels[i][k]
	}
	return f
}

// boundSuffixes precomputes suffix sums of per-organization extrema so the
// depth-first search completes partial sums to optimistic bounds in O(1).
type boundSuffixes struct {
	// opt[v][i] = Σ_{j≥i} optMax[v][j]; feas[w][i] = Σ_{j≥i} feasMin[w][j].
	opt, feas [][]float64
}

func newBoundSuffixes(t *cutTables, n int) *boundSuffixes {
	b := &boundSuffixes{
		opt:  make([][]float64, len(t.opt)),
		feas: make([][]float64, len(t.feas)),
	}
	for v := range t.opt {
		suf := make([]float64, n+1)
		for i := n - 1; i >= 0; i-- {
			suf[i] = suf[i+1] + t.optMax[v][i]
		}
		b.opt[v] = suf
	}
	for w := range t.feas {
		suf := make([]float64, n+1)
		for i := n - 1; i >= 0; i-- {
			suf[i] = suf[i+1] + t.feasMin[w][i]
		}
		b.feas[w] = suf
	}
	return b
}

// traversalSearch is the reusable depth-first search state of
// masterTraversal. Each worker owns one instance; only the shared incumbent
// bound crosses goroutines.
//
// Partial sums are kept per depth (opt[d][v] is the sum after assigning
// organizations < d) and each level is computed fresh as parent + term —
// never by subtracting on backtrack — so the value at a node is a pure
// function of the path to it. This keeps shard arithmetic byte-identical
// to the serial search (an add/subtract scheme would leak floating-point
// residue from sibling branches into later sums).
type traversalSearch struct {
	t *cutTables
	n int
	// shared is the cross-shard incumbent φ bound; nil in the serial path.
	shared *parallel.MaxFloat64

	idx []int
	// opt[d][v], feas[d][w]: cut partial sums after assigning orgs < d.
	opt, feas [][]float64
	bestPhi   float64
	bestIdx   []int
}

func newTraversalSearch(t *cutTables, n int, shared *parallel.MaxFloat64) *traversalSearch {
	ps := &traversalSearch{
		t:       t,
		n:       n,
		shared:  shared,
		idx:     make([]int, n),
		opt:     make([][]float64, n+1),
		feas:    make([][]float64, n+1),
		bestPhi: math.Inf(-1),
	}
	for d := 0; d <= n; d++ {
		ps.opt[d] = make([]float64, len(t.opt))
		ps.feas[d] = make([]float64, len(t.feas))
	}
	for v := range t.opt {
		ps.opt[0][v] = t.optConst[v]
	}
	return ps
}

// assign sets organization depth to level k, deriving the next depth's
// partial sums from the current ones.
func (ps *traversalSearch) assign(depth, k int) {
	ps.idx[depth] = k
	for v, cur := range ps.opt[depth] {
		ps.opt[depth+1][v] = cur + ps.t.opt[v][depth][k]
	}
	for w, cur := range ps.feas[depth] {
		ps.feas[depth+1][w] = cur + ps.t.feas[w][depth][k]
	}
}

// incTables is the pruned master's layout of the master cut tables:
// depth-major and cut-contiguous. terms[d][k*c+v] holds the depth-d term of
// (reordered) optimality cut v at level k, so evaluating every cut at one
// (depth, level) is a single sequential scan instead of c pointer chases
// through [][][]float64; osuf[d][v] is the matching suffix-of-maxima bound
// completion, contiguous per depth. Cuts are permuted tightest-first (by
// root bound): φ and every node bound are min-over-cuts of per-cut values
// that do not depend on cut order, so the permutation changes no output
// bit, but it lets the fused child loop reach its floor — and the early
// prune exit — after fewer cuts.
type incTables struct {
	c, fc int
	width []int // width[d] = number of CPU levels of organization d
	// terms[d][k*c+v]: optimality-cut terms; osuf[d][v] = Σ_{j≥d} optMax.
	terms, osuf [][]float64
	// fterms[d][k*fc+w]: feasibility-cut terms; fsuf[d][w] = Σ_{j≥d} feasMin.
	fterms, fsuf [][]float64
	konst        []float64 // konst[v]: reordered optConst
}

func newIncTables(t *cutTables, suf *boundSuffixes, n int) *incTables {
	c, fc := len(t.opt), len(t.feas)
	it := &incTables{
		c: c, fc: fc,
		width:  make([]int, n),
		terms:  make([][]float64, n),
		osuf:   make([][]float64, n+1),
		fterms: make([][]float64, n),
		fsuf:   make([][]float64, n+1),
		konst:  make([]float64, c),
	}
	ord := make([]int, c)
	for v := range ord {
		ord[v] = v
	}
	sort.Slice(ord, func(a, b int) bool {
		ba := t.optConst[ord[a]] + suf.opt[ord[a]][0]
		bb := t.optConst[ord[b]] + suf.opt[ord[b]][0]
		if ba != bb {
			return ba < bb
		}
		return ord[a] < ord[b]
	})
	for p, v := range ord {
		it.konst[p] = t.optConst[v]
	}
	for d := 0; d < n; d++ {
		m := len(t.levels[d])
		it.width[d] = m
		row := make([]float64, m*c)
		for k := 0; k < m; k++ {
			for p, v := range ord {
				row[k*c+p] = t.opt[v][d][k]
			}
		}
		it.terms[d] = row
		frow := make([]float64, m*fc)
		for k := 0; k < m; k++ {
			for w := 0; w < fc; w++ {
				frow[k*fc+w] = t.feas[w][d][k]
			}
		}
		it.fterms[d] = frow
	}
	for d := 0; d <= n; d++ {
		os := make([]float64, c)
		for p, v := range ord {
			os[p] = suf.opt[v][d]
		}
		it.osuf[d] = os
		fs := make([]float64, fc)
		for w := 0; w < fc; w++ {
			fs[w] = suf.feas[w][d]
		}
		it.fsuf[d] = fs
	}
	return it
}

// incSearch is masterPruned's fused depth-first search over the flat
// incTables layout. Pruning is two-fold: feasibility cuts that cannot
// return below zero kill a subtree, and the optimistic completion of
// min-over-cuts (partial sum + suffix maximum) prunes against the
// incumbent — the local one with ≤ (matching the serial first-maximizer
// tie-break within a shard) and the shared cross-shard bound with strict <,
// so a shard never discards a point that ties the global optimum and the
// shard-order reduction reproduces the serial tie-break exactly. Per child
// it computes the next partial sums AND the optimistic bound in one
// sequential pass, so pruned children never recurse. Each child sum is
// parent + term in organization order — the left-to-right fold gridPhi
// performs — so every φ value is bit-identical to a full grid scan. The
// bound loop exits as soon as the running min drops to the incumbent: the
// running min only decreases, so the prune decision equals the full-min
// decision.
type incSearch struct {
	t      *incTables
	n      int
	shared *parallel.MaxFloat64 // cross-shard incumbent; nil when serial

	idx       []int
	opt, feas [][]float64 // partial sums after assigning orgs < d
	bestPhi   float64
	bestIdx   []int
}

func newIncSearch(it *incTables, n int, shared *parallel.MaxFloat64) *incSearch {
	is := &incSearch{
		t:       it,
		n:       n,
		shared:  shared,
		idx:     make([]int, n),
		opt:     make([][]float64, n+1),
		feas:    make([][]float64, n+1),
		bestPhi: math.Inf(-1),
	}
	for d := 0; d <= n; d++ {
		is.opt[d] = make([]float64, it.c)
		is.feas[d] = make([]float64, it.fc)
	}
	copy(is.opt[0], it.konst)
	return is
}

// run performs the entry checks at a search root (feasibility
// suffix, optimistic bound vs the local and shared incumbents) and then
// explores the subtree. Interior nodes skip run: their checks already
// happened in the parent's fused child loop.
func (is *incSearch) run(depth int) {
	for w := 0; w < is.t.fc; w++ {
		if is.feas[depth][w]+is.t.fsuf[depth][w] > 1e-12 {
			return
		}
	}
	if is.t.c > 0 {
		bound := math.Inf(1)
		for v := 0; v < is.t.c; v++ {
			if b := is.opt[depth][v] + is.t.osuf[depth][v]; b < bound {
				bound = b
			}
		}
		if bound <= is.bestPhi {
			return
		}
		if is.shared != nil && bound < is.shared.Load() {
			return
		}
	}
	is.descend(depth)
}

// enterShard assigns organization 0 to the shard's root level — the same
// parent + term sums assign computes — and searches the shard subtree.
func (is *incSearch) enterShard(root int) {
	is.idx[0] = root
	c, fc := is.t.c, is.t.fc
	for v := 0; v < c; v++ {
		is.opt[1][v] = is.opt[0][v] + is.t.terms[0][root*c+v]
	}
	for w := 0; w < fc; w++ {
		is.feas[1][w] = is.feas[0][w] + is.t.fterms[0][root*fc+w]
	}
	is.run(1)
}

// descend dispatches subtree exploration to the register-specialized
// kernel for the current optimality-cut count when one exists (no
// feasibility cuts, 2–6 cuts — the common mid-solve shapes), else to the
// generic fused loop. The kernels carry the per-cut partial sums in
// function arguments instead of the per-depth slices, eliminating all
// partial-sum loads and stores on the hot path; every addition, min fold,
// comparison, and tie-break is the same operation on the same operands in
// the same order as the generic loop, so the search result is unchanged
// bit for bit. (The kernels fold the full min where the generic loop may
// exit early; the running min only decreases, so every prune and update
// decision is identical either way.)
func (is *incSearch) descend(depth int) {
	if is.t.fc == 0 {
		cur := is.opt[depth]
		switch is.t.c {
		case 2:
			is.children2(depth, cur[0], cur[1])
			return
		case 3:
			is.children3(depth, cur[0], cur[1], cur[2])
			return
		case 4:
			is.children4(depth, cur[0], cur[1], cur[2], cur[3])
			return
		case 5:
			is.children5(depth, cur[0], cur[1], cur[2], cur[3], cur[4])
			return
		case 6:
			is.children6(depth, cur[0], cur[1], cur[2], cur[3], cur[4], cur[5])
			return
		}
	}
	is.children(depth)
}

func (is *incSearch) children2(depth int, s0, s1 float64) {
	terms := is.t.terms[depth]
	best := is.bestPhi
	if depth == is.n-1 {
		ki := 0
		for k := 0; k+1 < len(terms); k += 2 {
			phi := s0 + terms[k]
			if p := s1 + terms[k+1]; p < phi {
				phi = p
			}
			if phi > best {
				best = phi
				is.bestPhi = phi
				is.idx[depth] = ki
				is.bestIdx = append(is.bestIdx[:0], is.idx...)
				if is.shared != nil {
					is.shared.Update(phi)
				}
			}
			ki++
		}
		return
	}
	o := is.t.osuf[depth+1]
	o0, o1 := o[0], o[1]
	ki := 0
	for k := 0; k+1 < len(terms); k += 2 {
		t0 := s0 + terms[k]
		t1 := s1 + terms[k+1]
		bound := t0 + o0
		if b := t1 + o1; b < bound {
			bound = b
		}
		if bound <= best || (is.shared != nil && bound < is.shared.Load()) {
			ki++
			continue
		}
		is.idx[depth] = ki
		is.children2(depth+1, t0, t1)
		best = is.bestPhi
		ki++
	}
}

func (is *incSearch) children3(depth int, s0, s1, s2 float64) {
	terms := is.t.terms[depth]
	best := is.bestPhi
	if depth == is.n-1 {
		ki := 0
		for k := 0; k+2 < len(terms); k += 3 {
			phi := s0 + terms[k]
			if p := s1 + terms[k+1]; p < phi {
				phi = p
			}
			if p := s2 + terms[k+2]; p < phi {
				phi = p
			}
			if phi > best {
				best = phi
				is.bestPhi = phi
				is.idx[depth] = ki
				is.bestIdx = append(is.bestIdx[:0], is.idx...)
				if is.shared != nil {
					is.shared.Update(phi)
				}
			}
			ki++
		}
		return
	}
	o := is.t.osuf[depth+1]
	o0, o1, o2 := o[0], o[1], o[2]
	ki := 0
	for k := 0; k+2 < len(terms); k += 3 {
		t0 := s0 + terms[k]
		t1 := s1 + terms[k+1]
		t2 := s2 + terms[k+2]
		bound := t0 + o0
		if b := t1 + o1; b < bound {
			bound = b
		}
		if b := t2 + o2; b < bound {
			bound = b
		}
		if bound <= best || (is.shared != nil && bound < is.shared.Load()) {
			ki++
			continue
		}
		is.idx[depth] = ki
		is.children3(depth+1, t0, t1, t2)
		best = is.bestPhi
		ki++
	}
}

func (is *incSearch) children4(depth int, s0, s1, s2, s3 float64) {
	terms := is.t.terms[depth]
	best := is.bestPhi
	if depth == is.n-1 {
		ki := 0
		for k := 0; k+3 < len(terms); k += 4 {
			phi := s0 + terms[k]
			if p := s1 + terms[k+1]; p < phi {
				phi = p
			}
			if p := s2 + terms[k+2]; p < phi {
				phi = p
			}
			if p := s3 + terms[k+3]; p < phi {
				phi = p
			}
			if phi > best {
				best = phi
				is.bestPhi = phi
				is.idx[depth] = ki
				is.bestIdx = append(is.bestIdx[:0], is.idx...)
				if is.shared != nil {
					is.shared.Update(phi)
				}
			}
			ki++
		}
		return
	}
	o := is.t.osuf[depth+1]
	o0, o1, o2, o3 := o[0], o[1], o[2], o[3]
	ki := 0
	for k := 0; k+3 < len(terms); k += 4 {
		t0 := s0 + terms[k]
		t1 := s1 + terms[k+1]
		t2 := s2 + terms[k+2]
		t3 := s3 + terms[k+3]
		bound := t0 + o0
		if b := t1 + o1; b < bound {
			bound = b
		}
		if b := t2 + o2; b < bound {
			bound = b
		}
		if b := t3 + o3; b < bound {
			bound = b
		}
		if bound <= best || (is.shared != nil && bound < is.shared.Load()) {
			ki++
			continue
		}
		is.idx[depth] = ki
		is.children4(depth+1, t0, t1, t2, t3)
		best = is.bestPhi
		ki++
	}
}

func (is *incSearch) children5(depth int, s0, s1, s2, s3, s4 float64) {
	terms := is.t.terms[depth]
	best := is.bestPhi
	if depth == is.n-1 {
		ki := 0
		for k := 0; k+4 < len(terms); k += 5 {
			phi := s0 + terms[k]
			if p := s1 + terms[k+1]; p < phi {
				phi = p
			}
			if p := s2 + terms[k+2]; p < phi {
				phi = p
			}
			if p := s3 + terms[k+3]; p < phi {
				phi = p
			}
			if p := s4 + terms[k+4]; p < phi {
				phi = p
			}
			if phi > best {
				best = phi
				is.bestPhi = phi
				is.idx[depth] = ki
				is.bestIdx = append(is.bestIdx[:0], is.idx...)
				if is.shared != nil {
					is.shared.Update(phi)
				}
			}
			ki++
		}
		return
	}
	o := is.t.osuf[depth+1]
	o0, o1, o2, o3, o4 := o[0], o[1], o[2], o[3], o[4]
	ki := 0
	for k := 0; k+4 < len(terms); k += 5 {
		t0 := s0 + terms[k]
		t1 := s1 + terms[k+1]
		t2 := s2 + terms[k+2]
		t3 := s3 + terms[k+3]
		t4 := s4 + terms[k+4]
		bound := t0 + o0
		if b := t1 + o1; b < bound {
			bound = b
		}
		if b := t2 + o2; b < bound {
			bound = b
		}
		if b := t3 + o3; b < bound {
			bound = b
		}
		if b := t4 + o4; b < bound {
			bound = b
		}
		if bound <= best || (is.shared != nil && bound < is.shared.Load()) {
			ki++
			continue
		}
		is.idx[depth] = ki
		is.children5(depth+1, t0, t1, t2, t3, t4)
		best = is.bestPhi
		ki++
	}
}

func (is *incSearch) children6(depth int, s0, s1, s2, s3, s4, s5 float64) {
	terms := is.t.terms[depth]
	best := is.bestPhi
	if depth == is.n-1 {
		ki := 0
		for k := 0; k+5 < len(terms); k += 6 {
			phi := s0 + terms[k]
			if p := s1 + terms[k+1]; p < phi {
				phi = p
			}
			if p := s2 + terms[k+2]; p < phi {
				phi = p
			}
			if p := s3 + terms[k+3]; p < phi {
				phi = p
			}
			if p := s4 + terms[k+4]; p < phi {
				phi = p
			}
			if p := s5 + terms[k+5]; p < phi {
				phi = p
			}
			if phi > best {
				best = phi
				is.bestPhi = phi
				is.idx[depth] = ki
				is.bestIdx = append(is.bestIdx[:0], is.idx...)
				if is.shared != nil {
					is.shared.Update(phi)
				}
			}
			ki++
		}
		return
	}
	o := is.t.osuf[depth+1]
	o0, o1, o2, o3, o4, o5 := o[0], o[1], o[2], o[3], o[4], o[5]
	ki := 0
	for k := 0; k+5 < len(terms); k += 6 {
		t0 := s0 + terms[k]
		t1 := s1 + terms[k+1]
		t2 := s2 + terms[k+2]
		t3 := s3 + terms[k+3]
		t4 := s4 + terms[k+4]
		t5 := s5 + terms[k+5]
		bound := t0 + o0
		if b := t1 + o1; b < bound {
			bound = b
		}
		if b := t2 + o2; b < bound {
			bound = b
		}
		if b := t3 + o3; b < bound {
			bound = b
		}
		if b := t4 + o4; b < bound {
			bound = b
		}
		if b := t5 + o5; b < bound {
			bound = b
		}
		if bound <= best || (is.shared != nil && bound < is.shared.Load()) {
			ki++
			continue
		}
		is.idx[depth] = ki
		is.children6(depth+1, t0, t1, t2, t3, t4, t5)
		best = is.bestPhi
		ki++
	}
}

// children is the fused hot loop: for each level of organization depth it
// derives the child's partial sums and optimistic bound in one sequential
// pass over the cut-contiguous tables, pruning without recursing. At the
// last organization the children are leaves and the same pass folds φ =
// min-over-cuts directly, exiting early once φ cannot beat the incumbent
// (the running min only decreases, so no winning leaf is ever skipped).
func (is *incSearch) children(depth int) {
	c, fc := is.t.c, is.t.fc
	width := is.t.width[depth]
	cur := is.opt[depth]
	next := is.opt[depth+1]
	terms := is.t.terms[depth]
	leaf := depth == is.n-1
	var osuf []float64
	if !leaf {
		osuf = is.t.osuf[depth+1]
	}
	// best shadows is.bestPhi so the hot loop compares against a register;
	// slice-element stores would otherwise force a reload of the field on
	// every iteration. It is synced at leaf updates and after recursion.
	best := is.bestPhi
	for k := 0; k < width; k++ {
		if fc > 0 {
			fcur, fnext := is.feas[depth], is.feas[depth+1]
			fterms := is.t.fterms[depth]
			fsuf := is.t.fsuf[depth+1]
			infeasible := false
			for w := 0; w < fc; w++ {
				s := fcur[w] + fterms[k*fc+w]
				fnext[w] = s
				if s+fsuf[w] > 1e-12 {
					infeasible = true
					break
				}
			}
			if infeasible {
				continue
			}
		}
		row := terms[k*c : k*c+c]
		if leaf {
			phi := math.Inf(1)
			for v := 0; v < c; v++ {
				if s := cur[v] + row[v]; s < phi {
					phi = s
					if phi <= best {
						break
					}
				}
			}
			if phi > best {
				best = phi
				is.bestPhi = phi
				is.idx[depth] = k
				is.bestIdx = append(is.bestIdx[:0], is.idx...)
				if is.shared != nil {
					is.shared.Update(phi)
				}
			}
			continue
		}
		bound := math.Inf(1)
		pruned := false
		for v := 0; v < c; v++ {
			s := cur[v] + row[v]
			next[v] = s
			if b := s + osuf[v]; b < bound {
				bound = b
				if bound <= best {
					pruned = true
					break
				}
			}
		}
		if pruned {
			continue
		}
		if c > 0 && is.shared != nil && bound < is.shared.Load() {
			continue
		}
		is.idx[depth] = k
		is.children(depth + 1)
		best = is.bestPhi
	}
}

// dfsExhaustive visits every grid point (no bound pruning, no suffix
// tables), evaluating feasibility and φ from the per-depth partial sums at
// the leaves. The leaf fold mirrors gridPhi's min-over-cuts exactly; the
// incumbent comparisons exit a leaf early only when its final φ provably
// cannot win — local incumbent with ≤ (the running min only decreases) and
// the shared cross-shard bound with strict <, preserving the serial
// first-maximizer tie-break.
func (ps *traversalSearch) dfsExhaustive(depth int) {
	if depth == ps.n {
		for _, cur := range ps.feas[depth] {
			if cur > 1e-12 {
				return
			}
		}
		phi := math.Inf(1)
		for _, cur := range ps.opt[depth] {
			if cur < phi {
				phi = cur
				if phi <= ps.bestPhi {
					return
				}
				if ps.shared != nil && phi < ps.shared.Load() {
					return
				}
			}
		}
		if phi > ps.bestPhi {
			ps.bestPhi = phi
			ps.bestIdx = append(ps.bestIdx[:0], ps.idx...)
			if ps.shared != nil {
				ps.shared.Update(phi)
			}
		}
		return
	}
	for k := range ps.t.levels[depth] {
		ps.assign(depth, k)
		ps.dfsExhaustive(depth + 1)
	}
}

// masterPruned runs exact depth-first search with bound pruning: incSearch
// over the flat incTables layout (see incSearch), starting from the
// incumbent seed (masterWarmSeed) — the previous master's argmax re-scored
// under the current tables when still feasible (exact — the seed sits
// strictly below an attained φ, see masterWarmSeed), else a hair below the
// lower bound (masterSeed) — so subtrees that cannot beat the incumbent are
// cut immediately. With more than one worker the tree is sharded at the
// root over the first organization's CPU levels: every shard searches its
// subtree with a private incumbent plus a shared atomic bound (published
// maxima from all shards) so pruning stays effective across workers, and
// shard results reduce in root order — the returned grid point is
// byte-identical to the serial search for every worker count.
func (s *solver) masterPruned() ([]int, []float64, float64, bool) {
	t := s.tables
	n := s.cfg.N()
	it := newIncTables(t, newBoundSuffixes(t, n), n)
	seed := s.masterWarmSeed(t)
	roots := len(t.levels[0])
	if s.workers <= 1 || n < 2 || roots < 2 {
		is := newIncSearch(it, n, nil)
		is.bestPhi = seed
		is.run(0)
		if is.bestIdx == nil {
			return nil, nil, 0, false
		}
		s.prevIdx = is.bestIdx
		return is.bestIdx, s.gridF(t, is.bestIdx), is.bestPhi, true
	}
	var shared parallel.MaxFloat64
	shared.Update(seed)
	results := parallel.MapLabeled("gbd.pruned", s.workers, roots, func(root int) branchBest {
		is := newIncSearch(it, n, &shared)
		is.bestPhi = seed
		is.enterShard(root)
		return branchBest{phi: is.bestPhi, idx: is.bestIdx, ok: is.bestIdx != nil}
	})
	bestIdx, bestPhi, ok := reduceBranches(results)
	if !ok {
		return nil, nil, 0, false
	}
	s.prevIdx = bestIdx
	return bestIdx, s.gridF(t, bestIdx), bestPhi, true
}
