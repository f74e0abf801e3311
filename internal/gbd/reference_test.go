package gbd

import "math"

// This file holds the reference CGBD master the replay test
// (TestSolveIncrementalEquivalence) checks the production masters against:
// every cut tabulated from scratch with the direct expressions, and the
// paper's traversal as a mixed-radix scan of the full f grid.

// optCutTermDirect evaluates the f_i-dependent term of optimality cut c
// for organization i at frequency fi without the per-level caches — the
// expression optCutTerm caches two subexpressions of.
func optCutTermDirect(s *solver, c optimalityCut, i int, fi float64) float64 {
	o := s.cfg.Orgs[i]
	coef := (c.pSlope-s.linearCostPerOmega(i, fi))*s.scale[i] -
		c.u[i]*o.Comm.CyclesPerBit*o.DataBits/fi
	inner := coef * s.cfg.DMin
	if v := coef * 1; v > inner {
		inner = v
	}
	base := o.Comm.DownloadTime + o.Comm.UploadTime - s.cfg.Deadline
	return inner + s.fOnlyTerm(i, fi) - c.u[i]*base
}

// buildTables tabulates every given cut from scratch, keeping all of them
// (no dominated-cut eviction).
func buildTables(s *solver, opt []optimalityCut, feas []feasibilityCut) *cutTables {
	n := s.cfg.N()
	t := &cutTables{levels: make([][]float64, n)}
	for i := 0; i < n; i++ {
		t.levels[i] = s.cfg.Orgs[i].CPULevels
	}
	for _, c := range opt {
		terms := make([][]float64, n)
		maxs := make([]float64, n)
		for i := 0; i < n; i++ {
			row := make([]float64, len(t.levels[i]))
			best := math.Inf(-1)
			for k, fi := range t.levels[i] {
				row[k] = optCutTermDirect(s, c, i, fi)
				if row[k] > best {
					best = row[k]
				}
			}
			terms[i] = row
			maxs[i] = best
		}
		t.opt = append(t.opt, terms)
		t.optMax = append(t.optMax, maxs)
		t.optConst = append(t.optConst, s.optCutConst(c))
	}
	for _, c := range feas {
		terms := make([][]float64, n)
		mins := make([]float64, n)
		for i := 0; i < n; i++ {
			row := make([]float64, len(t.levels[i]))
			best := math.Inf(1)
			for k, fi := range t.levels[i] {
				row[k] = s.feasCutTerm(c, i, fi)
				if row[k] < best {
					best = row[k]
				}
			}
			terms[i] = row
			mins[i] = best
		}
		t.feas = append(t.feas, terms)
		t.feasMin = append(t.feasMin, mins)
	}
	return t
}

// scanGrid is the reference master: it enumerates the full f grid with a
// mixed-radix counter (last organization fastest) and returns the first
// feasible maximizer of φ = min over optimality cuts (+Inf with none), each
// cut sum folded left to right from its constant.
func scanGrid(t *cutTables) (idx []int, phi float64, ok bool) {
	n := len(t.levels)
	cur := make([]int, n)
	phi = math.Inf(-1)
	for {
		feasible := true
		for w := range t.feas {
			var sum float64
			for i, k := range cur {
				sum += t.feas[w][i][k]
			}
			if sum > 1e-12 {
				feasible = false
				break
			}
		}
		if feasible {
			p := math.Inf(1)
			for v := range t.opt {
				sum := t.optConst[v]
				for i, k := range cur {
					sum += t.opt[v][i][k]
				}
				if sum < p {
					p = sum
				}
			}
			if p > phi {
				phi = p
				idx = append(idx[:0], cur...)
			}
		}
		i := n - 1
		for ; i >= 0; i-- {
			cur[i]++
			if cur[i] < len(t.levels[i]) {
				break
			}
			cur[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return idx, phi, idx != nil
}
