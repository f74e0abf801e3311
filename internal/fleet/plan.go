// Package fleet batches thousands of coopetition-game solves through a
// shared worker pool, choosing the solver for each instance with a
// calibrated cost model and retaining warm solver state across batches and
// campaign epochs — the many-instances axis of the ROADMAP (mechanism
// parameter sweeps, per-epoch re-solves, mechanism-as-a-service gateways).
//
// Determinism contract: per-instance results are byte-identical to solving
// the same instance alone with the chosen plan. The planner's decision is a
// pure function of the instance's statistics and the (fixed) cost profile —
// never of load, timing, or cache state — so a batch and a one-at-a-time
// sequence pick identical plans; warm caches only short-circuit a solve
// when they hold the exact result that solve would recompute.
package fleet

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"tradefl/internal/game"
)

// Plan names a solving strategy for one instance.
type Plan int

// Plans. PlanAuto is resolved per instance by the cost model; the others
// force a fixed strategy.
const (
	// PlanAuto lets the planner pick the cheapest predicted plan.
	PlanAuto Plan = iota
	// PlanDBR solves with distributed best response (Algorithm 2).
	PlanDBR
	// PlanPruned solves with CGBD and the pruned depth-first master.
	PlanPruned
	// PlanTraversal solves with CGBD and the exhaustive traversal master.
	PlanTraversal
)

// String returns the CLI spelling of the plan.
func (p Plan) String() string {
	switch p {
	case PlanAuto:
		return "auto"
	case PlanDBR:
		return "dbr"
	case PlanPruned:
		return "pruned"
	case PlanTraversal:
		return "traversal"
	}
	return fmt.Sprintf("plan(%d)", int(p))
}

// ParsePlan parses a -plan flag value.
func ParsePlan(s string) (Plan, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "auto":
		return PlanAuto, nil
	case "dbr":
		return PlanDBR, nil
	case "pruned":
		return PlanPruned, nil
	case "traversal":
		return PlanTraversal, nil
	}
	return 0, fmt.Errorf("fleet: unknown plan %q (want auto, dbr, pruned or traversal)", s)
}

// Stats are the per-instance features the planner decides from. They are
// derived from the config alone (plus the solve tolerance), so identical
// instances always produce identical decisions.
type Stats struct {
	// N is the organization count.
	N int
	// MaxLevels is the widest per-organization CPU grid.
	MaxLevels int
	// MeanLevels is the mean CPU-grid width.
	MeanLevels float64
	// Grid is the full f-grid cardinality Π m_i (float; +Inf for grids
	// beyond float range, which only strengthens the traversal exclusion).
	Grid float64
	// Epsilon is the CGBD convergence tolerance the solve would use.
	Epsilon float64
}

// StatsOf derives the planner features of one instance. epsilon is the
// CGBD tolerance the engine would solve with (0 = the gbd default).
func StatsOf(cfg *game.Config, epsilon float64) Stats {
	if epsilon == 0 {
		epsilon = 1e-6
	}
	st := Stats{N: cfg.N(), Grid: 1, Epsilon: epsilon}
	total := 0
	for i := range cfg.Orgs {
		m := len(cfg.Orgs[i].CPULevels)
		total += m
		if m > st.MaxLevels {
			st.MaxLevels = m
		}
		st.Grid *= float64(m)
	}
	if st.N > 0 {
		st.MeanLevels = float64(total) / float64(st.N)
	}
	return st
}

// CostProfile holds the calibrated coefficients of the per-plan cost
// model, in nanoseconds. The functional forms are fixed (fitted offline on
// the measured solver scalings, DESIGN.md §12); calibration refits only
// the scale constants to the host:
//
//	cost(dbr)       = DBRBase       + DBRUnit·N^1.5·m̄
//	cost(pruned)    = PrunedBase    + PrunedUnit·G^0.4·ε-factor
//	cost(traversal) = TraversalBase + TraversalUnit·G·ε-factor
//
// where m̄ is the mean grid width, G = Π m_i the full grid cardinality, and
// the ε-factor mildly scales CGBD cost with the tolerance (tighter ε, more
// iterations).
type CostProfile struct {
	// Version guards against stale persisted profiles.
	Version int `json:"version"`
	// CalibratedNs records the calibration wall budget (0 for built-ins).
	CalibratedNs float64 `json:"calibratedNs,omitempty"`

	DBRBase       float64 `json:"dbrBaseNs"`
	DBRUnit       float64 `json:"dbrUnitNs"`
	PrunedBase    float64 `json:"prunedBaseNs"`
	PrunedUnit    float64 `json:"prunedUnitNs"`
	TraversalBase float64 `json:"traversalBaseNs"`
	TraversalUnit float64 `json:"traversalUnitNs"`
}

// profileVersion is bumped whenever the cost-model forms change, so a
// persisted profile calibrated against old forms is rejected on load.
const profileVersion = 1

// DefaultProfile returns the built-in cost profile: coefficients fitted on
// the reference host's measured solver timings. It is the safe fallback
// when no calibration profile exists — the planner works out of the box,
// only the crossover points are approximate.
func DefaultProfile() *CostProfile {
	return &CostProfile{
		Version:       profileVersion,
		DBRBase:       10_000,
		DBRUnit:       1_500,
		PrunedBase:    10_000,
		PrunedUnit:    1_300,
		TraversalBase: 8_000,
		TraversalUnit: 120,
	}
}

// maxTraversalGrid caps the grid size the planner will ever predict a
// finite traversal cost for; beyond it the exhaustive master is excluded
// outright regardless of calibration.
const maxTraversalGrid = 1e8

// epsFactor scales CGBD cost with the convergence tolerance: tighter ε
// takes more iterations. Mild and clamped so a miscalibrated ε cannot
// dominate the structural terms.
func epsFactor(epsilon float64) float64 {
	if epsilon <= 0 {
		return 1
	}
	f := 1 + 0.1*math.Log10(1e-6/epsilon)
	return math.Min(2, math.Max(0.5, f))
}

// Predict returns the modeled solve cost of plan p on an instance with
// statistics st, in nanoseconds. PlanAuto predicts the minimum over the
// concrete plans.
func (c *CostProfile) Predict(p Plan, st Stats) float64 {
	switch p {
	case PlanDBR:
		return c.DBRBase + c.DBRUnit*math.Pow(float64(st.N), 1.5)*st.MeanLevels
	case PlanPruned:
		return c.PrunedBase + c.PrunedUnit*math.Pow(st.Grid, 0.4)*epsFactor(st.Epsilon)
	case PlanTraversal:
		if st.Grid > maxTraversalGrid {
			return math.Inf(1)
		}
		return c.TraversalBase + c.TraversalUnit*st.Grid*epsFactor(st.Epsilon)
	case PlanAuto:
		return math.Min(c.Predict(PlanPruned, st),
			math.Min(c.Predict(PlanTraversal, st), c.Predict(PlanDBR, st)))
	}
	return math.Inf(1)
}

// valid rejects profiles that cannot order plans sensibly.
func (c *CostProfile) valid() error {
	if c.Version != profileVersion {
		return fmt.Errorf("fleet: cost profile version %d, want %d (recalibrate)", c.Version, profileVersion)
	}
	for name, v := range map[string]float64{
		"dbrUnitNs":       c.DBRUnit,
		"prunedUnitNs":    c.PrunedUnit,
		"traversalUnitNs": c.TraversalUnit,
	} {
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("fleet: cost profile %s = %v, want a positive finite coefficient", name, v)
		}
	}
	for name, v := range map[string]float64{
		"dbrBaseNs":       c.DBRBase,
		"prunedBaseNs":    c.PrunedBase,
		"traversalBaseNs": c.TraversalBase,
	} {
		if v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			return fmt.Errorf("fleet: cost profile %s = %v, want a non-negative finite base", name, v)
		}
	}
	return nil
}

// Save persists the profile as JSON.
func (c *CostProfile) Save(path string) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadProfile reads a persisted calibration profile, rejecting stale
// versions and degenerate coefficients.
func LoadProfile(path string) (*CostProfile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c := &CostProfile{}
	if err := json.Unmarshal(data, c); err != nil {
		return nil, fmt.Errorf("fleet: %s: %w", path, err)
	}
	if err := c.valid(); err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return c, nil
}

// Decision is the planner's verdict for one instance. Plan selects the
// solver; Workers tunes a byte-identical knob (within-instance sharding) —
// output bytes never depend on it, which is what makes load-aware choices
// safe.
type Decision struct {
	Plan Plan
	// Workers is the within-instance worker count for the master-problem
	// shards / best-response candidate scans (1 = exact serial path).
	Workers int
	// PredictedNs is the modeled cost of the chosen plan.
	PredictedNs float64
}

// Planner picks a per-instance plan from a cost profile.
type Planner struct {
	// Forced bypasses the cost model when not PlanAuto.
	Forced Plan
	// Prof is the calibrated cost profile (nil = DefaultProfile, the
	// no-calibration fallback).
	Prof *CostProfile
}

func (pl *Planner) profile() *CostProfile {
	if pl == nil || pl.Prof == nil {
		return DefaultProfile()
	}
	return pl.Prof
}

// planOrder fixes the deterministic tie-break: earlier wins on equal
// predicted cost.
var planOrder = [...]Plan{PlanPruned, PlanTraversal, PlanDBR}

// Decide resolves the plan and worker count for one instance. spare is
// the number of idle pool workers the instance may additionally occupy for
// within-instance sharding (0 on a saturated pool, which is the norm
// mid-batch); it influences Workers only, never the plan, so decisions
// stay deterministic per instance.
func (pl *Planner) Decide(st Stats, spare int) Decision {
	prof := pl.profile()
	dec := Decision{Plan: pl.Forced, Workers: 1}
	if dec.Plan == PlanAuto {
		best := math.Inf(1)
		for _, p := range planOrder {
			if c := prof.Predict(p, st); c < best {
				best, dec.Plan = c, p
			}
		}
	}
	dec.PredictedNs = prof.Predict(dec.Plan, st)
	// Within-instance sharding pays only when the instance is large and the
	// pool has idle workers (tail of a batch, or a huge lone instance).
	// Tiny instances always take the exact serial path: goroutine fan-out
	// costs more than the whole solve at N ≤ 4.
	if st.N > 4 && spare > 0 && st.Grid >= 16384 {
		dec.Workers = spare + 1
		if dec.Workers > st.MaxLevels {
			dec.Workers = st.MaxLevels
		}
	}
	return dec
}
