package game

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"tradefl/internal/accuracy"
	"tradefl/internal/randx"
)

func testConfig(t *testing.T, seed int64) *Config {
	t.Helper()
	cfg, err := DefaultConfig(GenOptions{Seed: seed})
	if err != nil {
		t.Fatalf("DefaultConfig: %v", err)
	}
	return cfg
}

// randomProfile draws a feasible strategy profile.
func randomProfile(cfg *Config, src *randx.Source) Profile {
	p := make(Profile, cfg.N())
	for i, o := range cfg.Orgs {
		f := o.CPULevels[src.Intn(len(o.CPULevels))]
		lo, hi, ok := cfg.FeasibleD(i, f)
		if !ok {
			f = o.CPULevels[len(o.CPULevels)-1]
			lo, hi, _ = cfg.FeasibleD(i, f)
		}
		p[i] = Strategy{D: src.Uniform(lo, hi), F: f}
	}
	return p
}

func TestDefaultConfigMatchesTableII(t *testing.T) {
	cfg := testConfig(t, 1)
	if cfg.N() != 10 {
		t.Errorf("N = %d, want 10", cfg.N())
	}
	if cfg.DMin != 0.01 {
		t.Errorf("DMin = %v, want 0.01", cfg.DMin)
	}
	for i, o := range cfg.Orgs {
		if o.DataBits < 15e9 || o.DataBits > 25e9 {
			t.Errorf("org %d: s_i = %v outside [15,25]e9", i, o.DataBits)
		}
		if o.Samples < 1000 || o.Samples > 2000 {
			t.Errorf("org %d: |S_i| = %v outside [1000,2000]", i, o.Samples)
		}
		if o.Profitability < 500 || o.Profitability > 2500 {
			t.Errorf("org %d: p_i = %v outside [500,2500]", i, o.Profitability)
		}
		if o.Comm.Kappa != 1e-27 {
			t.Errorf("org %d: κ = %v, want 1e-27", i, o.Comm.Kappa)
		}
		if lv := o.CPULevels; lv[0] != 3e9 || lv[len(lv)-1] != 5e9 {
			t.Errorf("org %d: CPU levels %v, want 3-5 GHz span", i, lv)
		}
	}
}

func TestValidateCatchesBrokenConfigs(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"no orgs", func(c *Config) { c.Orgs = nil }, "no organizations"},
		{"nil accuracy", func(c *Config) { c.Accuracy = nil }, "accuracy"},
		{"bad dmin", func(c *Config) { c.DMin = 0 }, "DMin"},
		{"bad dmin high", func(c *Config) { c.DMin = 1.5 }, "DMin"},
		{"bad deadline", func(c *Config) { c.Deadline = 0 }, "deadline"},
		{"negative gamma", func(c *Config) { c.Gamma = -1 }, "gamma"},
		{"rho rows", func(c *Config) { c.Rho = c.Rho[:3] }, "rho"},
		{"rho ragged", func(c *Config) { c.Rho[len(c.Rho)-1] = nil }, "cols"},
		{"rho diagonal", func(c *Config) { c.Rho[2][2] = 0.5 }, "diagonal"},
		{"rho asymmetric", func(c *Config) { c.Rho[0][1] = c.Rho[1][0] + 0.1 }, "symmetric"},
		{"rho out of range", func(c *Config) { c.Rho[0][1] = 2; c.Rho[1][0] = 2 }, "outside"},
		{"bad data size", func(c *Config) { c.Orgs[0].DataBits = 0 }, "data size"},
		{"bad profitability", func(c *Config) { c.Orgs[0].Profitability = -1 }, "profitability"},
		{"no cpu levels", func(c *Config) { c.Orgs[0].CPULevels = nil }, "CPU"},
		{"unsorted cpu", func(c *Config) { c.Orgs[0].CPULevels = []float64{4e9, 3e9} }, "ascending"},
		{"bad comm", func(c *Config) { c.Orgs[0].Comm.Kappa = 0 }, "kappa"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig(t, 1)
			tt.mutate(cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("Validate accepted broken config")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestValidateRejectsNonPositiveWeight(t *testing.T) {
	cfg := testConfig(t, 1)
	// Crank competition so z_i ≤ 0 for the least profitable organization.
	for i := range cfg.Rho {
		for j := range cfg.Rho[i] {
			if i != j {
				cfg.Rho[i][j] = 1
			}
		}
	}
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "weight") {
		t.Errorf("Validate = %v, want weight error", err)
	}
}

func TestNormalizeRhoRestoresWeights(t *testing.T) {
	cfg := testConfig(t, 1)
	for i := range cfg.Rho {
		for j := range cfg.Rho[i] {
			if i != j {
				cfg.Rho[i][j] = 0.9
			}
		}
	}
	scale := cfg.NormalizeRho(0.05)
	if scale >= 1 {
		t.Fatalf("scale = %v, want < 1", scale)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate after NormalizeRho: %v", err)
	}
	for i := range cfg.Orgs {
		if z := cfg.Weight(i); z < 0.05*cfg.Orgs[i].Profitability-1e-9 {
			t.Errorf("z_%d = %v below margin", i, z)
		}
	}
	// No-op when already fine.
	if s2 := cfg.NormalizeRho(0.05); s2 != 1 {
		t.Errorf("second NormalizeRho scale = %v, want 1", s2)
	}
}

func TestWeightFormula(t *testing.T) {
	cfg := testConfig(t, 2)
	for i := range cfg.Orgs {
		want := cfg.Orgs[i].Profitability
		for j := range cfg.Orgs {
			want -= cfg.Rho[i][j] * cfg.Orgs[j].Profitability
		}
		if got := cfg.Weight(i); math.Abs(got-want) > 1e-9 {
			t.Errorf("Weight(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestOmegaAndExclusion(t *testing.T) {
	cfg := testConfig(t, 3)
	src := randx.New(99)
	p := randomProfile(cfg, src)
	omega := cfg.Omega(p)
	for i := range p {
		excl := cfg.OmegaExcluding(p, i)
		if math.Abs(omega-excl-p[i].D*cfg.Orgs[i].Samples) > 1e-6 {
			t.Errorf("OmegaExcluding(%d) inconsistent", i)
		}
	}
}

func TestTransferAntisymmetry(t *testing.T) {
	cfg := testConfig(t, 4)
	src := randx.New(5)
	p := randomProfile(cfg, src)
	for i := 0; i < cfg.N(); i++ {
		for j := 0; j < cfg.N(); j++ {
			if got := cfg.Transfer(i, j, p) + cfg.Transfer(j, i, p); math.Abs(got) > 1e-9 {
				t.Errorf("r_%d%d + r_%d%d = %v, want 0", i, j, j, i, got)
			}
		}
	}
}

func TestBudgetBalance(t *testing.T) {
	cfg := testConfig(t, 4)
	src := randx.New(6)
	for trial := 0; trial < 20; trial++ {
		p := randomProfile(cfg, src)
		if bb := cfg.CheckBudgetBalance(p); math.Abs(bb) > 1e-6 {
			t.Fatalf("ΣR_i = %v, want 0 (Definition 5)", bb)
		}
	}
}

func TestPayoffDecomposition(t *testing.T) {
	cfg := testConfig(t, 7)
	src := randx.New(8)
	p := randomProfile(cfg, src)
	for i := range p {
		manual := cfg.Revenue(i, p) -
			cfg.EnergyWeight*cfg.Energy(i, p[i]) -
			cfg.Damage(i, p) +
			cfg.Redistribution(i, p)
		if got := cfg.Payoff(i, p); math.Abs(got-manual) > 1e-9 {
			t.Errorf("Payoff(%d) = %v, want decomposition %v", i, got, manual)
		}
	}
}

func TestPayoffsMatchesPayoff(t *testing.T) {
	cfg := testConfig(t, 7)
	src := randx.New(9)
	p := randomProfile(cfg, src)
	batch := cfg.Payoffs(p)
	for i := range p {
		if single := cfg.Payoff(i, p); math.Abs(batch[i]-single) > 1e-6 {
			t.Errorf("Payoffs[%d] = %v, Payoff = %v", i, batch[i], single)
		}
	}
	var sum float64
	for _, v := range batch {
		sum += v
	}
	if sw := cfg.SocialWelfare(p); math.Abs(sw-sum) > 1e-6 {
		t.Errorf("SocialWelfare = %v, want %v", sw, sum)
	}
}

func TestDamageNonnegativeAndZeroWithoutCompetition(t *testing.T) {
	cfg := testConfig(t, 10)
	src := randx.New(11)
	p := randomProfile(cfg, src)
	for i := range p {
		if d := cfg.Damage(i, p); d < -1e-12 {
			t.Errorf("Damage(%d) = %v, want ≥ 0", i, d)
		}
	}
	for i := range cfg.Rho {
		for j := range cfg.Rho[i] {
			cfg.Rho[i][j] = 0
		}
	}
	for i := range p {
		if d := cfg.Damage(i, p); d != 0 {
			t.Errorf("Damage(%d) = %v with ρ=0, want 0", i, d)
		}
	}
}

// TestWeightedPotentialIdentity is the core Theorem 1 check: for any
// unilateral deviation, z_i·ΔU must equal ΔC_i exactly.
func TestWeightedPotentialIdentity(t *testing.T) {
	cfg := testConfig(t, 13)
	src := randx.New(14)
	for trial := 0; trial < 200; trial++ {
		p := randomProfile(cfg, src)
		i := src.Intn(cfg.N())
		q := p.Clone()
		o := cfg.Orgs[i]
		f := o.CPULevels[src.Intn(len(o.CPULevels))]
		lo, hi, ok := cfg.FeasibleD(i, f)
		if !ok {
			continue
		}
		q[i] = Strategy{D: src.Uniform(lo, hi), F: f}
		if err := cfg.PotentialIdentityError(i, p, q); err > 1e-6 {
			t.Fatalf("trial %d: potential identity error %v for org %d", trial, err, i)
		}
	}
}

// TestWeightedPotentialIdentityQuick re-checks the identity on freshly
// generated games (not just the default instance), via testing/quick.
func TestWeightedPotentialIdentityQuick(t *testing.T) {
	check := func(seedRaw int64, devRaw float64) bool {
		seed := seedRaw%100000 + 100001 // keep positive and bounded
		cfg, err := DefaultConfig(GenOptions{Seed: seed, N: 5})
		if err != nil {
			return false
		}
		src := randx.New(seed + 7)
		p := randomProfile(cfg, src)
		i := src.Intn(cfg.N())
		q := p.Clone()
		o := cfg.Orgs[i]
		f := o.CPULevels[src.Intn(len(o.CPULevels))]
		lo, hi, ok := cfg.FeasibleD(i, f)
		if !ok {
			return true
		}
		frac := math.Abs(devRaw)
		frac -= math.Floor(frac)
		q[i] = Strategy{D: lo + (hi-lo)*frac, F: f}
		return cfg.PotentialIdentityError(i, p, q) <= 1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFeasibleDRespectsDeadline(t *testing.T) {
	cfg := testConfig(t, 16)
	for i, o := range cfg.Orgs {
		for _, f := range o.CPULevels {
			lo, hi, ok := cfg.FeasibleD(i, f)
			if !ok {
				continue
			}
			if lo != cfg.DMin {
				t.Errorf("org %d: lo = %v, want DMin", i, lo)
			}
			if hi > 1 {
				t.Errorf("org %d: hi = %v > 1", i, hi)
			}
			if !o.Comm.MeetsDeadline(hi, o.DataBits, f, cfg.Deadline+1e-9) {
				t.Errorf("org %d: hi = %v violates deadline at f=%v", i, hi, f)
			}
		}
	}
}

func TestFeasibleDInfeasibleWhenDeadlineTight(t *testing.T) {
	cfg := testConfig(t, 16)
	cfg.Deadline = 0.1 // below T1 + T3
	if _, _, ok := cfg.FeasibleD(0, cfg.Orgs[0].CPULevels[0]); ok {
		t.Error("FeasibleD reported feasible under impossible deadline")
	}
}

func TestValidStrategyAndProfile(t *testing.T) {
	cfg := testConfig(t, 17)
	p := cfg.MinimalProfile()
	if err := cfg.ValidProfile(p); err != nil {
		t.Fatalf("minimal profile invalid: %v", err)
	}
	bad := p.Clone()
	bad[0].D = 0 // below DMin
	if err := cfg.ValidProfile(bad); err == nil {
		t.Error("profile with d < DMin accepted")
	}
	bad = p.Clone()
	bad[0].F = 3.3e9 // not a grid level
	if err := cfg.ValidProfile(bad); err == nil {
		t.Error("profile with off-grid f accepted")
	}
	bad = p.Clone()
	bad[0].D = 1
	bad[0].F = cfg.Orgs[0].CPULevels[0]
	if cap := cfg.Orgs[0].Comm.MaxDataFraction(cfg.Orgs[0].DataBits, bad[0].F, cfg.Deadline); cap < 1 {
		if err := cfg.ValidProfile(bad); err == nil {
			t.Error("deadline-violating profile accepted")
		}
	}
	if err := cfg.ValidProfile(p[:3]); err == nil {
		t.Error("short profile accepted")
	}
}

func TestCheckNashDetectsDeviation(t *testing.T) {
	cfg := testConfig(t, 18)
	p := cfg.MinimalProfile()
	// The minimal profile is generally not an equilibrium at default γ.
	rep := cfg.CheckNash(p, 30, 1e-6)
	if rep.IsNash {
		t.Fatalf("minimal profile reported as Nash: %v", rep)
	}
	if rep.Deviator < 0 || rep.MaxRegret <= 0 {
		t.Errorf("report inconsistent: %+v", rep)
	}
	if !strings.Contains(rep.String(), "not nash") {
		t.Errorf("String() = %q", rep.String())
	}
}

func TestCheckIndividualRationality(t *testing.T) {
	cfg := testConfig(t, 19)
	p := cfg.MinimalProfile()
	ok, worst, org := cfg.CheckIndividualRationality(p)
	if !ok {
		t.Logf("IR fails at minimal profile: worst=%v org=%d", worst, org)
	}
	if ok && org != -1 {
		t.Errorf("ok but org = %d, want -1", org)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := Profile{{D: 0.5, F: 3e9}}
	q := p.Clone()
	q[0].D = 0.9
	if p[0].D != 0.5 {
		t.Error("Clone shares backing array")
	}
}

func TestMinimalProfileUsesFastestCPU(t *testing.T) {
	cfg := testConfig(t, 20)
	p := cfg.MinimalProfile()
	for i, o := range cfg.Orgs {
		if p[i].D != cfg.DMin {
			t.Errorf("org %d: d = %v, want DMin", i, p[i].D)
		}
		if p[i].F != o.CPULevels[len(o.CPULevels)-1] {
			t.Errorf("org %d: f = %v, want fastest level", i, p[i].F)
		}
	}
}

func TestGenOptionsCustomAccuracy(t *testing.T) {
	pl, err := accuracy.NewPowerLaw(0.1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := DefaultConfig(GenOptions{Seed: 3, Accuracy: pl})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Accuracy.Name() != "power-law" {
		t.Errorf("accuracy model = %s, want power-law", cfg.Accuracy.Name())
	}
}

func TestConfigSmallN(t *testing.T) {
	cfg, err := DefaultConfig(GenOptions{Seed: 1, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.N() != 2 {
		t.Errorf("N = %d, want 2", cfg.N())
	}
	p := cfg.MinimalProfile()
	if err := cfg.ValidProfile(p); err != nil {
		t.Errorf("minimal profile invalid: %v", err)
	}
}

func TestPotentialUsesStrategyIndependentCommEnergy(t *testing.T) {
	// Doubling communication power must shift payoffs but not the
	// potential differences (comm energy is constant in the strategy).
	cfg := testConfig(t, 21)
	src := randx.New(22)
	p := randomProfile(cfg, src)
	q := p.Clone()
	q[0].D = math.Min(1, q[0].D*0.9+0.05)
	du1 := cfg.Potential(p) - cfg.Potential(q)
	for i := range cfg.Orgs {
		cfg.Orgs[i].Comm.DownloadPower *= 2
	}
	du2 := cfg.Potential(p) - cfg.Potential(q)
	if math.Abs(du1-du2) > 1e-9 {
		t.Errorf("potential difference changed with comm power: %v vs %v", du1, du2)
	}
}
