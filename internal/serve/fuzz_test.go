package serve

import (
	"encoding/json"
	"testing"

	"tradefl/internal/game"
)

// FuzzParseJobSpec fuzzes the gateway's job-spec decoder, the first code
// an untrusted request body reaches. Whatever the bytes, the parser must
// not panic, and every config it accepts must pass game.Config.Validate and
// stay within the limits and the CPU-level cap.
func FuzzParseJobSpec(f *testing.F) {
	for _, body := range []string{
		`{"generate":{"count":1,"n":-1}}`,
		`{"generate":{"count":1,"n":64,"cpuSteps":100000}}`,
		`{"generate":{"count":1}}`,
		`{"generate":{"count":2,"n":4,"seed":7}}`,
		`{"generate":{"count":4,"n":4,"seed":1}}`,
		`{"generate":{"count":1,"n":6,"seed":1}}`,
		`{"generate":{"count":3,"n":4,"seed":1},"plan":"dbr"}`,
		`{"generate":{"count":1},"plan":"warp"}`,
		`{"games":[{"orgs":[]}]}`,
	} {
		f.Add([]byte(body))
	}
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: 3, N: 2})
	if err != nil {
		f.Fatal(err)
	}
	explicit, err := json.Marshal(JobSpec{
		Games: []GameSpec{{Config: *cfg, Accuracy: AccuracySpec{Model: "power-law", A: 0.5, B: 0.5}}},
		Plan:  "pruned",
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(explicit)

	lim := Limits{MaxOrgs: 8, MaxInstances: 16}
	f.Fuzz(func(t *testing.T, raw []byte) {
		cfgs, _, err := ParseJobSpec(raw, lim)
		if err != nil {
			return
		}
		if len(cfgs) == 0 || len(cfgs) > lim.MaxInstances {
			t.Fatalf("accepted %d instances, want 1..%d", len(cfgs), lim.MaxInstances)
		}
		for i, cfg := range cfgs {
			if err := cfg.Validate(); err != nil {
				t.Fatalf("instance %d fails Validate: %v", i, err)
			}
			if cfg.N() > lim.MaxOrgs {
				t.Fatalf("instance %d has %d organizations, over the limit %d", i, cfg.N(), lim.MaxOrgs)
			}
			for j, o := range cfg.Orgs {
				if len(o.CPULevels) > maxCPULevels {
					t.Fatalf("instance %d organization %d has %d CPU levels, over the cap %d", i, j, len(o.CPULevels), maxCPULevels)
				}
			}
		}
	})
}
