package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"tradefl/internal/chain"
	"tradefl/internal/core"
	"tradefl/internal/fleet"
	"tradefl/internal/game"
	"tradefl/internal/serve"
)

// The solve workload: the gateway's async path over loopback HTTP. Each op
// POSTs a job of solveBatch explicit game specs, follows its SSE stream to
// the terminal event and GETs the results.
const (
	solveBatch     = 32
	solveTemplates = 960  // distinct seeded instances the ops draw from
	solveTenants   = 1024 // tenants the ops rotate over
	solveSamples   = 4    // ops re-solved by the reference check
	// solveSentinel marks org 0's dataBits in an encoded template; each
	// op splices in a perturbed value so that no instance repeats in a run.
	solveSentinel = 123456789.25
)

// solveSizes are the organization counts of the fleet corpus.
var solveSizes = []int{4, 6, 8, 10, 12, 16}

type solveWL struct {
	mutate string
	seed   int64

	// parts[t] is template t's JSON split around the sentinel; bits[t] is
	// the template's org-0 dataBits.
	parts [][2][]byte
	bits  []float64

	srv    *serve.Server
	served chan error
	base   string
	client *http.Client

	mu      sync.Mutex
	samples map[int][]serve.InstanceResult // op → results, for check
}

func (w *solveWL) clients() int { return 2 }
func (w *solveWL) warmup() int  { return 2 }

func (w *solveWL) setup(seed int64, _ string) error {
	w.seed = seed
	w.samples = map[int][]serve.InstanceResult{}
	for t := 0; t < solveTemplates; t++ {
		cfg, err := game.DefaultConfig(game.GenOptions{
			N: solveSizes[t%len(solveSizes)], Seed: seed*1_000_003 + int64(t), CPUSteps: 3,
		})
		if err != nil {
			return err
		}
		w.bits = append(w.bits, cfg.Orgs[0].DataBits)
		cfg.Orgs[0].DataBits = solveSentinel
		raw, err := json.Marshal(serve.GameSpec{Config: *cfg})
		if err != nil {
			return err
		}
		mark, err := json.Marshal(float64(solveSentinel))
		if err != nil {
			return err
		}
		if bytes.Count(raw, mark) != 1 {
			return fmt.Errorf("template %d: sentinel not unique in encoding", t)
		}
		i := bytes.Index(raw, mark)
		w.parts = append(w.parts, [2][]byte{raw[:i], raw[i+len(mark):]})
	}
	srv, err := serve.New("127.0.0.1:0", serve.Options{DumpWriter: io.Discard})
	if err != nil {
		return err
	}
	w.srv = srv
	w.served = make(chan error, 1)
	go func() { w.served <- srv.Serve() }()
	w.base = "http://" + srv.Addr()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	return nil
}

func (w *solveWL) teardown() {
	if w.srv == nil {
		return
	}
	if err := w.srv.Drain(30 * time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: drain:", err)
	}
	<-w.served
	w.client.CloseIdleConnections()
	w.srv = nil
}

// body encodes op k's job: instance j of the op is template
// (32k+j) mod 960 with org 0's dataBits scaled by 1 + (32k+j+1)·1e-9, so
// every instance of a run is distinct while the mix of sizes repeats.
func (w *solveWL) body(k int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"games":[`)
	for j := 0; j < solveBatch; j++ {
		idx := k*solveBatch + j
		t := idx % solveTemplates
		if j > 0 {
			b.WriteByte(',')
		}
		b.Write(w.parts[t][0])
		b.WriteString(strconv.FormatFloat(w.bits[t]*(1+float64(idx+1)*1e-9), 'g', -1, 64))
		b.Write(w.parts[t][1])
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

func (w *solveWL) op(k int, tr *tracer) opResult {
	body := w.body(k)
	start := time.Now()
	st, err := w.runJob(k, body, tr)
	lat := time.Since(start)
	if err != nil {
		return opResult{err: fmt.Errorf("solve op %d: %w", k, err)}
	}
	if tr != nil && st.StartedAt != nil && st.DoneAt != nil {
		tr.observe("serve.queue_wait", ms(st.StartedAt.Sub(st.CreatedAt)))
		tr.observe("serve.run", ms(st.DoneAt.Sub(*st.StartedAt)))
	}
	if w.sampled(k) {
		w.mu.Lock()
		if len(w.samples) < solveSamples {
			w.samples[k] = st.Results
		}
		w.mu.Unlock()
	}
	return opResult{lat: lat, work: len(st.Results)}
}

// runJob is one op: create, stream to the terminal event, fetch, check.
func (w *solveWL) runJob(k int, body []byte, tr *tracer) (*serve.JobStatus, error) {
	end := tr.span("serve.create")
	req, err := http.NewRequest(http.MethodPost, w.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", fmt.Sprintf("tenant-%03d", k%solveTenants))
	var created serve.JobStatus
	err = w.do(req, http.StatusAccepted, &created)
	end()
	if err != nil {
		return nil, fmt.Errorf("create: %w", err)
	}

	end = tr.span("serve.stream")
	events, terminal, err := w.stream(created.ID)
	end()
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if terminal != string(serve.StateDone) || events == 0 {
		return nil, fmt.Errorf("stream ended in state %q after %d events", terminal, events)
	}

	end = tr.span("serve.fetch")
	req, err = http.NewRequest(http.MethodGet, w.base+"/v1/jobs/"+created.ID, nil)
	if err != nil {
		return nil, err
	}
	var st serve.JobStatus
	err = w.do(req, http.StatusOK, &st)
	end()
	if err != nil {
		return nil, fmt.Errorf("fetch: %w", err)
	}
	if w.mutate == "solve-unconverged" && len(st.Results) > 0 {
		st.Results[0].Converged = false
	}
	if st.State != serve.StateDone || len(st.Results) != solveBatch {
		return nil, fmt.Errorf("job %s: state %s with %d/%d results", st.ID, st.State, len(st.Results), solveBatch)
	}
	for i, r := range st.Results {
		if r.Index != i || r.Error != "" || !r.Converged {
			return nil, fmt.Errorf("job %s instance %d: index %d converged %v error %q", st.ID, i, r.Index, r.Converged, r.Error)
		}
	}
	return &st, nil
}

// do sends req and decodes a JSON answer with the wanted status. Any other
// status (a 429 or 503 from admission included) is a failed op.
func (w *solveWL) do(req *http.Request, want int, v any) error {
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, v)
}

// stream follows the job's SSE stream until the server ends it, returning
// the number of events and the state of the last state event.
func (w *solveWL) stream(id string) (int, string, error) {
	resp, err := w.client.Get(w.base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, "", fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20) // the result event carries every instance
	events, state, isState := 0, "", false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			events++
			isState = line == "event: state"
		case isState && strings.HasPrefix(line, "data: "):
			var ev struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
				return events, "", err
			}
			state = ev.State
		}
	}
	return events, state, sc.Err()
}

// sampled reports whether op k is one the reference check re-solves.
func (w *solveWL) sampled(k int) bool {
	return k >= w.clients()*w.warmup() && splitmix(uint64(w.seed)^uint64(k))%8 == 0
}

// check re-solves the sampled ops with core.RunBatch from the same commit
// and requires payoffs, potential and welfare to match bit for bit.
func (w *solveWL) check() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.samples) == 0 {
		return fmt.Errorf("solve: no op was sampled for the reference check")
	}
	for k, got := range w.samples {
		cfgs, _, err := serve.ParseJobSpec(w.body(k), serve.Limits{})
		if err != nil {
			return err
		}
		if w.mutate == "solve-reference" {
			got[0].Payoffs[0] = math.Nextafter(got[0].Payoffs[0], math.Inf(1))
		}
		ref := core.RunBatch(context.Background(), cfgs, fleet.Options{})
		for i, r := range ref {
			g := got[i]
			if r.Fleet.Err != nil {
				return fmt.Errorf("solve reference op %d instance %d: %w", k, i, r.Fleet.Err)
			}
			if !sameBits(r.Payoffs, g.Payoffs) || !sameBits([]float64{r.Fleet.Potential, r.SocialWelfare}, []float64{g.Potential, g.SocialWelfare}) {
				return fmt.Errorf("solve reference op %d instance %d: gateway answer differs from core.RunBatch", k, i)
			}
		}
	}
	return nil
}

func (w *solveWL) verifyTxs() []chain.Transaction { return nil }
func (w *solveWL) fixtureBytes() int64            { return 0 }

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// splitmix is the SplitMix64 finalizer, a seeded hash for sampling.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
