package main

import (
	"crypto/ed25519"
	"encoding/json"
	"math"
	"time"
)

// refProbeMs is the probe time on the reference host (a 2-vCPU Xeon VM,
// Go 1.24); end-to-end times are reported scaled to it.
const refProbeMs = 1.5

// prober runs a fixed reference computation: signature checks, JSON, and
// floating-point and integer loops, the instruction mix of the program's
// hot layers. On a shared VM the CPU speed a process gets drifts by tens of
// percent over tens of seconds (neighbours on the same cores, hypervisor
// steal), and it moves the probe and the program alike. Timing a probe
// every probeEvery with the clients held, and scaling the run's times by
// the reference probe time over the run's mean probe time, cancels most of
// that drift: over the same runs it cut the quartile spread of p50_ms from
// 0.14–0.24 to 0.04–0.08.
type prober struct {
	pub  ed25519.PublicKey
	msg  []byte
	sig  []byte
	doc  map[string]any
	buf  []byte
	sink float64
}

func newProber() *prober {
	priv := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	p := &prober{pub: priv.Public().(ed25519.PublicKey), msg: []byte("perfbench probe"), buf: make([]byte, 16<<10)}
	p.sig = ed25519.Sign(priv, p.msg)
	for i := range p.buf {
		p.buf[i] = byte(i * 31)
	}
	rows := make([][]float64, 8)
	for i := range rows {
		rows[i] = []float64{1.25 * float64(i), 3.5e9, 0.125, 17}
	}
	p.doc = map[string]any{"rho": rows, "gamma": 0.5, "name": "probe"}
	return p
}

// run times one probe.
func (p *prober) run() time.Duration {
	start := time.Now()
	for i := 0; i < 6; i++ {
		if !ed25519.Verify(p.pub, p.msg, p.sig) {
			panic("perfbench: probe signature rejected")
		}
	}
	for i := 0; i < 20; i++ {
		raw, _ := json.Marshal(p.doc)
		var back map[string]any
		_ = json.Unmarshal(raw, &back)
	}
	x := 1.0
	for j := 0; j < 40000; j++ {
		x = math.Sqrt(x*1.0000001+float64(j)) / 1.5
	}
	h := uint64(14695981039346656037)
	for r := 0; r < 4; r++ {
		for _, b := range p.buf {
			h = (h ^ uint64(b)) * 1099511628211
		}
	}
	p.sink += x + float64(h>>40)
	return time.Since(start)
}
