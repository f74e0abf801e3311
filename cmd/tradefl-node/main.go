// Command tradefl-node runs one organization of the distributed DBR
// protocol (Algorithm 2) over TCP — no central parameter server, as the
// paper prescribes. Every node derives the public game instance from the
// shared seed; each decides only its own strategy.
//
// Single-process demo (spawns all N nodes over loopback TCP):
//
//	tradefl-node -local -seed 7
//
// Multi-process deployment (run one per organization):
//
//	tradefl-node -index 0 -listen :7000 -peers ":7000,:7001,...,:7009" -seed 7
//
// Node 0 injects the initial token once its peers are reachable.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"tradefl/internal/dbr"
	"tradefl/internal/game"
	"tradefl/internal/obs"
	"tradefl/internal/parallel"
	"tradefl/internal/transport"
	"tradefl/internal/verify"
)

func main() {
	// A panic anywhere in the run dumps the flight recorder before dying.
	defer obs.FlightDumpOnPanic(os.Stderr)
	err := run(os.Args[1:])
	if err == nil {
		// With -verify, any invariant breach turns into a nonzero exit.
		err = verify.Finish()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tradefl-node:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("tradefl-node", flag.ContinueOnError)
	var (
		local    = fs.Bool("local", false, "run all organizations in one process over loopback TCP")
		index    = fs.Int("index", -1, "this organization's index (multi-process mode)")
		listen   = fs.String("listen", "", "TCP listen address (multi-process mode)")
		peers    = fs.String("peers", "", "comma-separated peer addresses, indexed by organization")
		seed     = fs.Int64("seed", 7, "seed of the shared game instance")
		timeout  = fs.Duration("timeout", 2*time.Minute, "protocol deadline")
		recovery = fs.Duration("recovery", 10*time.Second, "token-timeout crash recovery (0 disables)")
		suspect  = fs.Int("suspect-after", 0, "token resends to the same silent peer before skipping it as crashed (0 = default 2, negative = skip immediately)")
		retries  = fs.Int("send-retries", transport.DefaultSendAttempts, "TCP send attempts before a peer counts as unreachable")
		backoff  = fs.Duration("send-backoff", transport.DefaultSendBackoff, "base backoff between TCP send attempts")
		workers  = fs.Int("workers", 0, "best-response worker goroutines (0 = GOMAXPROCS, 1 = serial)")
		verifyOn = fs.Bool("verify", false, "audit solver and settlement invariants at runtime (tradefl_verify_* metrics; nonzero exit on violation)")
		obsFlags = obs.RegisterFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	diag, err := obsFlags.Apply()
	if err != nil {
		return err
	}
	if diag != nil {
		defer diag.Close()
	}
	// Flush -trace-out / -telemetry-out sinks whichever way the run exits.
	defer func() {
		if ferr := obsFlags.Finish(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	parallel.SetDefault(*workers)
	if *verifyOn {
		verify.Enable(verify.Options{})
	}
	cfg, err := game.DefaultConfig(game.GenOptions{Seed: *seed})
	if err != nil {
		return err
	}
	// SIGINT/SIGTERM cancels the protocol run; node goroutines unwind, TCP
	// transports close via their defers, and the deferred sink flush above
	// still writes -trace-out/-telemetry-out.
	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	ctx, cancel := context.WithTimeout(sigCtx, *timeout)
	defer cancel()
	opts := dbr.Options{TokenTimeout: *recovery, SuspectAfter: *suspect}
	retry := sendPolicy{attempts: *retries, backoff: *backoff}
	if *local {
		return runLocal(ctx, cfg, opts, retry)
	}
	return runMember(ctx, cfg, opts, retry, *index, *listen, *peers)
}

// sendPolicy carries the TCP send retry flags to the node constructors.
type sendPolicy struct {
	attempts int
	backoff  time.Duration
}

func (p sendPolicy) apply(n *transport.TCPNode) {
	n.SetSendRetryPolicy(p.attempts, p.backoff)
}

// runLocal spawns every organization in-process over loopback TCP and
// prints the agreed equilibrium.
func runLocal(ctx context.Context, cfg *game.Config, opts dbr.Options, retry sendPolicy) error {
	n := cfg.N()
	names := make([]string, n)
	tcp := make([]*transport.TCPNode, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("org-%d", i)
		node, err := transport.NewTCPNode(names[i], "127.0.0.1:0", 16)
		if err != nil {
			return err
		}
		retry.apply(node)
		tcp[i] = node
		defer tcp[i].Close()
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			tcp[i].RegisterPeer(names[j], tcp[j].Addr())
		}
	}
	nodes := make([]*dbr.Node, n)
	for i := 0; i < n; i++ {
		node, err := dbr.NewNode(cfg, i, tcp[i], names, opts)
		if err != nil {
			return err
		}
		nodes[i] = node
	}
	results := make([]game.Profile, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = nodes[i].Run(ctx)
		}(i)
	}
	if err := nodes[0].Start(); err != nil {
		return err
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
	}
	printEquilibrium(cfg, results[0])
	return nil
}

// runMember runs a single organization against remote peers.
func runMember(ctx context.Context, cfg *game.Config, opts dbr.Options, retry sendPolicy, index int, listen, peerList string) error {
	if index < 0 || index >= cfg.N() {
		return fmt.Errorf("-index %d out of range [0,%d)", index, cfg.N())
	}
	addrs := strings.Split(peerList, ",")
	if len(addrs) != cfg.N() {
		return fmt.Errorf("-peers has %d entries, want %d", len(addrs), cfg.N())
	}
	if listen == "" {
		listen = addrs[index]
	}
	names := make([]string, cfg.N())
	for i := range names {
		names[i] = fmt.Sprintf("org-%d", i)
	}
	tcp, err := transport.NewTCPNode(names[index], listen, 16)
	if err != nil {
		return err
	}
	retry.apply(tcp)
	defer tcp.Close()
	for i, addr := range addrs {
		tcp.RegisterPeer(names[i], strings.TrimSpace(addr))
	}
	node, err := dbr.NewNode(cfg, index, tcp, names, opts)
	if err != nil {
		return err
	}
	if index == 0 {
		// Give peers a moment to come up before injecting the token.
		time.Sleep(2 * time.Second)
		if err := node.Start(); err != nil {
			return err
		}
	}
	profile, err := node.Run(ctx)
	if err != nil {
		return err
	}
	printEquilibrium(cfg, profile)
	return nil
}

func printEquilibrium(cfg *game.Config, p game.Profile) {
	fmt.Println("equilibrium reached:")
	for i, s := range p {
		fmt.Printf("  %s: d=%.4f f=%.2f GHz payoff=%.2f\n",
			cfg.Orgs[i].Name, s.D, s.F/1e9, cfg.Payoff(i, p))
	}
	fmt.Printf("social welfare: %.2f  potential: %.6f  nash: %v\n",
		cfg.SocialWelfare(p), cfg.Potential(p), cfg.CheckNash(p, 50, 1e-2))
}
