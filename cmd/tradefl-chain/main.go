// Command tradefl-chain runs a TradeFL private-chain node: it deploys the
// settlement contract for a Table II instance and serves the Web3-style
// JSON-RPC interface organizations use to deposit, submit contributions and
// settle (Sec. III-F of the paper).
//
// Usage:
//
//	tradefl-chain -listen 127.0.0.1:8545 -seed 7 [-keys keys.json]
//	tradefl-chain -wal-dir data/ -snapshot-interval 30s        durable node
//	tradefl-chain -wal-dir data/ -recover 42                   PITR view at height 42
//	tradefl-chain -wal-dir p/ -replicate 127.0.0.1:9000        primary, streaming to standby
//	tradefl-chain -wal-dir s/ -standby 127.0.0.1:9000          standby, promotes on silence
//
// The node prints each member's address and funds it at genesis; the keys
// file (written on startup) lets organization processes sign transactions.
// With -wal-dir every accepted transaction and sealed block is fsynced to a
// write-ahead log before it is acknowledged, and an existing directory is
// recovered (snapshot + log replay, replay-verified) instead of starting
// fresh. SIGINT/SIGTERM shuts down gracefully: the RPC listener closes, the
// pending block is sealed, and the WAL is flushed and closed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tradefl/internal/chain"
	"tradefl/internal/faults"
	"tradefl/internal/game"
	"tradefl/internal/obs"
	"tradefl/internal/randx"
	"tradefl/internal/transport"
	"tradefl/internal/verify"
)

// keyFile is the JSON document written with -keys: enough for a separate
// process to recreate each organization's account deterministically.
type keyFile struct {
	Seed      int64           `json:"seed"`
	Members   []chain.Address `json:"members"`
	Authority chain.Address   `json:"authority"`
	RPC       string          `json:"rpc"`
}

func main() {
	// A panic anywhere in the run dumps the flight recorder before dying.
	defer obs.FlightDumpOnPanic(os.Stderr)
	err := run(os.Args[1:])
	if err == nil {
		// With -verify, any invariant breach turns into a nonzero exit.
		err = verify.Finish()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tradefl-chain:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("tradefl-chain", flag.ContinueOnError)
	var (
		listen   = fs.String("listen", "127.0.0.1:8545", "RPC listen address")
		seed     = fs.Int64("seed", 7, "seed of the game instance and accounts")
		keys     = fs.String("keys", "", "write member key/address info to this file")
		fund     = fs.Int64("fund", 1_000_000_000, "genesis balance per member (wei)")
		store    = fs.String("store", "", "persist the chain to this file (reloaded if present)")
		walDir   = fs.String("wal-dir", "", "durable mode: write-ahead log + incremental snapshots in this directory (an existing chain is recovered and replay-verified)")
		snapInt  = fs.Duration("snapshot-interval", 0, "with -wal-dir: checkpoint cadence — rotate the WAL and write an incremental snapshot every interval (0 disables)")
		recoverH = fs.Uint64("recover", 0, "with -wal-dir: point-in-time recovery — serve a view of the chain as of this sealed height; writes to the view are NOT durable")
		repl     = fs.String("replicate", "", "with -wal-dir: stream every durable WAL record to the standby listening at this address")
		standby  = fs.String("standby", "", "run as a standby validator: tail the primary's WAL stream on this listen address and take over sealing when it goes silent")
		failover = fs.Duration("failover-timeout", 2*time.Second, "with -standby: promote after the replication stream has been silent this long")
		shards   = fs.Int("shards", chain.DefaultShards, "account-state shards K (execution parallelism; state roots are identical for any K)")
		pipeline = fs.Bool("pipeline", true, "overlap admission/execution/group-commit in the seal pipeline (false = serial pre-pipelining mode)")
		chaos    = fs.String("chaos", "", "inject server-side RPC faults, e.g. \"seed=7,rpcfail=0.1,rpcdelayp=0.2\"")
		verifyOn = fs.Bool("verify", false, "audit settlement invariants at runtime (tradefl_verify_* metrics; nonzero exit on violation)")

		obsFlags = obs.RegisterFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *verifyOn {
		verify.Enable(verify.Options{})
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

	cfg, err := game.DefaultConfig(game.GenOptions{Seed: *seed})
	if err != nil {
		return err
	}
	src := randx.New(*seed)
	authority, err := chain.NewAccount(src)
	if err != nil {
		return err
	}
	n := cfg.N()
	members := make([]chain.Address, n)
	bits := make([]float64, n)
	alloc := chain.GenesisAlloc{}
	for i, o := range cfg.Orgs {
		acct, err := chain.NewAccount(src)
		if err != nil {
			return err
		}
		members[i] = acct.Address()
		bits[i] = o.DataBits
		alloc[members[i]] = chain.Wei(*fund)
	}
	params := chain.ContractParams{
		Members:  members,
		Rho:      cfg.Rho,
		DataBits: bits,
		Gamma:    cfg.Gamma,
		Lambda:   cfg.Lambda,
	}
	if *walDir != "" && *store != "" {
		return fmt.Errorf("-store and -wal-dir are mutually exclusive")
	}
	if (*recoverH > 0 || *repl != "") && *walDir == "" {
		return fmt.Errorf("-recover and -replicate require -wal-dir")
	}
	if *standby != "" && *repl != "" {
		return fmt.Errorf("-standby and -replicate are mutually exclusive")
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be >= 1")
	}
	// Sharding and pipelining only change execution scheduling: blocks,
	// receipts and state roots are byte-identical for any K, so a durable
	// directory can be reopened under different knobs.
	copts := chain.Options{Shards: *shards, SerialAdmission: !*pipeline}

	var bc *chain.Blockchain
	switch {
	case *recoverH > 0:
		// Point-in-time view: rebuilt from snapshot + log up to the
		// requested height, replay-verified, detached from the WAL.
		bc, err = chain.RecoverAtOpts(*walDir, authority, *recoverH, copts)
		if err != nil {
			return fmt.Errorf("point-in-time recovery: %w", err)
		}
		fmt.Printf("tradefl-chain: point-in-time view of %s at height %d (state root %s); writes are NOT durable\n",
			*walDir, bc.Height(), bc.StateRoot())
	case *walDir != "":
		// OpenDurable initializes a fresh durable chain or recovers an
		// existing one to its last acknowledged state.
		bc, err = chain.OpenDurableOpts(*walDir, authority, params, alloc, copts)
		if err != nil {
			return err
		}
		fmt.Printf("tradefl-chain: durable chain in %s (height %d, term %d)\n", *walDir, bc.Height(), bc.Term())
	case *store != "":
		if _, statErr := os.Stat(*store); statErr == nil {
			bc, err = chain.Load(*store, authority)
			if err != nil {
				return fmt.Errorf("reload %s: %w", *store, err)
			}
			fmt.Printf("tradefl-chain: reloaded and replay-verified %s (height %d)\n", *store, bc.Height())
		}
	}
	if bc == nil {
		bc, err = chain.NewBlockchainOpts(authority, params, alloc, copts)
		if err != nil {
			return err
		}
	}
	// shutdown is the graceful exit path once RPC has stopped: seal the
	// pending block so nothing acknowledged is left in the mempool file
	// forever, flush and close the WAL (durable mode), or write the final
	// -store snapshot (legacy mode).
	shutdown := func() error {
		if bc.WAL() != nil {
			if bc.PendingCount() > 0 {
				if _, serr := bc.SealBlock(); serr != nil {
					return fmt.Errorf("seal pending block: %w", serr)
				}
			}
			return bc.CloseDurable()
		}
		if *store == "" {
			return nil
		}
		return bc.Save(*store, params, alloc)
	}

	if *standby != "" {
		// Standby mode: no RPC service yet — tail the primary's WAL stream
		// and only start serving (below) after promotion. A signal while
		// still a follower is a clean exit.
		node, terr := transport.NewTCPNode("standby", *standby, 256)
		if terr != nil {
			return terr
		}
		defer node.Close()
		sb := chain.NewStandby(bc, node, chain.StandbyOptions{FailoverAfter: *failover})
		fmt.Printf("tradefl-chain: standby tailing WAL stream on %s (failover after %v)\n", node.Addr(), *failover)
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		promoted, serr := sb.Run(ctx)
		stop()
		switch {
		case promoted:
			fmt.Printf("tradefl-chain: promoted to primary (term %d, height %d)\n", bc.Term(), bc.Height())
		case ctx.Err() != nil:
			fmt.Println("tradefl-chain: standby shutting down")
			return shutdown()
		case serr != nil:
			return serr
		default:
			fmt.Println("tradefl-chain: replication stream closed")
			return shutdown()
		}
	}

	if *repl != "" {
		// Primary side of failover: forward every durable record to the
		// standby. Installed before the server starts taking traffic.
		node, terr := transport.NewTCPNode("primary", "127.0.0.1:0", 256)
		if terr != nil {
			return terr
		}
		defer node.Close()
		node.RegisterPeer("standby", *repl)
		if _, rerr := chain.NewReplicator(bc, node, "standby"); rerr != nil {
			return rerr
		}
		fmt.Println("tradefl-chain: replicating WAL records to", *repl)
	}
	var mw func(http.Handler) http.Handler
	if *chaos != "" {
		plan, err := faults.ParsePlan(*chaos)
		if err != nil {
			return err
		}
		inj, err := faults.NewInjector(plan)
		if err != nil {
			return err
		}
		defer inj.Close()
		mw = func(h http.Handler) http.Handler { return inj.Middleware("chain", h) }
		fmt.Println("tradefl-chain: injecting RPC faults:", plan.String())
	}
	srv, err := chain.NewServerWith(bc, *listen, mw)
	if err != nil {
		return err
	}
	fmt.Println("tradefl-chain: RPC on", srv.Addr())
	fmt.Println("authority:", authority.Address())
	for i, m := range members {
		fmt.Printf("member %d: %s (funded %d wei)\n", i, m, *fund)
	}
	if *keys != "" {
		raw, err := json.MarshalIndent(keyFile{
			Seed: *seed, Members: members,
			Authority: authority.Address(), RPC: srv.Addr(),
		}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*keys, raw, 0o600); err != nil {
			return err
		}
		fmt.Println("wrote", *keys)
	}

	// Periodic incremental snapshots: rotate the WAL and write a checkpoint
	// so recovery replays a short suffix instead of the whole history.
	stopCheckpoints := func() {}
	if bc.WAL() != nil && *snapInt > 0 {
		tick := time.NewTicker(*snapInt)
		ckDone := make(chan struct{})
		go func() {
			for {
				select {
				case <-ckDone:
					return
				case <-tick.C:
					if cerr := bc.Checkpoint(); cerr != nil {
						fmt.Fprintln(os.Stderr, "tradefl-chain: checkpoint:", cerr)
					}
				}
			}
		}()
		stopCheckpoints = func() { tick.Stop(); close(ckDone) }
	}

	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		stopCheckpoints()
		return err
	case <-sig:
		// Graceful order: stop accepting RPCs first, then seal/flush so the
		// final durable state includes everything that was acknowledged.
		fmt.Println("tradefl-chain: shutting down")
		stopCheckpoints()
		if err := srv.Close(); err != nil {
			return err
		}
		if err := <-done; err != nil {
			return err
		}
		return shutdown()
	}
}
