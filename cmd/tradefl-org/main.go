// Command tradefl-org is one organization's settlement client: it connects
// to a tradefl-chain node over JSON-RPC and walks the Fig. 3 lifecycle for
// its own account — depositSubmit → contributionSubmit → payoffCalculate →
// payoffTransfer → profileRecord — polling the contract status between
// phases so any number of tradefl-org processes can settle concurrently.
//
// Usage (after starting `tradefl-chain -listen 127.0.0.1:8545 -seed 7`):
//
//	tradefl-org -rpc 127.0.0.1:8545 -seed 7 -index 3            # solve + settle
//	tradefl-org -rpc 127.0.0.1:8545 -seed 7 -index 3 -d 0.4 -f 4e9
//
// The account is derived from the shared seed exactly as the chain node
// derives the funded genesis members.
package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tradefl/internal/chain"
	"tradefl/internal/dbr"
	"tradefl/internal/game"
	"tradefl/internal/obs"
	"tradefl/internal/parallel"
	"tradefl/internal/randx"
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
		fmt.Fprintln(os.Stderr, "tradefl-org:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("tradefl-org", flag.ContinueOnError)
	var (
		rpc      = fs.String("rpc", "127.0.0.1:8545", "chain node RPC address")
		seed     = fs.Int64("seed", 7, "shared seed of the game instance and accounts")
		index    = fs.Int("index", -1, "this organization's index")
		dFlag    = fs.Float64("d", -1, "data fraction to report (default: solve with DBR)")
		fFlag    = fs.Float64("f", -1, "CPU frequency to report (default: solve with DBR)")
		commit   = fs.Bool("commit", false, "use commit-reveal contribution reporting (all members must)")
		poll     = fs.Duration("poll", 500*time.Millisecond, "status poll interval")
		timeout  = fs.Duration("timeout", 2*time.Minute, "settlement deadline")
		workers  = fs.Int("workers", 0, "best-response worker goroutines (0 = GOMAXPROCS, 1 = serial)")
		verifyOn = fs.Bool("verify", false, "audit solver and settlement invariants at runtime (tradefl_verify_* metrics; nonzero exit on violation)")

		rpcTimeout = fs.Duration("rpc-timeout", 10*time.Second, "per-RPC-attempt deadline")
		rpcRetries = fs.Int("rpc-retries", 3, "RPC retries after a transport failure (negative disables)")

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
	if *index < 0 || *index >= cfg.N() {
		return fmt.Errorf("-index %d out of range [0,%d)", *index, cfg.N())
	}

	// Re-derive this organization's account: the chain node draws the
	// authority first, then one account per member, all from the seed.
	src := randx.New(*seed)
	if _, err := chain.NewAccount(src); err != nil { // authority
		return err
	}
	var acct *chain.Account
	for i := 0; i <= *index; i++ {
		if acct, err = chain.NewAccount(src); err != nil {
			return err
		}
	}
	fmt.Printf("organization %d: address %s\n", *index, acct.Address())

	// Decide the contribution: flags, or the DBR equilibrium (parameters
	// are common knowledge and the dynamics deterministic, so every
	// organization computes the same profile).
	strategy := game.Strategy{D: *dFlag, F: *fFlag}
	if *dFlag < 0 || *fFlag < 0 {
		res, err := dbr.Solve(cfg, nil, dbr.Options{})
		if err != nil {
			return err
		}
		strategy = res.Profile[*index]
		fmt.Printf("solved equilibrium: d=%.4f f=%.2f GHz\n", strategy.D, strategy.F/1e9)
	}

	client := chain.NewClientOpts(*rpc, chain.ClientOptions{
		Timeout:    *rpcTimeout,
		MaxRetries: *rpcRetries,
	})
	deadline := time.Now().Add(*timeout)
	// SIGINT/SIGTERM aborts the lifecycle between polls; every phase is
	// idempotent (isAlready), so a re-run resumes where this one stopped,
	// and the deferred sink flush above still writes the obs outputs.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	pollWait := func() error {
		select {
		case <-ctx.Done():
			return fmt.Errorf("interrupted: %w", ctx.Err())
		case <-time.After(*poll):
			return nil
		}
	}
	send := func(fn chain.Function, fnArgs any, value chain.Wei) error {
		nonce, err := client.Nonce(acct.Address())
		if err != nil {
			return err
		}
		tx, err := chain.NewTransaction(acct, nonce, fn, fnArgs, value)
		if err != nil {
			return err
		}
		if err := client.SubmitTx(tx); err != nil {
			return err
		}
		if _, err := client.SealBlock(); err != nil {
			return err
		}
		hash, err := tx.Hash()
		if err != nil {
			return err
		}
		// A concurrent process's seal may have included the tx before our
		// SealBlock ran, so poll the chain-wide receipt index for the
		// authoritative outcome.
		for {
			rcpt, err := client.Receipt(hash)
			if err == nil {
				if !rcpt.OK {
					return errors.New(rcpt.Error)
				}
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("receipt for %s: %w", fn, err)
			}
			if werr := pollWait(); werr != nil {
				return werr
			}
		}
	}
	waitFor := func(phase string, ok func(chain.ContractStatus) bool) error {
		for {
			st, err := client.Status()
			if err != nil {
				return err
			}
			if ok(st) {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("timed out waiting for %s (status %+v)", phase, st)
			}
			if werr := pollWait(); werr != nil {
				return werr
			}
		}
	}

	// Phase 1: deposit the bond.
	var dep chain.Wei
	if err := client.Call(chain.MethodMinDeposit, map[string]any{"index": *index, "fMax": 5e9}, &dep); err != nil {
		return err
	}
	if err := send(chain.FnDepositSubmit, nil, dep); err != nil && !isAlready(err) {
		return fmt.Errorf("deposit: %w", err)
	}
	fmt.Printf("deposited %v tokens\n", chain.FromWei(dep))

	// Phase 2: once everyone registered, report the contribution.
	if err := waitFor("registrations", func(st chain.ContractStatus) bool {
		return st.Registered == st.Members
	}); err != nil {
		return err
	}
	contrib := chain.Contribution{D: strategy.D, F: strategy.F}
	if *commit {
		// Commit-reveal: bind to a salted hash first, reveal once every
		// member has committed (no last-mover advantage).
		saltBytes := make([]byte, 16)
		if _, err := rand.Read(saltBytes); err != nil {
			return err
		}
		salt := hex.EncodeToString(saltBytes)
		ca := chain.CommitArgs{Hash: chain.CommitmentHash(contrib, salt)}
		if err := send(chain.FnContributionCommit, ca, 0); err != nil && !isAlready(err) {
			return fmt.Errorf("commit: %w", err)
		}
		fmt.Println("contribution committed")
		reveal := func() error {
			return send(chain.FnContributionReveal, chain.RevealArgs{Contribution: contrib, Salt: salt}, 0)
		}
		// Reveal is rejected until the last commitment lands; retry on the
		// poll cadence.
		for {
			err := reveal()
			if err == nil || isAlready(err) {
				break
			}
			if !strings.Contains(err.Error(), "committed") {
				return fmt.Errorf("reveal: %w", err)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("reveal timed out: %w", err)
			}
			if werr := pollWait(); werr != nil {
				return werr
			}
		}
		fmt.Println("contribution revealed")
	} else {
		if err := send(chain.FnContributionSubmit, contrib, 0); err != nil && !isAlready(err) {
			return fmt.Errorf("submit: %w", err)
		}
		fmt.Println("contribution submitted")
	}

	// Phase 3: calculate (idempotent; any member may win the race),
	// transfer, record.
	if err := waitFor("submissions", func(st chain.ContractStatus) bool {
		return st.Submitted == st.Members
	}); err != nil {
		return err
	}
	if err := send(chain.FnPayoffCalculate, nil, 0); err != nil && !isAlready(err) {
		return fmt.Errorf("calculate: %w", err)
	}
	before, err := client.Balance(acct.Address())
	if err != nil {
		return err
	}
	if err := send(chain.FnPayoffTransfer, nil, 0); err != nil && !isAlready(err) {
		return fmt.Errorf("transfer: %w", err)
	}
	if err := send(chain.FnProfileRecord, nil, 0); err != nil && !isAlready(err) {
		return fmt.Errorf("record: %w", err)
	}
	after, err := client.Balance(acct.Address())
	if err != nil {
		return err
	}
	if err := client.VerifyChain(); err != nil {
		return fmt.Errorf("chain verification: %w", err)
	}
	fmt.Printf("settled: received %v tokens (deposit %v + redistribution %+v)\n",
		chain.FromWei(after-before), chain.FromWei(dep), chain.FromWei(after-before-dep))
	return nil
}

// isAlready matches the idempotency errors a retried phase produces so a
// restarted client can resume mid-lifecycle.
func isAlready(err error) bool {
	if err == nil {
		return false
	}
	msg := err.Error()
	return errors.Is(err, chain.ErrAlreadyRegistered) ||
		errors.Is(err, chain.ErrAlreadySubmitted) ||
		errors.Is(err, chain.ErrAlreadySettled) ||
		strings.Contains(msg, "already")
}
