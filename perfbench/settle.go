package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"tradefl/internal/chain"
	"tradefl/internal/core"
	"tradefl/internal/game"
	"tradefl/internal/randx"
)

// The settle workload: the Fig. 3 settlement lifecycle of core's settle
// step for one N=32 game, on a fresh WAL chain per op. Profiles are solved
// and txs signed in setup; the ops rotate over settleGames games.
const (
	settleN     = 32
	settleGames = 4
)

// settleGame is one solved game ready to settle: its accounts, contract
// parameters, and the four rounds of pre-signed lifecycle txs.
type settleGame struct {
	authority *chain.Account
	accounts  []*chain.Account
	params    chain.ContractParams
	alloc     chain.GenesisAlloc
	// rounds are deposit, contribution, calculate, and transfer+record.
	rounds [4][]chain.Transaction
	hashes []string
	// nonces are the members' next nonces after the lifecycle.
	nonces []uint64
	// want is the game's redistribution R_i per member.
	want []float64
}

func (g *settleGame) txCount() int { return len(g.hashes) }

// newSettleGame draws an N=32 game from seed, solves it with core and signs
// its settlement txs, as core's settle step would submit them.
func newSettleGame(seed int64) (*settleGame, error) {
	cfg, err := game.DefaultConfig(game.GenOptions{N: settleN, Seed: seed, CPUSteps: 3})
	if err != nil {
		return nil, err
	}
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := m.Run(context.Background(), core.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	profile := res.Profile

	src := randx.New(seed)
	g := &settleGame{alloc: chain.GenesisAlloc{}, nonces: make([]uint64, settleN)}
	if g.authority, err = chain.NewAccount(src); err != nil {
		return nil, err
	}
	members := make([]chain.Address, settleN)
	bits := make([]float64, settleN)
	fMax := 0.0
	for i, o := range cfg.Orgs {
		acct, err := chain.NewAccount(src)
		if err != nil {
			return nil, err
		}
		g.accounts = append(g.accounts, acct)
		members[i] = acct.Address()
		bits[i] = cfg.DataCredit(i)
		fMax = math.Max(fMax, o.CPULevels[len(o.CPULevels)-1])
	}
	g.params = chain.ContractParams{Members: members, Rho: cfg.Rho, DataBits: bits, Gamma: cfg.Gamma, Lambda: cfg.Lambda}
	deposits := make([]chain.Wei, settleN)
	for i := range members {
		deposits[i] = chain.MinDeposit(g.params, i, fMax)
		g.alloc[members[i]] = 2 * deposits[i]
		g.want = append(g.want, cfg.Redistribution(i, profile))
	}
	add := func(r, i int, fn chain.Function, args any, value chain.Wei) error {
		tx, err := g.sign(i, fn, args, value)
		if err != nil {
			return err
		}
		g.rounds[r] = append(g.rounds[r], *tx)
		return nil
	}
	for i := range members {
		if err := add(0, i, chain.FnDepositSubmit, nil, deposits[i]); err != nil {
			return nil, err
		}
		if err := add(1, i, chain.FnContributionSubmit, chain.Contribution{D: profile[i].D, F: profile[i].F}, 0); err != nil {
			return nil, err
		}
	}
	if err := add(2, 0, chain.FnPayoffCalculate, nil, 0); err != nil {
		return nil, err
	}
	for i := range members {
		if err := add(3, i, chain.FnPayoffTransfer, nil, 0); err != nil {
			return nil, err
		}
		if err := add(3, i, chain.FnProfileRecord, nil, 0); err != nil {
			return nil, err
		}
	}
	for _, round := range g.rounds {
		for _, tx := range round {
			h, err := tx.Hash()
			if err != nil {
				return nil, err
			}
			g.hashes = append(g.hashes, h)
		}
	}
	return g, nil
}

// sign builds member i's next transaction.
func (g *settleGame) sign(i int, fn chain.Function, args any, value chain.Wei) (*chain.Transaction, error) {
	tx, err := chain.NewTransaction(g.accounts[i], g.nonces[i], fn, args, value)
	if err != nil {
		return nil, err
	}
	g.nonces[i]++
	return tx, nil
}

// settle runs the lifecycle on bc: each round is one SubmitTxBatch and one
// SealBlock, every admission and receipt must be OK, and after the
// calculate round the on-chain payoffs must match the game's R_i within
// core's 1e-3 tolerance and balance to zero in wei. It returns the payoffs.
func (g *settleGame) settle(bc *chain.Blockchain, tr *tracer, mutate string) ([]chain.Wei, error) {
	var payoffs []chain.Wei
	for r, txs := range g.rounds {
		end := tr.span("chain.submit")
		res, err := bc.SubmitTxBatch(txs)
		end()
		if err != nil {
			return nil, fmt.Errorf("round %d submit: %w", r, err)
		}
		for i, s := range res {
			if !s.OK || s.Known {
				return nil, fmt.Errorf("round %d tx %d not admitted: %s", r, i, s.Error)
			}
		}
		end = tr.span("chain.seal")
		b, err := bc.SealBlock()
		end()
		if err != nil {
			return nil, fmt.Errorf("round %d seal: %w", r, err)
		}
		if len(b.Receipts) != len(txs) {
			return nil, fmt.Errorf("round %d: block %d holds %d receipts, want %d", r, b.Height, len(b.Receipts), len(txs))
		}
		for i, rc := range b.Receipts {
			if !rc.OK {
				return nil, fmt.Errorf("round %d tx %d failed: %s", r, i, rc.Error)
			}
		}
		if r != 2 {
			continue
		}
		end = tr.span("chain.receipt")
		err = bc.ContractView(func(c *chain.Contract) error {
			p, err := c.Payoffs()
			payoffs = p
			return err
		})
		end()
		if err != nil {
			return nil, err
		}
		if err := g.checkPayoffs(payoffs, mutate); err != nil {
			return nil, err
		}
	}
	return payoffs, nil
}

func (g *settleGame) checkPayoffs(payoffs []chain.Wei, mutate string) error {
	var sum chain.Wei
	for i, p := range payoffs {
		want := g.want[i]
		if mutate == "settle-payoff" && i == 0 {
			want++
		}
		if got := chain.FromWei(p); math.Abs(got-want) > 1e-3*math.Max(1, math.Abs(want)) {
			return fmt.Errorf("on-chain payoff[%d] = %v, game R_i = %v", i, got, want)
		}
		sum += p
	}
	if sum != 0 {
		return fmt.Errorf("payoffs sum to %d wei, want 0 (budget balance)", sum)
	}
	return nil
}

type settleWL struct {
	mutate string
	games  []*settleGame
	dir    string
}

func (w *settleWL) clients() int { return 1 }
func (w *settleWL) warmup() int  { return 10 }

func (w *settleWL) setup(seed int64, dir string) error {
	w.dir = dir
	for i := 0; i < settleGames; i++ {
		g, err := newSettleGame(seed*1_000_003 + int64(i))
		if err != nil {
			return err
		}
		w.games = append(w.games, g)
	}
	return nil
}

func (w *settleWL) teardown() {}

func (w *settleWL) op(k int, tr *tracer) opResult {
	g := w.games[k%len(w.games)]
	dir := filepath.Join(w.dir, fmt.Sprintf("settle-%d", k))
	start := time.Now()
	err := w.run(g, dir, tr)
	r := opResult{lat: time.Since(start), work: g.txCount()}
	if rmErr := os.RemoveAll(dir); err == nil {
		err = rmErr
	}
	if err != nil {
		r.err = fmt.Errorf("settle op %d: %w", k, err)
	}
	return r
}

// run is one op: open a fresh WAL chain, settle, read every receipt and
// balance, verify the chain and close it.
func (w *settleWL) run(g *settleGame, dir string, tr *tracer) error {
	end := tr.span("chain.open")
	bc, err := chain.OpenDurable(dir, g.authority, g.params, g.alloc)
	end()
	if err != nil {
		return err
	}
	defer bc.CloseDurable() // no-op after the explicit close below
	payoffs, err := g.settle(bc, tr, w.mutate)
	if err != nil {
		return err
	}

	end = tr.span("chain.receipt")
	err = g.checkLedger(bc, payoffs, w.mutate)
	end()
	if err != nil {
		return err
	}

	if w.mutate == "settle-verify" {
		if err := bc.TamperBlockForTest(1, 0); err != nil {
			return err
		}
	}
	end = tr.span("chain.verify_chain")
	err = bc.VerifyChain()
	end()
	if err != nil {
		return fmt.Errorf("verify chain: %w", err)
	}
	end = tr.span("chain.close")
	err = bc.CloseDurable()
	end()
	return err
}

// checkLedger reads every receipt by hash and every member balance: each
// receipt is OK, and each member ends with its genesis allocation plus its
// payoff, exactly in wei.
func (g *settleGame) checkLedger(bc *chain.Blockchain, payoffs []chain.Wei, mutate string) error {
	for i, h := range g.hashes {
		rc, err := bc.ReceiptByHash(h)
		if err != nil {
			return fmt.Errorf("receipt %d: %w", i, err)
		}
		if !rc.OK || mutate == "settle-receipt" && i == len(g.hashes)-1 {
			return fmt.Errorf("receipt %d (%s) not OK: %s", i, h, rc.Error)
		}
	}
	for i, acct := range g.accounts {
		got := bc.Balance(acct.Address())
		if mutate == "settle-budget" && i == 0 {
			got++
		}
		if want := g.alloc[acct.Address()] + payoffs[i]; got != want {
			return fmt.Errorf("member %d balance %d wei, want %d (allocation + payoff)", i, got, want)
		}
	}
	return nil
}

func (w *settleWL) check() error { return nil }

func (w *settleWL) verifyTxs() []chain.Transaction {
	var out []chain.Transaction
	for _, g := range w.games {
		for _, round := range g.rounds {
			out = append(out, round...)
		}
	}
	return out
}

func (w *settleWL) fixtureBytes() int64 { return 0 }
