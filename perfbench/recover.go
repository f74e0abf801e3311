package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tradefl/internal/chain"
	"tradefl/internal/obs"
)

// The recover workload: crash recovery of a durable ledger. Setup builds a
// chain holding one settled N=32 game followed by member-to-member
// transfer blocks, recoverTransferBlocks×recoverBlockTxs txs after the
// settlement, with the last Checkpoint recoverTailBlocks blocks before the
// tip. Each op recovers a fresh copy with chain.RecoverOpts.
const (
	recoverTransferBlocks = 19
	recoverBlockTxs       = 128
	recoverTailBlocks     = 5
)

type recoverWL struct {
	mutate  string
	game    *settleGame
	dir     string
	fixture string
	txs     []chain.Transaction
	// height, root and tip are the fixture's tip: the answers every
	// recovery must reproduce.
	height uint64
	root   string
	tip    string
	bytes  int64
}

func (w *recoverWL) clients() int { return 1 }
func (w *recoverWL) warmup() int  { return 3 }

func (w *recoverWL) setup(seed int64, dir string) error {
	w.dir = dir
	w.fixture = filepath.Join(dir, "fixture")
	g, err := newSettleGame(seed)
	if err != nil {
		return err
	}
	w.game = g
	bc, err := chain.OpenDurable(w.fixture, g.authority, g.params, g.alloc)
	if err != nil {
		return err
	}
	defer bc.CloseDurable()
	if _, err := g.settle(bc, nil, ""); err != nil {
		return fmt.Errorf("fixture settlement: %w", err)
	}
	for _, round := range g.rounds {
		w.txs = append(w.txs, round...)
	}
	n := len(g.accounts)
	for b := 0; b < recoverTransferBlocks; b++ {
		var block []chain.Transaction
		for t := 0; t < recoverBlockTxs; t++ {
			from := (b*recoverBlockTxs + t) % n
			to := g.accounts[(from+1+b%(n-1))%n].Address()
			tx, err := g.sign(from, chain.FnTransfer, chain.TransferArgs{To: to}, chain.Wei(1+t))
			if err != nil {
				return err
			}
			block = append(block, *tx)
		}
		res, err := bc.SubmitTxBatch(block)
		if err != nil {
			return err
		}
		for i, r := range res {
			if !r.OK {
				return fmt.Errorf("fixture block %d tx %d: %s", b, i, r.Error)
			}
		}
		sealed, err := bc.SealBlock()
		if err != nil {
			return err
		}
		for i, r := range sealed.Receipts {
			if !r.OK {
				return fmt.Errorf("fixture block %d tx %d failed: %s", b, i, r.Error)
			}
		}
		w.txs = append(w.txs, block...)
		if b == recoverTransferBlocks-1-recoverTailBlocks {
			if err := bc.Checkpoint(); err != nil {
				return err
			}
		}
	}
	w.height = bc.Height()
	w.root = bc.StateRoot()
	if w.tip, err = tipHash(bc); err != nil {
		return err
	}
	if err := bc.CloseDurable(); err != nil {
		return err
	}
	entries, err := os.ReadDir(w.fixture)
	if err != nil {
		return err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return err
		}
		if strings.HasPrefix(e.Name(), "snap-") {
			w.bytes += info.Size()
		}
	}
	return nil
}

func (w *recoverWL) teardown() {}

func tipHash(bc *chain.Blockchain) (string, error) {
	b, err := bc.BlockAt(bc.Height())
	if err != nil {
		return "", err
	}
	return b.HeaderHash()
}

func (w *recoverWL) op(k int, tr *tracer) opResult {
	dir := filepath.Join(w.dir, fmt.Sprintf("recover-%d", k))
	r := opResult{work: len(w.txs)}
	err := w.copyFixture(dir)
	if err == nil {
		start := time.Now()
		err = w.recover(dir, tr)
		r.lat = time.Since(start)
	}
	if rmErr := os.RemoveAll(dir); err == nil {
		err = rmErr
	}
	if err != nil {
		r.err = fmt.Errorf("recover op %d: %w", k, err)
	}
	return r
}

// recover is one op: recover the copy and check its tip against the
// fixture's height, state root and tip header hash.
func (w *recoverWL) recover(dir string, tr *tracer) error {
	var before []obs.Sample
	if tr != nil {
		before = obs.Default.Snapshot()
	}
	end := tr.span("chain.recover")
	bc, err := chain.RecoverOpts(dir, w.game.authority, chain.Options{})
	end()
	if tr != nil {
		d := delta{before, obs.Default.Snapshot()}
		tr.observe("chain.recover_txs", d.counter("tradefl_chain_tx_submitted_total"))
		tr.observe("chain.recover_wal_records", d.counter("tradefl_chain_recover_wal_records_total"))
	}
	if err != nil {
		return err
	}
	defer bc.CloseDurable() // no-op after the explicit close below
	root, height := bc.StateRoot(), bc.Height()
	tip, err := tipHash(bc)
	if err != nil {
		return err
	}
	if w.mutate == "recover-root" {
		root = "x" + root[1:]
	}
	if height != w.height || root != w.root || tip != w.tip {
		return fmt.Errorf("recovered tip (height %d, root %s, hash %s) differs from the fixture's (height %d, root %s, hash %s)",
			height, root, tip, w.height, w.root, w.tip)
	}
	end = tr.span("chain.close")
	err = bc.CloseDurable()
	end()
	return err
}

// copyFixture copies the fixture directory to dir. The recover-truncate
// self-test cuts the newest WAL segment in half, losing sealed blocks.
func (w *recoverWL) copyFixture(dir string) error {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return err
	}
	entries, err := os.ReadDir(w.fixture)
	if err != nil {
		return err
	}
	lastSeg := ""
	for _, e := range entries {
		if err := copyFile(filepath.Join(w.fixture, e.Name()), filepath.Join(dir, e.Name())); err != nil {
			return err
		}
		if strings.HasPrefix(e.Name(), "wal-") {
			lastSeg = e.Name() // ReadDir sorts by name
		}
	}
	if w.mutate == "recover-truncate" && lastSeg != "" {
		path := filepath.Join(dir, lastSeg)
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		return os.Truncate(path, info.Size()/2)
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func (w *recoverWL) check() error { return nil }

func (w *recoverWL) verifyTxs() []chain.Transaction { return w.txs }

func (w *recoverWL) fixtureBytes() int64 { return w.bytes }
