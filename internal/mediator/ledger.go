// Package mediator models the third-party attribution services
// (AppsFlyer, Kochava, Adjust in the paper) that certify offer completion,
// and the double-entry money ledger that executes Figure 1's payment flow:
// developer -> IIP -> affiliate app -> end user, with the mediator taking a
// per-tracked-user fee.
package mediator

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrBadAmount rejects non-positive transfers.
var ErrBadAmount = errors.New("mediator: transfer amount must be positive")

// Tx is one ledger transaction.
type Tx struct {
	From, To string
	Amount   float64
	Memo     string
}

// Ledger is a double-entry account book. Accounts are created on first
// use; external parties (a developer's bank) naturally go negative as they
// fund the system, so the sum of all balances is always zero.
//
// No transaction history is retained: beside the balances the ledger
// keeps only a posting count and a running Digest of the posting
// sequence, so it stays O(accounts) however long the run.
type Ledger struct {
	mu       sync.Mutex
	balances map[string]float64
	numTxs   int
	digest   uint64
}

// FNV-1a 64-bit parameters of the posting digest.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{balances: map[string]float64{}, digest: fnvOffset}
}

// Post transfers amount from one account to another.
func (l *Ledger) Post(from, to string, amount float64, memo string) error {
	if err := validateTx(from, to, amount); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.applyLocked(Tx{From: from, To: to, Amount: amount, Memo: memo})
	return nil
}

// PostAll applies a batch of pre-validated transactions under one lock
// acquisition, in slice order. The parallel day engine flushes each work
// unit's TxBuffer through here in a fixed unit order, so the posting
// sequence (and with it the Digest) and every floating-point balance are
// bit-for-bit identical regardless of how many workers produced the
// buffers.
func (l *Ledger) PostAll(txs []Tx) error {
	for _, tx := range txs {
		if err := validateTx(tx.From, tx.To, tx.Amount); err != nil {
			return err
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, tx := range txs {
		l.applyLocked(tx)
	}
	return nil
}

func (l *Ledger) applyLocked(tx Tx) {
	l.balances[tx.From] -= tx.Amount
	l.balances[tx.To] += tx.Amount
	l.numTxs++
	h := l.digest
	for _, s := range [...]string{tx.From, tx.To, tx.Memo} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * fnvPrime
		}
		h = (h ^ '|') * fnvPrime
	}
	l.digest = (h ^ math.Float64bits(tx.Amount)) * fnvPrime
}

func validateTx(from, to string, amount float64) error {
	if amount <= 0 {
		return fmt.Errorf("%w: %.4f (%s -> %s)", ErrBadAmount, amount, from, to)
	}
	return nil
}

// TxBuffer accumulates postings without touching a ledger. It is not safe
// for concurrent use: each concurrent work unit owns its own buffer and
// the engine flushes them sequentially in canonical unit order.
type TxBuffer struct {
	txs []Tx
}

// Post validates and buffers one transfer.
func (b *TxBuffer) Post(from, to string, amount float64, memo string) error {
	if err := validateTx(from, to, amount); err != nil {
		return err
	}
	b.txs = append(b.txs, Tx{From: from, To: to, Amount: amount, Memo: memo})
	return nil
}

// Len returns how many transfers are buffered.
func (b *TxBuffer) Len() int { return len(b.txs) }

// FlushTo applies the buffered transfers to the ledger in posting order
// and empties the buffer. On a rejected batch the buffer is left intact
// so the caller can inspect what failed to post.
func (b *TxBuffer) FlushTo(l *Ledger) error {
	if len(b.txs) == 0 {
		return nil
	}
	if err := l.PostAll(b.txs); err != nil {
		return err
	}
	b.txs = b.txs[:0]
	return nil
}

// Balance returns an account's balance (0 for unknown accounts).
func (l *Ledger) Balance(account string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.balances[account]
}

// Balances returns a copy of every account balance; the determinism tests
// compare whole-economy snapshots across engine worker counts.
func (l *Ledger) Balances() map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]float64, len(l.balances))
	for k, v := range l.balances {
		out[k] = v
	}
	return out
}

// Sum returns the sum over all balances; it is 0 unless the ledger is
// corrupted.
func (l *Ledger) Sum() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	total := 0.0
	for _, b := range l.balances {
		total += b
	}
	return total
}

// NumTransactions returns how many transfers have been posted.
func (l *Ledger) NumTransactions() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.numTxs
}

// Digest returns an order-sensitive FNV-1a digest of every transfer
// posted so far. Starting from the 64-bit offset basis
// 0xcbf29ce484222325, each transfer hashes From, To and Memo byte-wise,
// each followed by a '|' byte, then XORs in Float64bits(Amount) as one
// 64-bit word and multiplies by the FNV prime. Equal digests mean the
// same postings in the same order (up to hash collisions), which is how
// the determinism tests compare runs.
func (l *Ledger) Digest() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.digest
}

// Account name helpers keep the naming scheme in one place.
func DeveloperAccount(id string) string  { return "dev:" + id }
func IIPAccount(name string) string      { return "iip:" + name }
func AffiliateAccount(pkg string) string { return "affiliate:" + pkg }
func UserAccount(id string) string       { return "user:" + id }
func MediatorAccount(name string) string { return "mediator:" + name }

// ExternalWorld is the funding source account (developer banks, gift-card
// processors).
const ExternalWorld = "external"
