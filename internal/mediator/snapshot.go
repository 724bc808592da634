package mediator

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/binenc"
)

// Snapshot wire-format versions.
const (
	mediatorSnapshotVersion = 1
	ledgerSnapshotVersion   = 2
)

// errKeyOrder rejects a snapshot whose account or offer names are not
// strictly increasing: EncodeSnapshot writes them sorted and unique, so a
// repeated name would otherwise silently overwrite an earlier entry.
var errKeyOrder = errors.New("mediator: snapshot keys not strictly increasing")

// decodeKey reads the i-th map key and fails dec unless it sorts strictly
// after prev.
func decodeKey(dec *binenc.Dec, i uint64, prev string) string {
	k := dec.Str()
	if i > 0 && k <= prev {
		dec.Fail(errKeyOrder)
	}
	return k
}

// EncodeSnapshot serializes the mediator's mutable counters: the certified
// total and the per-offer click numbering. Offer requirements and click
// states are deliberately excluded — requirements are re-registered by the
// deterministic world build a resume runs first, and historical click
// states are only consulted by the same delivery that minted them, which a
// day-boundary checkpoint can never bisect. Call OfferSession.SyncTo for
// every live session first so session-minted clicks are counted.
func (m *Mediator) EncodeSnapshot() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	enc := binenc.NewEnc(256)
	enc.U8(mediatorSnapshotVersion)
	enc.Varint(int64(m.certified))
	offers := make([]string, 0, len(m.nextClick))
	for offer := range m.nextClick {
		offers = append(offers, offer)
	}
	sort.Strings(offers)
	enc.Uvarint(uint64(len(offers)))
	for _, offer := range offers {
		enc.Str(offer)
		enc.Varint(int64(m.nextClick[offer]))
	}
	return enc.Bytes()
}

// RestoreSnapshot overlays EncodeSnapshot state onto the mediator: the
// certified total is replaced and click numbering resumes where the
// snapshot left it, so sessions resolved after the restore continue the
// exact ID sequence of the checkpointed run.
func (m *Mediator) RestoreSnapshot(data []byte) error {
	dec := binenc.NewDec(data)
	if v := dec.U8(); dec.Err() == nil && v != mediatorSnapshotVersion {
		return fmt.Errorf("mediator: unsupported snapshot version %d", v)
	}
	certified := dec.Varint()
	n := dec.Uvarint()
	// A count beyond the remaining input is corruption — reject it before
	// sizing the map.
	if dec.Err() == nil && n > uint64(dec.Remaining()) {
		return fmt.Errorf("mediator: decoding snapshot: %w", binenc.ErrTooLong)
	}
	next := make(map[string]int, n)
	offer := ""
	for i := uint64(0); i < n && dec.Err() == nil; i++ {
		offer = decodeKey(dec, i, offer)
		next[offer] = int(dec.Varint())
	}
	if err := dec.Done(); err != nil {
		return fmt.Errorf("mediator: decoding snapshot: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.certified = int(certified)
	m.nextClick = next
	return nil
}

// SyncTo folds the session's click numbering back into the mediator so a
// snapshot taken afterwards counts session-minted clicks. The engine calls
// it for every campaign unit at each checkpoint barrier.
func (s *OfferSession) SyncTo(m *Mediator) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v := s.base + len(s.clicks); v > m.nextClick[s.offerID] {
		m.nextClick[s.offerID] = v
	}
}

// EncodeSnapshot serializes the ledger: every balance (sorted by account,
// floats bit-exact), the posting count and the posting Digest.
func (l *Ledger) EncodeSnapshot() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	enc := binenc.NewEnc(1 << 12)
	enc.U8(ledgerSnapshotVersion)
	accounts := make([]string, 0, len(l.balances))
	for acct := range l.balances {
		accounts = append(accounts, acct)
	}
	sort.Strings(accounts)
	enc.Uvarint(uint64(len(accounts)))
	for _, acct := range accounts {
		enc.Str(acct)
		enc.F64(l.balances[acct])
	}
	enc.Uvarint(uint64(l.numTxs))
	enc.U64(l.digest)
	return enc.Bytes()
}

// RestoreSnapshot replaces the ledger's contents with EncodeSnapshot
// state. Balances and the digest are restored bit-exact, so transfers
// posted after the restore accumulate onto the same float bit patterns
// and continue the same digest the original run held.
func (l *Ledger) RestoreSnapshot(data []byte) error {
	dec := binenc.NewDec(data)
	if v := dec.U8(); dec.Err() == nil && v != ledgerSnapshotVersion {
		return fmt.Errorf("mediator: unsupported ledger snapshot version %d", v)
	}
	n := dec.Uvarint()
	if dec.Err() == nil && n > uint64(dec.Remaining()) {
		return fmt.Errorf("mediator: decoding ledger snapshot: %w", binenc.ErrTooLong)
	}
	balances := make(map[string]float64, n)
	acct := ""
	for i := uint64(0); i < n && dec.Err() == nil; i++ {
		acct = decodeKey(dec, i, acct)
		balances[acct] = dec.F64()
	}
	numTxs := dec.Uvarint()
	digest := dec.U64()
	if err := dec.Done(); err != nil {
		return fmt.Errorf("mediator: decoding ledger snapshot: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.balances = balances
	l.numTxs = int(numTxs)
	l.digest = digest
	return nil
}
