package mediator

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/binenc"
	"repro/internal/offers"
)

func TestMediatorSnapshotResumesClickNumbering(t *testing.T) {
	m := New("snaptest")
	m.RegisterOffer("offer-1", offers.NoActivity)
	m.RegisterOffer("offer-2", offers.Usage)
	s1, err := m.Session("offer-1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s1.TrackClick("w", 10)
	}
	if ok, err := s1.Postback(s1.TrackClick("w", 10), EventOpen); err != nil || !ok {
		t.Fatalf("postback = (%v, %v)", ok, err)
	}
	s1.SyncTo(m)
	snap := m.EncodeSnapshot()

	// A fresh mediator (the resume world build re-registers offers) with
	// the snapshot restored continues the exact click ID sequence.
	m2 := New("snaptest")
	m2.RegisterOffer("offer-1", offers.NoActivity)
	m2.RegisterOffer("offer-2", offers.Usage)
	if err := m2.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if got, want := m2.Certified(), m.Certified(); got != want {
		t.Errorf("certified = %d, want %d", got, want)
	}
	s1b, err := m2.Session("offer-1")
	if err != nil {
		t.Fatal(err)
	}
	wantClick, err := s1b.Click(s1b.TrackClick("w", 11))
	if err != nil {
		t.Fatal(err)
	}
	liveClick, err := s1.Click(s1.TrackClick("w", 11))
	if err != nil {
		t.Fatal(err)
	}
	if wantClick.ID != liveClick.ID {
		t.Errorf("post-restore click ID %q, want %q (numbering must continue)", wantClick.ID, liveClick.ID)
	}
	if _, err := m2.Session("offer-2"); err != nil {
		t.Errorf("untouched offer session: %v", err)
	}
}

func TestLedgerSnapshotRoundTrip(t *testing.T) {
	l := NewLedger()
	if err := l.Post("a", "b", 1.25, "first"); err != nil {
		t.Fatal(err)
	}
	if err := l.Post("b", "c", 0.3, "second"); err != nil {
		t.Fatal(err)
	}
	snap := l.EncodeSnapshot()
	l2 := NewLedger()
	if err := l2.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(l2.EncodeSnapshot(), snap) {
		t.Fatal("ledger encode→decode→encode is not byte-identical")
	}
	if got := l2.Balance("b"); got != l.Balance("b") {
		t.Errorf("balance b = %v, want %v", got, l.Balance("b"))
	}
	if got, want := l2.NumTransactions(), 2; got != want {
		t.Errorf("transactions = %d, want %d", got, want)
	}
	if got, want := l2.Digest(), l.Digest(); got != want {
		t.Errorf("digest = %#x, want %#x", got, want)
	}
	// Postings after the restore continue the original digest.
	l.Post("c", "a", 0.05, "third")
	l2.Post("c", "a", 0.05, "third")
	if got, want := l2.Digest(), l.Digest(); got != want {
		t.Errorf("digest after resumed posting = %#x, want %#x", got, want)
	}
	if err := l2.RestoreSnapshot(snap[:len(snap)-1]); err == nil {
		t.Error("truncated ledger snapshot must not decode")
	}
	v1 := append([]byte{1}, snap[1:]...)
	if err := l2.RestoreSnapshot(v1); err == nil {
		t.Error("a version-1 ledger snapshot must be rejected")
	}
}

// ledgerSnap hand-encodes a version-2 ledger snapshot with the accounts
// in the given order, duplicates included.
func ledgerSnap(accounts ...string) []byte {
	enc := binenc.NewEnc(64)
	enc.U8(ledgerSnapshotVersion)
	enc.Uvarint(uint64(len(accounts)))
	for i, acct := range accounts {
		enc.Str(acct)
		enc.F64(float64(i + 1))
	}
	enc.Uvarint(uint64(len(accounts)))
	enc.U64(fnvOffset)
	return enc.Bytes()
}

// mediatorSnap hand-encodes a mediator snapshot with the offers in the
// given order, duplicates included.
func mediatorSnap(offerIDs ...string) []byte {
	enc := binenc.NewEnc(64)
	enc.U8(mediatorSnapshotVersion)
	enc.Varint(0)
	enc.Uvarint(uint64(len(offerIDs)))
	for i, offer := range offerIDs {
		enc.Str(offer)
		enc.Varint(int64(i + 1))
	}
	return enc.Bytes()
}

// TestSnapshotsRejectUnsortedKeys pins the decoders to the encoder's
// canonical form: a repeated or out-of-order account or offer name must
// fail instead of silently overwriting an earlier entry.
func TestSnapshotsRejectUnsortedKeys(t *testing.T) {
	for _, tc := range []struct {
		name string
		keys []string
		want error
	}{
		{"sorted", []string{"", "a", "b"}, nil},
		{"duplicate", []string{"a", "b", "b"}, errKeyOrder},
		{"duplicate empty", []string{"", ""}, errKeyOrder},
		{"unsorted", []string{"b", "a"}, errKeyOrder},
	} {
		t.Run("ledger/"+tc.name, func(t *testing.T) {
			if err := NewLedger().RestoreSnapshot(ledgerSnap(tc.keys...)); !errors.Is(err, tc.want) {
				t.Errorf("RestoreSnapshot = %v, want %v", err, tc.want)
			}
		})
		t.Run("mediator/"+tc.name, func(t *testing.T) {
			if err := New("m").RestoreSnapshot(mediatorSnap(tc.keys...)); !errors.Is(err, tc.want) {
				t.Errorf("RestoreSnapshot = %v, want %v", err, tc.want)
			}
		})
	}
}

// FuzzLedgerSnapshot feeds arbitrary bytes to the ledger decoder. It must
// never panic, never hold more accounts than the input has bytes, and
// re-encode any input it accepts byte-identically.
func FuzzLedgerSnapshot(f *testing.F) {
	l := NewLedger()
	f.Add(l.EncodeSnapshot())
	l.Post(ExternalWorld, DeveloperAccount("d1"), 100, "fund")
	l.Post(DeveloperAccount("d1"), IIPAccount("Fyber"), 30.25, "campaign")
	f.Add(l.EncodeSnapshot())
	f.Add(ledgerSnap("a", "a"))
	f.Fuzz(func(t *testing.T, data []byte) {
		l := NewLedger()
		if err := l.RestoreSnapshot(data); err != nil {
			return
		}
		if n := len(l.Balances()); n > len(data) {
			t.Fatalf("%d accounts from %d bytes", n, len(data))
		}
		if got := l.EncodeSnapshot(); !bytes.Equal(got, data) {
			t.Fatalf("re-encode differs:\n in  %x\n out %x", data, got)
		}
	})
}

// FuzzMediatorSnapshot is FuzzLedgerSnapshot for the mediator's click
// numbering snapshot.
func FuzzMediatorSnapshot(f *testing.F) {
	m := New("fuzz")
	f.Add(m.EncodeSnapshot())
	m.RegisterOffer("offer-1", offers.NoActivity)
	m.RegisterOffer("offer-2", offers.Usage)
	m.TrackClick("offer-1", "w", 0)
	c := m.TrackClick("offer-2", "w", 0)
	if _, err := m.Postback(c.ID, EventUsage, 0); err != nil {
		f.Fatal(err)
	}
	f.Add(m.EncodeSnapshot())
	f.Add(mediatorSnap("o", "o"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := New("fuzz")
		if err := m.RestoreSnapshot(data); err != nil {
			return
		}
		if n := len(m.nextClick); n > len(data) {
			t.Fatalf("%d offers from %d bytes", n, len(data))
		}
		if got := m.EncodeSnapshot(); !bytes.Equal(got, data) {
			t.Fatalf("re-encode differs:\n in  %x\n out %x", data, got)
		}
	})
}
