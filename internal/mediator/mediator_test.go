package mediator

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/dates"
	"repro/internal/offers"
)

func TestLedgerPostAndBalances(t *testing.T) {
	l := NewLedger()
	if err := l.Post(ExternalWorld, DeveloperAccount("d1"), 100, "funding"); err != nil {
		t.Fatal(err)
	}
	if err := l.Post(DeveloperAccount("d1"), IIPAccount("Fyber"), 30, "campaign"); err != nil {
		t.Fatal(err)
	}
	if got := l.Balance(DeveloperAccount("d1")); got != 70 {
		t.Errorf("dev balance = %g, want 70", got)
	}
	if got := l.Balance(IIPAccount("Fyber")); got != 30 {
		t.Errorf("iip balance = %g, want 30", got)
	}
	if got := l.Balance(ExternalWorld); got != -100 {
		t.Errorf("external = %g, want -100", got)
	}
	if l.NumTransactions() != 2 {
		t.Errorf("txs = %d", l.NumTransactions())
	}
}

func TestLedgerRejectsBadAmounts(t *testing.T) {
	l := NewLedger()
	if err := l.Post("a", "b", 0, ""); !errors.Is(err, ErrBadAmount) {
		t.Error("zero transfer should fail")
	}
	if err := l.Post("a", "b", -5, ""); !errors.Is(err, ErrBadAmount) {
		t.Error("negative transfer should fail")
	}
}

// Property: any sequence of valid transfers conserves money (sum == 0).
func TestLedgerConservation(t *testing.T) {
	f := func(moves []struct {
		From, To uint8
		Cents    uint16
	}) bool {
		l := NewLedger()
		accounts := []string{"a", "b", "c", "d", ExternalWorld}
		for _, mv := range moves {
			amt := float64(mv.Cents) / 100
			if amt <= 0 {
				continue
			}
			from := accounts[int(mv.From)%len(accounts)]
			to := accounts[int(mv.To)%len(accounts)]
			if err := l.Post(from, to, amt, "fuzz"); err != nil {
				return false
			}
		}
		return math.Abs(l.Sum()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLedgerConcurrent(t *testing.T) {
	l := NewLedger()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				l.Post("a", "b", 1, "")
			}
		}()
	}
	wg.Wait()
	if got := l.Balance("b"); got != 1600 {
		t.Errorf("b = %g, want 1600", got)
	}
	if got := l.Sum(); math.Abs(got) > 1e-9 {
		t.Errorf("sum = %g", got)
	}
}

// TestTxBufferDeferredFlush covers the engine's buffered-settlement path:
// validation is eager, application is deferred, and FlushTo preserves
// posting order so replays are bit-identical.
func TestTxBufferDeferredFlush(t *testing.T) {
	l := NewLedger()
	var b TxBuffer
	if err := b.Post("a", "b", -1, "bad"); !errors.Is(err, ErrBadAmount) {
		t.Error("buffer must validate eagerly")
	}
	if err := b.Post(ExternalWorld, "a", 10, "fund"); err != nil {
		t.Fatal(err)
	}
	if err := b.Post("a", "b", 4, "pay"); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Errorf("buffered = %d, want 2", b.Len())
	}
	if l.NumTransactions() != 0 {
		t.Error("buffered postings must not touch the ledger before flush")
	}
	if err := b.FlushTo(l); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Error("flush must empty the buffer")
	}
	direct, swapped := NewLedger(), NewLedger()
	direct.Post(ExternalWorld, "a", 10, "fund")
	direct.Post("a", "b", 4, "pay")
	if l.Digest() != direct.Digest() {
		t.Errorf("flushed digest %#x, want %#x from the same posts made directly", l.Digest(), direct.Digest())
	}
	swapped.Post("a", "b", 4, "pay")
	swapped.Post(ExternalWorld, "a", 10, "fund")
	if swapped.Digest() == direct.Digest() {
		t.Error("digest must depend on posting order")
	}
	if got := l.Balance("a"); got != 6 {
		t.Errorf("a = %g, want 6", got)
	}
	if bal := l.Balances(); bal["b"] != 4 || len(bal) != 3 {
		t.Errorf("Balances snapshot wrong: %v", bal)
	}
	if math.Abs(l.Sum()) > 1e-9 {
		t.Errorf("sum = %g", l.Sum())
	}
}

func TestPostAllRejectsInvalidBatchAtomically(t *testing.T) {
	l := NewLedger()
	before := l.Digest()
	err := l.PostAll([]Tx{
		{From: "a", To: "b", Amount: 5, Memo: "ok"},
		{From: "b", To: "c", Amount: -2, Memo: "bad"},
	})
	if !errors.Is(err, ErrBadAmount) {
		t.Fatalf("want ErrBadAmount, got %v", err)
	}
	if l.NumTransactions() != 0 {
		t.Error("an invalid batch must apply nothing")
	}
	if l.Digest() != before {
		t.Error("an invalid batch must leave the digest unchanged")
	}
}

func TestClickIDsPerOfferDeterministic(t *testing.T) {
	// Interleaving clicks across offers must not change any offer's own
	// ID sequence — the property the parallel engine relies on.
	o2IDs := func(order string) []string {
		m := New("af")
		sessions := map[rune]*OfferSession{}
		for _, o := range "12" {
			id := "o" + string(o)
			m.RegisterOffer(id, offers.NoActivity)
			s, err := m.Session(id)
			if err != nil {
				t.Fatal(err)
			}
			sessions[o] = s
		}
		var ids []string
		for _, o := range order {
			ref := sessions[o].TrackClick("w", 0)
			if o != '2' {
				continue
			}
			c, err := sessions[o].Click(ref)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, c.ID)
		}
		return ids
	}
	a, b := o2IDs("1212"), o2IDs("2112")
	if len(a) != 2 || a[0] != b[0] || a[1] != b[1] {
		t.Errorf("o2 click IDs depend on cross-offer interleaving: %v vs %v", a, b)
	}
}

func TestRequiredEvent(t *testing.T) {
	cases := []struct {
		tp   offers.Type
		want EventType
	}{
		{offers.NoActivity, EventOpen},
		{offers.Registration, EventRegister},
		{offers.Usage, EventUsage},
		{offers.Purchase, EventPurchase},
	}
	for _, c := range cases {
		if got := RequiredEvent(c.tp); got != c.want {
			t.Errorf("RequiredEvent(%v) = %v, want %v", c.tp, got, c.want)
		}
	}
}

func TestAttributionLifecycle(t *testing.T) {
	m := New("appsflyer")
	if m.FeePerUser != 0.03 {
		t.Errorf("default fee = %v, want AppsFlyer's $0.03/user", m.FeePerUser)
	}
	m.RegisterOffer("offer-1", offers.Registration)
	s, err := m.Session("offer-1")
	if err != nil {
		t.Fatal(err)
	}
	ref := s.TrackClick("worker-9", dates.StudyStart)

	// Opening the app is not enough for a registration offer.
	if ok, err := s.Postback(ref, EventOpen); err != nil || ok {
		t.Fatalf("open should not certify: ok=%v err=%v", ok, err)
	}
	// Registering completes it, and the certified click materializes
	// with the worker and day it was tracked under.
	if ok, err := s.Postback(ref, EventRegister); err != nil || !ok {
		t.Fatalf("registration should certify: ok=%v err=%v", ok, err)
	}
	click, err := s.Click(ref)
	if err != nil {
		t.Fatal(err)
	}
	if click.Worker != "worker-9" || click.Day != dates.StudyStart || click.OfferID != "offer-1" {
		t.Errorf("certified click wrong: %+v", click)
	}
	m.AddCertified(1)
	if m.Certified() != 1 {
		t.Errorf("certified = %d", m.Certified())
	}
	// Double certification is rejected (anti-fraud).
	if _, err := s.Postback(ref, EventRegister); !errors.Is(err, ErrAlreadyCertified) {
		t.Errorf("want ErrAlreadyCertified, got %v", err)
	}
}

// TestAttributionErrors checks each attribution error matches its
// sentinel and names the offer (and click) it concerns.
func TestAttributionErrors(t *testing.T) {
	m := New("kochava")
	_, err := m.Session("unregistered-offer")
	if !errors.Is(err, ErrUnknownOfferReq) || !strings.Contains(err.Error(), "unregistered-offer") {
		t.Errorf("unknown offer: got %v", err)
	}
	m.RegisterOffer("o", offers.NoActivity)
	s, err := m.Session("o")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Click(ClickRef{Offer: "o", Index: 0}); !errors.Is(err, ErrUnknownClick) || !strings.Contains(err.Error(), "o index 0") {
		t.Errorf("unknown click: got %v", err)
	}
	ref := s.TrackClick("w", 0)
	if _, err := s.Postback(ref, EventOpen); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Postback(ref, EventOpen); !errors.Is(err, ErrAlreadyCertified) || !strings.Contains(err.Error(), "kochava-o-c000001") {
		t.Errorf("double certify: got %v", err)
	}
}

func TestNoActivityCertifiesOnOpen(t *testing.T) {
	m := New("adjust")
	m.RegisterOffer("o", offers.NoActivity)
	s, err := m.Session("o")
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Postback(s.TrackClick("w", dates.StudyStart), EventOpen); err != nil || !ok {
		t.Fatalf("open should certify a no-activity offer: ok=%v err=%v", ok, err)
	}
}

func TestEventTypeString(t *testing.T) {
	if EventOpen.String() != "open" || EventPurchase.String() != "purchase" {
		t.Error("event strings wrong")
	}
	if EventType(42).String() != "event(42)" {
		t.Error("unknown event string wrong")
	}
}

// TestClickIDsUnique mints clicks through two successive sessions of one
// offer: once the first is folded back with SyncTo, the second continues
// its numbering, so no ID repeats.
func TestClickIDsUnique(t *testing.T) {
	m := New("af")
	m.RegisterOffer("o", offers.NoActivity)
	seen := map[string]bool{}
	for range 2 {
		s, err := m.Session("o")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			c, err := s.Click(s.TrackClick("w", 0))
			if err != nil {
				t.Fatal(err)
			}
			if seen[c.ID] {
				t.Fatalf("duplicate click ID %s", c.ID)
			}
			seen[c.ID] = true
		}
		s.SyncTo(m)
	}
}
