package mediator

import (
	"errors"
	"math"
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
	a := New("af")
	b := New("af")
	a.TrackClick("o1", "w", 0)
	c1 := a.TrackClick("o2", "w", 0)
	a.TrackClick("o1", "w", 0)
	c2 := a.TrackClick("o2", "w", 0)

	d1 := b.TrackClick("o2", "w", 0)
	b.TrackClick("o1", "w", 0)
	b.TrackClick("o1", "w", 0)
	d2 := b.TrackClick("o2", "w", 0)
	if c1.ID != d1.ID || c2.ID != d2.ID {
		t.Errorf("o2 click IDs depend on cross-offer interleaving: %s/%s vs %s/%s",
			c1.ID, c2.ID, d1.ID, d2.ID)
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
	m.RegisterOffer("offer-1", offers.Registration)
	click := m.TrackClick("offer-1", "worker-9", dates.StudyStart)

	// Opening the app is not enough for a registration offer.
	cert, err := m.Postback(click.ID, EventOpen, dates.StudyStart)
	if err != nil || cert != nil {
		t.Fatalf("open should not certify: cert=%v err=%v", cert, err)
	}
	// Registering completes it.
	cert, err = m.Postback(click.ID, EventRegister, dates.StudyStart.AddDays(1))
	if err != nil {
		t.Fatal(err)
	}
	if cert == nil {
		t.Fatal("registration should certify")
	}
	if cert.Click.Worker != "worker-9" || cert.FeeUSD != 0.03 {
		t.Errorf("certification wrong: %+v", cert)
	}
	if m.Certified() != 1 {
		t.Errorf("certified = %d", m.Certified())
	}
	// Double certification is rejected (anti-fraud).
	_, err = m.Postback(click.ID, EventRegister, dates.StudyStart.AddDays(2))
	if !errors.Is(err, ErrAlreadyCertified) {
		t.Errorf("want ErrAlreadyCertified, got %v", err)
	}
}

func TestAttributionErrors(t *testing.T) {
	m := New("kochava")
	if _, err := m.Postback("ghost", EventOpen, 0); !errors.Is(err, ErrUnknownClick) {
		t.Errorf("want ErrUnknownClick, got %v", err)
	}
	c := m.TrackClick("unregistered-offer", "w", 0)
	if _, err := m.Postback(c.ID, EventOpen, 0); !errors.Is(err, ErrUnknownOfferReq) {
		t.Errorf("want ErrUnknownOfferReq, got %v", err)
	}
}

func TestNoActivityCertifiesOnOpen(t *testing.T) {
	m := New("adjust")
	m.RegisterOffer("o", offers.NoActivity)
	c := m.TrackClick("o", "w", dates.StudyStart)
	cert, err := m.Postback(c.ID, EventOpen, dates.StudyStart)
	if err != nil || cert == nil {
		t.Fatalf("open should certify a no-activity offer: %v %v", cert, err)
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

func TestClickIDsUnique(t *testing.T) {
	m := New("af")
	m.RegisterOffer("o", offers.NoActivity)
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		c := m.TrackClick("o", "w", 0)
		if seen[c.ID] {
			t.Fatal("duplicate click ID")
		}
		seen[c.ID] = true
	}
}
