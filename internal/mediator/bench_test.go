package mediator

import (
	"testing"

	"repro/internal/offers"
)

// BenchmarkPostback measures the day engine's click-tracking path
// (DESIGN.md E5): one click minted on a per-offer OfferSession — a slice
// append addressed by ClickRef, the string ID never materialized — and
// its certifying postback.
func BenchmarkPostback(b *testing.B) {
	m := New("bench")
	m.RegisterOffer("offer-1", offers.Registration)
	s, err := m.Session("offer-1")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref := s.TrackClick("w", 0)
		if ok, err := s.Postback(ref, EventRegister); err != nil || !ok {
			b.Fatalf("postback = (%v, %v)", ok, err)
		}
	}
}

// BenchmarkLedgerPost measures one buffered posting plus its amortized
// flush, with account names interned once the way the engine posts them.
func BenchmarkLedgerPost(b *testing.B) {
	dev := DeveloperAccount("adv-dev-00042")
	iipAcct := IIPAccount("fyber")
	var buf TxBuffer
	l := NewLedger()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := buf.Post(dev, iipAcct, 0.17, "offer completion"); err != nil {
			b.Fatal(err)
		}
		if buf.Len() >= 4096 {
			if err := buf.FlushTo(l); err != nil {
				b.Fatal(err)
			}
		}
	}
}
