package mediator

import (
	"testing"

	"repro/internal/offers"
)

// BenchmarkPostback compares the two click-tracking paths (DESIGN.md E5):
// "map" is the string-keyed mediator API — Sprintf click ID, global lock,
// map insert per click — and "session" is the per-offer OfferSession the
// day engine uses, where a click is a slice append addressed by ClickRef
// and the string ID is never materialized.
func BenchmarkPostback(b *testing.B) {
	b.Run("map", func(b *testing.B) {
		m := New("bench")
		m.RegisterOffer("offer-1", offers.Registration)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := m.TrackClick("offer-1", "w", 0)
			if _, err := m.Postback(c.ID, EventRegister, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("session", func(b *testing.B) {
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
	})
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
