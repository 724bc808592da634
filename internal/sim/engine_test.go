package sim

import (
	"runtime"
	"testing"

	"repro/internal/playstore"
)

// runFingerprint captures everything the determinism contract covers: the
// run stats, the device-resolved install log, every ledger balance and the
// full transaction sequence, the final charts, and per-app exact installs.
type runFingerprint struct {
	stats    RunStats
	installs []InstallRecord
	balances map[string]float64
	numTxs   int
	txDigest uint64
	charts   map[string][]playstore.ChartEntry
	exact    map[string]int64
}

func fingerprintRun(t *testing.T, workers, maxProcs int) runFingerprint {
	t.Helper()
	if maxProcs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(maxProcs))
	}
	cfg := TinyConfig()
	cfg.Workers = workers
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	fp := runFingerprint{
		stats:    stats,
		installs: collect(t, &w.InstallLog),
		balances: w.Ledger.Balances(),
		numTxs:   w.Ledger.NumTransactions(),
		txDigest: w.Ledger.Digest(),
		charts:   map[string][]playstore.ChartEntry{},
		exact:    map[string]int64{},
	}
	for _, name := range playstore.ChartNames {
		fp.charts[name] = w.Store.Chart(name)
	}
	for _, pkg := range w.Store.Packages() {
		n, err := w.Store.ExactInstalls(pkg)
		if err != nil {
			t.Fatal(err)
		}
		fp.exact[pkg] = n
	}
	return fp
}

func diffFingerprints(t *testing.T, label string, a, b runFingerprint) {
	t.Helper()
	if a.stats != b.stats {
		t.Errorf("%s: run stats differ: %+v vs %+v", label, a.stats, b.stats)
	}
	if len(a.installs) != len(b.installs) {
		t.Fatalf("%s: install log length %d vs %d", label, len(a.installs), len(b.installs))
	}
	for i := range a.installs {
		if a.installs[i] != b.installs[i] {
			t.Fatalf("%s: install log diverges at %d: %+v vs %+v", label, i, a.installs[i], b.installs[i])
		}
	}
	if a.numTxs != b.numTxs {
		t.Errorf("%s: transaction counts differ: %d vs %d", label, a.numTxs, b.numTxs)
	}
	if a.txDigest != b.txDigest {
		t.Errorf("%s: ledger digests differ (posting order or amounts)", label)
	}
	if len(a.balances) != len(b.balances) {
		t.Errorf("%s: balance account counts differ: %d vs %d", label, len(a.balances), len(b.balances))
	}
	for acct, bal := range a.balances {
		if other, ok := b.balances[acct]; !ok || other != bal {
			t.Fatalf("%s: balance %q differs: %v vs %v (bit-exact required)", label, acct, bal, other)
		}
	}
	for name, entries := range a.charts {
		other := b.charts[name]
		if len(entries) != len(other) {
			t.Fatalf("%s: chart %s size %d vs %d", label, name, len(entries), len(other))
		}
		for i := range entries {
			if entries[i] != other[i] {
				t.Fatalf("%s: chart %s diverges at rank %d: %+v vs %+v", label, name, i+1, entries[i], other[i])
			}
		}
	}
	for pkg, n := range a.exact {
		if other, ok := b.exact[pkg]; !ok || other != n {
			t.Fatalf("%s: exact installs for %s differ: %d vs %d", label, pkg, n, other)
		}
	}
}

// TestEngineDeterministicAcrossWorkerCounts is the core contract of the
// parallel engine: the sequential path (Workers=1) and parallel paths of
// any width produce identical RunStats, install logs, ledger state, and
// charts — independent of GOMAXPROCS.
func TestEngineDeterministicAcrossWorkerCounts(t *testing.T) {
	baseline := fingerprintRun(t, 1, 0)
	if baseline.stats.IncentivizedInstalls == 0 || baseline.stats.OrganicInstalls == 0 {
		t.Fatal("baseline run delivered nothing; fingerprint would be vacuous")
	}
	for _, workers := range []int{2, 4, 8} {
		fp := fingerprintRun(t, workers, 0)
		diffFingerprints(t, "workers=1 vs workers="+string(rune('0'+workers)), baseline, fp)
	}
	// Same worker count, repeated: run-to-run stability.
	again := fingerprintRun(t, 4, 0)
	diffFingerprints(t, "workers=4 repeat", fingerprintRun(t, 4, 0), again)
	// GOMAXPROCS must not leak into results.
	restricted := fingerprintRun(t, 4, 2)
	diffFingerprints(t, "GOMAXPROCS=2", baseline, restricted)
}

// TestEngineWorkersConfig checks the pool-width plumbing: explicit widths,
// the GOMAXPROCS default, and widths exceeding the unit count all run.
func TestEngineWorkersConfig(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		cfg := TinyConfig()
		cfg.Workers = workers
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := w.Run()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if stats.Days != cfg.Window.Days() {
			t.Errorf("workers=%d: days = %d, want %d", workers, stats.Days, cfg.Window.Days())
		}
	}
}

// TestEngineGroupsPartitionCampaigns verifies the write-partition
// invariant the determinism model relies on: every campaign appears in
// exactly one developer group, no developer spans two groups, and every
// unit is fully resolved to handles at construction.
func TestEngineGroupsPartitionCampaigns(t *testing.T) {
	w := buildTiny(t)
	eng, err := newEngine(w)
	if err != nil {
		t.Fatal(err)
	}
	seenOffer := map[string]bool{}
	devGroup := map[string]int{}
	total := 0
	for g, group := range eng.groups {
		for _, u := range group {
			c := u.c
			total++
			if seenOffer[c.OfferID] {
				t.Fatalf("offer %s appears in two groups", c.OfferID)
			}
			seenOffer[c.OfferID] = true
			if prev, ok := devGroup[c.Spec.Developer]; ok && prev != g {
				t.Fatalf("developer %s split across groups %d and %d", c.Spec.Developer, prev, g)
			}
			devGroup[c.Spec.Developer] = g
			if u.r == nil || u.session == nil || u.offer == nil || !u.app.Valid() {
				t.Fatalf("unit %s not fully resolved: %+v", c.OfferID, u)
			}
			if u.session.OfferID() != c.OfferID || u.offer.OfferID() != c.OfferID {
				t.Fatalf("unit %s wired to wrong handles (%s / %s)",
					c.OfferID, u.session.OfferID(), u.offer.OfferID())
			}
			if len(u.poolAccts) != len(u.pool) {
				t.Fatalf("unit %s: %d pool accounts for %d workers", c.OfferID, len(u.poolAccts), len(u.pool))
			}
			if u.devAcct == "" || u.iipAcct == "" || u.poolAcct == "" || u.noAffAcct == "" {
				t.Fatalf("unit %s missing interned ledger accounts", c.OfferID)
			}
		}
	}
	if total != len(w.Campaigns) {
		t.Errorf("groups cover %d campaigns, want %d", total, len(w.Campaigns))
	}
}
