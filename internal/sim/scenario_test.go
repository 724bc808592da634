package sim

import (
	"math"
	"sort"
	"testing"

	"repro/internal/scenario"
)

// TestPaperBaselineScenarioMatchesGoldens pins the scenario layer's
// central promise: materializing the `paper-baseline` spec produces a
// world bit-identical to TinyConfig — the same RunStats the PR-1/PR-2
// equivalence goldens lock, without regeneration. Any strategy hook that
// consumes one extra random draw on the baseline path shows up here.
func TestPaperBaselineScenarioMatchesGoldens(t *testing.T) {
	sp, ok := scenario.Lookup("paper-baseline")
	if !ok {
		t.Fatal("paper-baseline not registered")
	}
	cfg, err := ConfigForSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, got, want uint64) {
		if got != want {
			t.Errorf("%s = %d, want %d (paper-baseline diverged from the goldens)", what, got, want)
		}
	}
	check("days", uint64(stats.Days), goldenDays)
	check("organic installs", uint64(stats.OrganicInstalls), goldenOrganic)
	check("incentivized installs", uint64(stats.IncentivizedInstalls), goldenIncentivized)
	check("certified completions", uint64(stats.CertifiedCompletions), goldenCertified)
	if bits := math.Float64bits(stats.RevenueUSD); bits != goldenRevenueBits {
		t.Errorf("revenue bits = %#x, want %#x", bits, goldenRevenueBits)
	}
	check("install log length", uint64(w.InstallLog.Len()), goldenInstallLogLen)
	installHash := newFnv()
	for rec := range w.InstallLog.All() {
		installHash.str(rec.Device)
		installHash.str(rec.App)
		installHash.u64(uint64(rec.Day))
	}
	check("install log hash", uint64(installHash), goldenInstallLogHash)
}

// scenarioFingerprint is the cross-worker-count digest for adversarial
// scenarios: run stats, the device-resolved install log, and the ordered
// posting digest — everything the determinism contract covers that an
// adversary strategy can influence.
type scenarioFingerprint struct {
	stats       RunStats
	installHash uint64
	txHash      uint64
	balHash     uint64
}

func fingerprintScenario(t *testing.T, name string, workers int) scenarioFingerprint {
	t.Helper()
	sp, ok := scenario.Lookup(name)
	if !ok {
		t.Fatalf("scenario %s not registered", name)
	}
	// Shrink the window so the whole registry stays fast; the strategies'
	// epoch logic (weekly rotations, 8-day bursts) still cycles twice.
	sp.World.WindowDays = 24
	cfg, err := ConfigForSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = workers
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	fp := scenarioFingerprint{stats: stats}
	h := newFnv()
	for rec := range w.InstallLog.All() {
		h.str(rec.Device)
		h.str(rec.App)
		h.u64(uint64(rec.Day))
	}
	fp.installHash = uint64(h)
	fp.txHash = w.Ledger.Digest()
	balances := w.Ledger.Balances()
	accounts := make([]string, 0, len(balances))
	for acct := range balances {
		accounts = append(accounts, acct)
	}
	sort.Strings(accounts)
	h = newFnv()
	for _, acct := range accounts {
		h.str(acct)
		h.u64(math.Float64bits(balances[acct]))
	}
	fp.balHash = uint64(h)
	return fp
}

// TestScenariosDeterministicAcrossWorkerCounts extends the engine's core
// contract to every registered scenario: each adversary strategy must
// produce identical results at any worker-pool width, because its draws
// come only from streams its own unit owns. A strategy that read shared
// state or a worker-local stream would diverge here.
func TestScenariosDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, name := range scenario.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			serial := fingerprintScenario(t, name, 1)
			if serial.stats.IncentivizedInstalls == 0 {
				t.Fatalf("%s delivered nothing; fingerprint would be vacuous", name)
			}
			pooled := fingerprintScenario(t, name, 4)
			if serial != pooled {
				t.Fatalf("%s diverges across worker counts:\n  workers=1: %+v\n  workers=4: %+v",
					name, serial, pooled)
			}
		})
	}
}

// TestScenarioRunLogIdenticalAcrossWorkerCounts asserts the run-log tap
// stays byte-stable for an adversarial scenario too (device-churn writes
// inline device strings through the fallback path, the one place the
// encoder layout differs from baseline).
func TestScenarioRunLogIdenticalAcrossWorkerCounts(t *testing.T) {
	logBytes := func(workers int) []byte {
		sp, _ := scenario.Lookup("device-churn")
		sp.World.WindowDays = 16
		cfg, err := ConfigForSpec(sp)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = workers
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf writableBuffer
		runLog, err := w.NewRunLog(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.RunOpts(RunOptions{Log: runLog}); err != nil {
			t.Fatal(err)
		}
		return buf.b
	}
	a, b := logBytes(1), logBytes(4)
	if len(a) == 0 {
		t.Fatal("empty run log")
	}
	if string(a) != string(b) {
		t.Fatalf("device-churn run log differs across worker counts (%d vs %d bytes)", len(a), len(b))
	}
}

type writableBuffer struct{ b []byte }

func (w *writableBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}
