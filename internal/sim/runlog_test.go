package sim

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"repro/internal/dates"
	"repro/internal/iip"
	"repro/internal/playstore"
	"repro/internal/stream"
)

// microConfig is a further-shrunken world for the resume matrix: the
// kill-at-every-day test replays O(days^2 / 2) simulated days, so the
// window and catalog stay small while every subsystem (all seven IIPs,
// batch and full-fidelity deliveries, enforcement, charts) stays active.
func microConfig() Config {
	cfg := TinyConfig()
	cfg.BaselineApps = 12
	cfg.BackgroundApps = 18
	cfg.AppsPerIIP = map[string]int{
		iip.RankApp:      4,
		iip.AyetStudios:  8,
		iip.Fyber:        8,
		iip.AdscendMedia: 3,
		iip.AdGem:        2,
		iip.HangMyAds:    2,
		iip.OfferToro:    4,
	}
	cfg.TotalAdvertised = 24
	cfg.OffersTarget = 50
	cfg.WorkerPoolSize = 60
	cfg.ChartSize = 10
	cfg.Window.End = cfg.Window.Start.AddDays(11)
	return cfg
}

// loggedRun executes a fresh world with an event log attached, returning
// the log bytes, the stats, and the world for state comparison.
func loggedRun(t *testing.T, cfg Config, o RunOptions) ([]byte, RunStats, *World) {
	t.Helper()
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	log, err := w.NewRunLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	o.Log = log
	stats, err := w.RunOpts(o)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), stats, w
}

// TestRunLogIdenticalAcrossWorkerCounts extends the engine's determinism
// contract to the event log: the bytes on disk are bit-identical no
// matter how many workers produced them.
func TestRunLogIdenticalAcrossWorkerCounts(t *testing.T) {
	cfg := microConfig()
	cfg.Workers = 1
	serial, serialStats, _ := loggedRun(t, cfg, RunOptions{})
	cfg.Workers = 5
	parallel, parallelStats, _ := loggedRun(t, cfg, RunOptions{})
	if serialStats != parallelStats {
		t.Errorf("stats differ across worker counts: %+v vs %+v", serialStats, parallelStats)
	}
	if !bytes.Equal(serial, parallel) {
		for i := range serial {
			if i >= len(parallel) || serial[i] != parallel[i] {
				t.Fatalf("log bytes diverge at offset %d of %d/%d", i, len(serial), len(parallel))
			}
		}
		t.Fatalf("log lengths differ: %d vs %d", len(serial), len(parallel))
	}
}

// TestReplayMatchesLive is the replay-equivalence golden: a logged
// TinyConfig run is rebuilt from the log alone, and the result must
// reproduce the live run bit-for-bit — including the PR-1/PR-2 golden
// constants (RunStats, install log, transaction sequence, balances,
// charts) and byte-identical store/ledger snapshots.
func TestReplayMatchesLive(t *testing.T) {
	logBytes, stats, w := loggedRun(t, TinyConfig(), RunOptions{})

	res, err := stream.Replay(bytes.NewReader(logBytes))
	if err != nil {
		t.Fatal(err)
	}

	// Live equality, bit-exact and whole-state.
	if res.Stats.Days != stats.Days ||
		res.Stats.OrganicInstalls != stats.OrganicInstalls ||
		res.Stats.IncentivizedInstalls != stats.IncentivizedInstalls ||
		res.Stats.CertifiedCompletions != stats.CertifiedCompletions ||
		math.Float64bits(res.Stats.RevenueUSD) != math.Float64bits(stats.RevenueUSD) {
		t.Errorf("replayed stats %+v, live %+v", res.Stats, stats)
	}
	if !bytes.Equal(res.Store.EncodeSnapshot(), w.Store.EncodeSnapshot()) {
		t.Error("replayed store snapshot differs from live store")
	}
	if !bytes.Equal(res.Ledger.EncodeSnapshot(), w.Ledger.EncodeSnapshot()) {
		t.Error("replayed ledger snapshot differs from live ledger")
	}
	live := collect(t, &w.InstallLog)
	if len(res.Installs) != len(live) {
		t.Fatalf("replayed install log has %d records, live %d", len(res.Installs), len(live))
	}
	for i := range res.Installs {
		rec := InstallRecord{Device: res.Installs[i].Device, App: res.Installs[i].App, Day: res.Installs[i].Day}
		if rec != live[i] {
			t.Fatalf("install log diverges at %d: %+v vs %+v", i, rec, live[i])
		}
	}

	// Golden equality: the same constants the storage-refactor equivalence
	// test locks (TinyConfig, default seed), recomputed from the replayed
	// state alone.
	check := func(what string, got, want uint64) {
		if got != want {
			t.Errorf("replayed %s = %#x, want golden %#x", what, got, want)
		}
	}
	check("days", uint64(res.Stats.Days), goldenDays)
	check("organic installs", uint64(res.Stats.OrganicInstalls), goldenOrganic)
	check("incentivized installs", uint64(res.Stats.IncentivizedInstalls), goldenIncentivized)
	check("certified completions", uint64(res.Stats.CertifiedCompletions), goldenCertified)
	check("revenue bits", math.Float64bits(res.Stats.RevenueUSD), goldenRevenueBits)

	installHash := newFnv()
	for _, rec := range res.Installs {
		installHash.str(rec.Device)
		installHash.str(rec.App)
		installHash.u64(uint64(rec.Day))
	}
	check("install log length", uint64(len(res.Installs)), goldenInstallLogLen)
	check("install log hash", uint64(installHash), goldenInstallLogHash)

	check("num transactions", uint64(res.Ledger.NumTransactions()), goldenNumTxs)
	check("transaction hash", res.Ledger.Digest(), goldenTxHash)

	balances := res.Ledger.Balances()
	accounts := make([]string, 0, len(balances))
	for acct := range balances {
		accounts = append(accounts, acct)
	}
	sort.Strings(accounts)
	balHash := newFnv()
	for _, acct := range accounts {
		balHash.str(acct)
		balHash.u64(math.Float64bits(balances[acct]))
	}
	check("balances hash", uint64(balHash), goldenBalancesHash)

	wantChart := map[string][2]uint64{
		playstore.ChartTopFree:     {goldenTopFreeLen, goldenTopFreeHash},
		playstore.ChartTopGames:    {goldenTopGamesLen, goldenTopGamesHash},
		playstore.ChartTopGrossing: {goldenTopGrossingLen, goldenTopGrossingHash},
	}
	for _, name := range playstore.ChartNames {
		entries := res.Store.Chart(name)
		h := newFnv()
		for _, e := range entries {
			h.u64(uint64(e.Rank))
			h.str(e.Package)
			h.u64(math.Float64bits(e.Score))
		}
		check("chart "+name+" length", uint64(len(entries)), wantChart[name][0])
		check("chart "+name+" hash", uint64(h), wantChart[name][1])
	}
}

// TestResumeBitIdentical kills the run at every day boundary: resuming
// from each day's checkpoint must produce (a) the exact remaining event
// log bytes the uninterrupted run wrote, (b) identical final stats, and
// (c) byte-identical final store/ledger snapshots.
func TestResumeBitIdentical(t *testing.T) {
	cfg := microConfig()
	var cps []*stream.Checkpoint
	liveLog, liveStats, liveWorld := loggedRun(t, cfg, RunOptions{
		CheckpointEvery: 1,
		Checkpoint: func(cp *stream.Checkpoint) error {
			// Round-trip through the codec so the matrix also exercises
			// encode/decode of real checkpoints.
			decoded, err := stream.DecodeCheckpoint(cp.Encode())
			if err != nil {
				return err
			}
			cps = append(cps, decoded)
			return nil
		},
	})
	liveStore := liveWorld.Store.EncodeSnapshot()
	liveLedger := liveWorld.Ledger.EncodeSnapshot()
	if len(cps) != liveStats.Days {
		t.Fatalf("captured %d checkpoints, want %d", len(cps), liveStats.Days)
	}

	for _, cp := range cps {
		w2, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var rest bytes.Buffer
		stats2, err := w2.RunOpts(RunOptions{
			Resume: cp,
			Log:    w2.ResumeRunLog(&rest, cp),
		})
		if err != nil {
			t.Fatalf("resume from %s: %v", cp.Day, err)
		}
		if stats2 != liveStats {
			t.Errorf("resume from %s: stats %+v, want %+v", cp.Day, stats2, liveStats)
		}
		if !bytes.Equal(rest.Bytes(), liveLog[cp.LogOffset:]) {
			t.Errorf("resume from %s: remaining log bytes differ (%d vs %d bytes)",
				cp.Day, rest.Len(), int64(len(liveLog))-cp.LogOffset)
		}
		if !bytes.Equal(w2.Store.EncodeSnapshot(), liveStore) {
			t.Errorf("resume from %s: final store differs", cp.Day)
		}
		if !bytes.Equal(w2.Ledger.EncodeSnapshot(), liveLedger) {
			t.Errorf("resume from %s: final ledger differs", cp.Day)
		}
	}

	// The killed-run story end to end: a log truncated at a checkpoint
	// boundary plus the resumed suffix replays cleanly.
	mid := cps[len(cps)/2]
	w3, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rest bytes.Buffer
	if _, err := w3.RunOpts(RunOptions{Resume: mid, Log: w3.ResumeRunLog(&rest, mid)}); err != nil {
		t.Fatal(err)
	}
	stitched := append(append([]byte(nil), liveLog[:mid.LogOffset]...), rest.Bytes()...)
	res, err := stream.Replay(bytes.NewReader(stitched))
	if err != nil {
		t.Fatalf("replaying stitched log: %v", err)
	}
	if int64(res.Stats.OrganicInstalls) != liveStats.OrganicInstalls || res.Stats.Days != liveStats.Days {
		t.Errorf("stitched replay stats %+v, want %+v", res.Stats, liveStats)
	}
}

// TestRunLogDisabledIsNoop guards the zero-overhead path: a run without a
// log writer produces identical results to one with it (the log changes
// nothing observable) and the engine allocates no encoders.
func TestRunLogDisabledIsNoop(t *testing.T) {
	cfg := microConfig()
	_, loggedStats, loggedWorld := loggedRun(t, cfg, RunOptions{})
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats != loggedStats {
		t.Errorf("logging changed run stats: %+v vs %+v", stats, loggedStats)
	}
	if !bytes.Equal(w.Store.EncodeSnapshot(), loggedWorld.Store.EncodeSnapshot()) {
		t.Error("logging changed store state")
	}
}

// TestResumeRejectsForeignCheckpoint: a checkpoint from a different
// config/seed must fail loudly, not resume silently wrong.
func TestResumeRejectsForeignCheckpoint(t *testing.T) {
	cfg := microConfig()
	var cps []*stream.Checkpoint
	_, _, _ = loggedRun(t, cfg, RunOptions{
		CheckpointEvery: 1,
		Checkpoint: func(cp *stream.Checkpoint) error {
			if len(cps) == 0 {
				cps = append(cps, cp)
			}
			return nil
		},
	})
	other := microConfig()
	other.Seed = cfg.Seed + 1
	w, err := NewWorld(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunOpts(RunOptions{Resume: cps[0]}); err == nil {
		t.Error("resuming a different world from this checkpoint must fail")
	}
}

// TestResumeRejectsCheckpointOutsideWindow: a checkpoint that passes its
// CRC but is dated outside the window, or whose day count disagrees with
// its date, must be refused by ValidateResume, Restore and RunOpts alike
// — and the refusal must overlay nothing onto the world.
func TestResumeRejectsCheckpointOutsideWindow(t *testing.T) {
	cfg := microConfig()
	var cp *stream.Checkpoint
	_, _, _ = loggedRun(t, cfg, RunOptions{
		CheckpointEvery: 5,
		Checkpoint: func(c *stream.Checkpoint) error {
			if cp == nil {
				cp = c
			}
			return nil
		},
	})
	win := cfg.Window
	daysAt := func(d dates.Date) int64 { return int64(d.DaysSince(win.Start) + 1) }
	for _, tc := range []struct {
		name string
		edit func(c *stream.Checkpoint)
	}{
		{"day before start", func(c *stream.Checkpoint) { c.Day = win.Start.AddDays(-1); c.Days = daysAt(c.Day) }},
		{"day after end", func(c *stream.Checkpoint) { c.Day = win.End.AddDays(30); c.Days = daysAt(c.Day) }},
		{"days mismatch", func(c *stream.Checkpoint) { c.Days++ }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			edited := *cp
			tc.edit(&edited)
			// Re-encode so the CRC is valid: only the semantics are wrong.
			bad, err := stream.DecodeCheckpoint(edited.Encode())
			if err != nil {
				t.Fatal(err)
			}
			w, err := NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ledger, store := w.Ledger.Digest(), w.Store.EncodeSnapshot()
			if err := w.ValidateResume(bad); err == nil {
				t.Error("ValidateResume accepted the checkpoint")
			}
			if err := w.Restore(bad); err == nil {
				t.Error("Restore accepted the checkpoint")
			}
			if _, err := w.RunOpts(RunOptions{Resume: bad}); err == nil {
				t.Error("RunOpts resumed from the checkpoint")
			}
			if w.Ledger.Digest() != ledger {
				t.Error("a rejected checkpoint overlaid the ledger")
			}
			if !bytes.Equal(w.Store.EncodeSnapshot(), store) {
				t.Error("a rejected checkpoint overlaid the store")
			}
		})
	}
}

// TestResumeTwiceFromSameCheckpoint: a world object reused for a second
// resume from the same checkpoint must restore afresh (not replay days on
// top of the first resume's mutations) — the retry-after-failure path.
func TestResumeTwiceFromSameCheckpoint(t *testing.T) {
	cfg := microConfig()
	var cp *stream.Checkpoint
	_, liveStats, _ := loggedRun(t, cfg, RunOptions{
		CheckpointEvery: 5,
		Checkpoint: func(c *stream.Checkpoint) error {
			cp = c
			return nil
		},
	})
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats1, err := w.RunOpts(RunOptions{Resume: cp})
	if err != nil {
		t.Fatal(err)
	}
	snap1 := w.Store.EncodeSnapshot()
	stats2, err := w.RunOpts(RunOptions{Resume: cp})
	if err != nil {
		t.Fatal(err)
	}
	if stats1 != liveStats || stats2 != stats1 {
		t.Errorf("stats: live %+v, first resume %+v, second resume %+v", liveStats, stats1, stats2)
	}
	if !bytes.Equal(w.Store.EncodeSnapshot(), snap1) {
		t.Error("second resume from the same checkpoint diverged (stale restore marker?)")
	}
}
