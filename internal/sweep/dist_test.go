package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dates"
	"repro/internal/fault"
)

// startCoordinator serves a coordinator over real HTTP and drains it on a
// background goroutine; the returned wait collects the final result.
func startCoordinator(t *testing.T, opts Options, qc QueueConfig) (*Coordinator, string, func() (*Result, error)) {
	t.Helper()
	co, err := NewCoordinator(opts, qc)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(co.Handler())
	t.Cleanup(srv.Close)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	type outcome struct {
		res *Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := co.Run(ctx)
		ch <- outcome{res, err}
	}()
	return co, srv.URL, func() (*Result, error) {
		o := <-ch
		return o.res, o.err
	}
}

// TestCoordinatorRejectsOversizedBodies posts a valid JSON body holding a
// string longer than maxRequestBytes to every worker endpoint: each must
// answer 413 instead of buffering the whole body.
func TestCoordinatorRejectsOversizedBodies(t *testing.T) {
	co, err := NewCoordinator(Options{Scenarios: []string{"paper-baseline"}, Seeds: []uint64{1}},
		QueueConfig{Lease: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	body := `{"lease_id":"` + strings.Repeat("x", maxRequestBytes+1) + `"}`
	for _, path := range []string{"/v1/lease", "/v1/heartbeat", "/v1/complete", "/v1/fail"} {
		t.Run(strings.TrimPrefix(path, "/v1/"), func(t *testing.T) {
			rec := httptest.NewRecorder()
			co.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("POST %s with a %d-byte body = %d, want 413", path, len(body), rec.Code)
			}
		})
	}
}

func marshalResult(t *testing.T, res *Result) []byte {
	t.Helper()
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestDistributedMatchesInProcess is the distributed sweep's acceptance
// bar: two worker processes (in-process Worker loops over real HTTP,
// spooled cell runs) must produce a Result byte-identical to the plain
// in-process Run of the same grid — the determinism contract, end to end
// through the lease protocol, the spooled run log, and pure assembly.
func TestDistributedMatchesInProcess(t *testing.T) {
	names := []string{microName(t, "paper-baseline"), microName(t, "jitter")}
	opts := Options{Scenarios: names, Seeds: []uint64{20190301, 20190401}}

	ref, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}

	co, url, wait := startCoordinator(t, opts, QueueConfig{Lease: 30 * time.Second})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wk := &Worker{
				Client:  &Client{BaseURL: url},
				Name:    fmt.Sprintf("w%d", i),
				Runner:  CellRunner{SpoolDir: t.TempDir()},
				PollMax: 20 * time.Millisecond,
			}
			if err := wk.Run(context.Background()); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	res, err := wait()
	if err != nil {
		t.Fatal(err)
	}

	if got, want := marshalResult(t, res), marshalResult(t, ref); !bytes.Equal(got, want) {
		t.Errorf("distributed result diverges from in-process run:\n--- distributed ---\n%s\n--- in-process ---\n%s", got, want)
	}
	p := co.Progress()
	if p.Done != 4 || p.Mismatches != 0 {
		t.Errorf("progress = %+v", p)
	}
}

// TestDistributedSweepChaos runs the full grid under injected failure —
// workers killed mid-cell at day barriers, torn run-log writes, dropped
// protocol requests — restarting a fresh worker incarnation over the same
// spool after each death, and asserts the recovery machinery restores the
// exact bytes: the aggregate equals the fault-free in-process run, and
// the per-cell day accounting proves killed cells were resumed from their
// checkpoints, not restarted.
func TestDistributedSweepChaos(t *testing.T) {
	names := []string{microName(t, "paper-baseline"), microName(t, "sybil-split")}
	opts := Options{Scenarios: names, Seeds: []uint64{20190301, 20190401}}
	const windowDays = 20 // micro scenarios simulate a 20-day window

	clean, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}

	// The lease must comfortably exceed the gap between lease grant and
	// the first day-barrier heartbeat (world build + possible resume
	// re-ingest), or live workers expire and the grid livelocks.
	leaseFor := 3 * time.Second
	co, url, wait := startCoordinator(t, opts, QueueConfig{
		Lease:       leaseFor,
		MaxAttempts: 12,
		RetryBase:   10 * time.Millisecond,
		RetryCap:    50 * time.Millisecond,
		Seed:        1,
	})

	// Every incarnation shares one spool: a successor finds its
	// predecessor's torn log and checkpoints exactly as a restarted
	// process on the same host would.
	spool := t.TempDir()
	kills := 4 // planned mid-cell deaths at day barriers
	torn := 3  // incarnations whose log writes may tear (each dies at most once either way)
	const maxIncarnations = 60
	incarnations := 0
	for i := 0; ; i++ {
		if i >= maxIncarnations {
			t.Fatalf("grid not drained after %d worker incarnations: %+v", i, co.Progress())
		}
		incarnations++

		// The first few incarnations may die of a torn log write before
		// their day-barrier kill fires; the probability is per Write call,
		// so it must stay tiny or nothing ever reaches a checkpoint. Later
		// incarnations run clean so the grid always drains.
		var injector *fault.Injector
		if torn > 0 {
			torn--
			injector = fault.New(fault.Config{Seed: uint64(i + 1), WriteErrorProb: 0.0005, TornWrites: true})
		}
		httpFaults := fault.New(fault.Config{Seed: uint64(100 + i), RequestErrorProb: 0.05})

		days := 0
		wk := &Worker{
			Client: &Client{
				BaseURL:   url,
				HTTP:      &http.Client{Transport: httpFaults.RoundTripper(nil)},
				RetryBase: 2 * time.Millisecond,
			},
			Name: fmt.Sprintf("inc%d", i),
			Runner: CellRunner{
				SpoolDir:        spool,
				CheckpointEvery: 1,
				Fault:           injector,
				PerDay: func(dates.Date) error {
					if days++; kills > 0 && days == 8 {
						kills--
						return fmt.Errorf("chaos: killed at day barrier %d: %w", days, fault.ErrInjected)
					}
					return nil
				},
			},
			PollMax: 25 * time.Millisecond,
		}

		err := wk.Run(context.Background())
		if err == nil {
			break // grid drained (or poisoned — wait() distinguishes)
		}
		if !IsInjected(err) {
			t.Fatalf("incarnation %d died of a non-injected error: %v", i, err)
		}
		// The dead incarnation's lease would take a full lease interval to
		// time out; fast-forward the clock for the expiry check only (no
		// other worker is alive, so no live lease can be swept up).
		co.Queue().ExpireLeases(time.Now().Add(leaseFor + time.Second))
	}

	res, err := wait()
	if err != nil {
		t.Fatalf("grid failed under chaos: %v", err)
	}
	if got, want := marshalResult(t, res), marshalResult(t, clean); !bytes.Equal(got, want) {
		t.Errorf("chaos result diverges from fault-free run:\n--- chaos ---\n%s\n--- clean ---\n%s", got, want)
	}

	// Day accounting: for every cell the checkpointed prefix plus the days
	// the finishing incarnation actually simulated must cover the window
	// exactly — a restarted (rather than resumed) cell would double-count.
	resumed := 0
	for i, info := range co.CellInfos() {
		if info.ResumedAfterDays+info.DaysExecuted != windowDays {
			t.Errorf("cell %d day accounting broken: resumed_after=%d + executed=%d != %d",
				i, info.ResumedAfterDays, info.DaysExecuted, windowDays)
		}
		if info.Resumed && info.ResumedAfterDays > 0 {
			resumed++
		}
	}
	if resumed == 0 {
		t.Errorf("no cell was checkpoint-resumed (infos=%+v, incarnations=%d)", co.CellInfos(), incarnations)
	}
	p := co.Progress()
	if p.Done != 4 || p.Mismatches != 0 {
		t.Errorf("progress = %+v", p)
	}
	if p.Expiries == 0 {
		t.Errorf("no lease ever expired under chaos: %+v", p)
	}
	t.Logf("chaos drained: %d incarnations, progress=%+v", incarnations, p)
}

// TestCoordinatorCrashRestartChaos is the tentpole's acceptance bar: the
// COORDINATOR dies mid-sweep — after one cell completed, with another
// in flight, and with its journal's final record torn by the crash — and
// a successor coordinator restores the grid from the journal and drains
// it with fresh workers to an aggregate byte-identical to the fault-free
// in-process run. The completed cell is adopted from the journal without
// re-execution, and the in-flight cell resumes from its spooled
// checkpoint once the dead worker's journaled lease expires.
func TestCoordinatorCrashRestartChaos(t *testing.T) {
	names := []string{microName(t, "paper-baseline"), microName(t, "sybil-split")}
	opts := Options{Scenarios: names, Seeds: []uint64{20190301}}
	const windowDays = 20

	clean, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}

	journal := filepath.Join(t.TempDir(), "sweep.journal")
	spool := t.TempDir() // shared by every worker incarnation, like one host
	leaseFor := 3 * time.Second
	qc := QueueConfig{Lease: leaseFor, MaxAttempts: 12, RetryBase: 10 * time.Millisecond, Seed: 1}

	// Incarnation #1 of the coordinator. Its Run loop never starts — the
	// Handler alone serves the queue, which is exactly the state a crash
	// leaves: no janitor, no assembler, just whatever reached the journal.
	co1, err := NewCoordinator(opts, qc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co1.OpenJournal(journal, nil); err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(co1.Handler())

	// One worker completes the first cell, then dies at day barrier 5 of
	// the second — leaving cell 0 journaled done and cell 1 leased with a
	// day-5 checkpoint in the spool.
	days := 0
	wk1 := &Worker{
		Client: &Client{BaseURL: srv1.URL},
		Name:   "pre-crash",
		Runner: CellRunner{
			SpoolDir:        spool,
			CheckpointEvery: 1,
			PerDay: func(dates.Date) error {
				if days++; days == windowDays+5 {
					return fmt.Errorf("chaos: killed at day barrier: %w", fault.ErrInjected)
				}
				return nil
			},
		},
		PollMax: 20 * time.Millisecond,
	}
	if err := wk1.Run(context.Background()); !IsInjected(err) {
		t.Fatalf("pre-crash worker: %v, want injected death", err)
	}
	if p := co1.Progress(); p.Done != 1 || p.Leased != 1 {
		t.Fatalf("pre-crash progress = %+v, want 1 done + 1 leased", p)
	}

	// Crash the coordinator: listener gone, journal file abandoned — and
	// tear the crash-interrupted tail off its final record (the in-flight
	// cell's last heartbeat), as a mid-append power cut would.
	srv1.Close()
	co1.Close()
	fi, err := os.Stat(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(journal, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	// Incarnation #2 adopts the journal: the done cell comes back without
	// re-running, the dead worker's lease is honored until the janitor
	// expires it on the journaled deadline.
	co2, err := NewCoordinator(opts, qc)
	if err != nil {
		t.Fatal(err)
	}
	adopted, err := co2.OpenJournal(journal, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
	if adopted != 1 {
		t.Fatalf("successor adopted %d cell(s), want 1", adopted)
	}
	if p := co2.Progress(); p.Done != 1 || p.Leased != 1 {
		t.Fatalf("restored progress = %+v, want 1 done + 1 leased", p)
	}
	// No live worker holds the restored lease; fast-forward its expiry so
	// the test doesn't idle out the wall-clock lease interval.
	co2.Queue().ExpireLeases(time.Now().Add(leaseFor + time.Second))

	srv2 := httptest.NewServer(co2.Handler())
	t.Cleanup(srv2.Close)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	done := make(chan struct{})
	var res *Result
	var runErr error
	go func() {
		defer close(done)
		res, runErr = co2.Run(ctx)
	}()

	wk2 := &Worker{
		Client:  &Client{BaseURL: srv2.URL},
		Name:    "post-crash",
		Runner:  CellRunner{SpoolDir: spool, CheckpointEvery: 1},
		PollMax: 20 * time.Millisecond,
	}
	if err := wk2.Run(context.Background()); err != nil {
		t.Fatalf("post-crash worker: %v", err)
	}
	<-done
	if runErr != nil {
		t.Fatalf("successor coordinator: %v", runErr)
	}

	if got, want := marshalResult(t, res), marshalResult(t, clean); !bytes.Equal(got, want) {
		t.Errorf("post-restart result diverges from fault-free run:\n--- restarted ---\n%s\n--- clean ---\n%s", got, want)
	}
	// Day accounting across the coordinator crash: the adopted cell ran
	// once in full; the killed cell's successor resumed its checkpoint.
	infos := co2.CellInfos()
	resumed := 0
	for i, info := range infos {
		if info.ResumedAfterDays+info.DaysExecuted != windowDays {
			t.Errorf("cell %d day accounting broken: resumed_after=%d + executed=%d != %d",
				i, info.ResumedAfterDays, info.DaysExecuted, windowDays)
		}
		if info.Resumed && info.ResumedAfterDays > 0 {
			resumed++
		}
	}
	if resumed == 0 {
		t.Errorf("killed cell was restarted, not resumed (infos=%+v)", infos)
	}
	if p := co2.Progress(); p.Done != 2 || p.Mismatches != 0 {
		t.Errorf("final progress = %+v", p)
	}

	// The journal now records the drained grid: a THIRD incarnation
	// adopts everything and has nothing to run.
	co3, err := NewCoordinator(opts, qc)
	if err != nil {
		t.Fatal(err)
	}
	adopted3, err := co3.OpenJournal(journal, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer co3.Close()
	if adopted3 != 2 {
		t.Errorf("third incarnation adopted %d cell(s), want 2", adopted3)
	}
	res3, err := co3.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := marshalResult(t, res3); !bytes.Equal(got, marshalResult(t, clean)) {
		t.Errorf("journal-only result diverges from fault-free run")
	}
}

// TestWorkerGracefulDrain: cancelling a worker's context mid-cell (the
// SIGTERM path) releases its lease with a transient failure after a
// forced day-barrier checkpoint, so a successor resumes the cell
// IMMEDIATELY — no lease expiry — and finishes it to the clean result.
// The day accounting is the proof of graceful handoff the issue demands:
// resumed_after_days + days_executed == window.
func TestWorkerGracefulDrain(t *testing.T) {
	names := []string{microName(t, "paper-baseline")}
	opts := Options{Scenarios: names, Seeds: []uint64{20190301}}
	const windowDays = 20
	const drainAt = 5

	clean, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}

	co, url, wait := startCoordinator(t, opts, QueueConfig{
		Lease: 30 * time.Second, RetryBase: time.Millisecond, MaxAttempts: 5,
	})
	spool := t.TempDir()

	// Worker #1 receives its "SIGTERM" (context cancellation) at day
	// barrier 5. CheckpointEvery far beyond the window proves the
	// checkpoint the successor resumes from is the cancellation's forced
	// one, not a cadence write.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	days := 0
	wk1 := &Worker{
		Client: &Client{BaseURL: url},
		Name:   "draining",
		Runner: CellRunner{
			SpoolDir:        spool,
			CheckpointEvery: windowDays * 10,
			PerDay: func(dates.Date) error {
				if days++; days == drainAt {
					cancel()
				}
				return nil
			},
		},
		PollMax: 20 * time.Millisecond,
	}
	if err := wk1.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("drained worker returned %v, want context.Canceled", err)
	}

	// The graceful release already re-queued the cell: no lease is held
	// and no expiry was needed.
	if p := co.Progress(); p.Leased != 0 || p.Expiries != 0 || p.Done != 0 {
		t.Fatalf("post-drain progress = %+v, want released lease with no expiry", p)
	}

	wk2 := &Worker{
		Client:  &Client{BaseURL: url},
		Name:    "successor",
		Runner:  CellRunner{SpoolDir: spool, CheckpointEvery: windowDays * 10},
		PollMax: 20 * time.Millisecond,
	}
	if err := wk2.Run(context.Background()); err != nil {
		t.Fatalf("successor worker: %v", err)
	}
	res, err := wait()
	if err != nil {
		t.Fatal(err)
	}

	if got, want := marshalResult(t, res), marshalResult(t, clean); !bytes.Equal(got, want) {
		t.Errorf("drain+resume result diverges from clean run:\n--- drained ---\n%s\n--- clean ---\n%s", got, want)
	}
	info := co.CellInfos()[0]
	if !info.Resumed || info.ResumedAfterDays != drainAt || info.DaysExecuted != windowDays-drainAt {
		t.Errorf("successor info = %+v, want resume after day %d (resumed_after+executed must equal %d)",
			info, drainAt, windowDays)
	}
	if p := co.Progress(); p.Expiries != 0 {
		t.Errorf("graceful drain needed a lease expiry: %+v", p)
	}
}
