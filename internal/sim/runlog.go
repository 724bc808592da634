package sim

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/mediator"
	"repro/internal/playstore"
	"repro/internal/stream"
)

// NewRunLog opens an event-sourced run log on out for this world: the
// header (run parameters) and the base snapshot (store, ledger, mediator
// exactly as they stand now) are written immediately, and the returned
// writer is ready to be attached via RunOptions.Log. Call it right before
// the run so any pre-run activity (e.g. the honey-app experiment) is part
// of the base snapshot.
func (w *World) NewRunLog(out io.Writer) (*stream.Writer, error) {
	h := stream.Header{
		Version:      stream.Version,
		Seed:         w.Cfg.Seed,
		WindowStart:  w.Cfg.Window.Start,
		WindowEnd:    w.Cfg.Window.End,
		MediatorName: w.Mediator.Name,
		FeePerUser:   w.Mediator.FeePerUser,
	}
	base := stream.Base{
		Store:    w.Store.EncodeSnapshot(),
		Ledger:   w.Ledger.EncodeSnapshot(),
		Mediator: w.Mediator.EncodeSnapshot(),
		Devices:  w.RunLogDevices(),
		Strings:  w.RunLogStrings(),
	}
	return stream.NewWriter(out, h, base)
}

// RunLogDevices returns the run log's interned device table: every
// crowd-worker device ID, in deterministic (pool name, pool order). The
// world build is deterministic, so a resumed run reconstructs the exact
// table the original log's base frame carries — which is what lets
// stream.ResumeWriter keep device references byte-identical.
func (w *World) RunLogDevices() []string {
	names := make([]string, 0, len(w.Pools))
	for name := range w.Pools {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []string
	seen := map[string]bool{}
	for _, name := range names {
		for _, wk := range w.Pools[name] {
			if !seen[wk.ID] {
				seen[wk.ID] = true
				out = append(out, wk.ID)
			}
		}
	}
	return out
}

// RunLogStrings returns the run log's interned string table: every
// catalog package (the store's canonical order), every offer ID and
// developer account (campaign launch order), and the per-IIP and
// per-worker ledger account names — all the strings event frames repeat
// millions of times. Like the device table, it is reconstructed
// deterministically from the world build, so a resumed run resolves the
// exact references the original log's base frame carries.
func (w *World) RunLogStrings() []string {
	var out []string
	seen := map[string]bool{}
	add := func(s string) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, pkg := range w.Store.Packages() {
		add(pkg)
	}
	for _, c := range w.Campaigns {
		add(c.OfferID)
		add(mediator.DeveloperAccount(c.Spec.Developer))
	}
	names := make([]string, 0, len(w.Pools))
	for name := range w.Pools {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		add(mediator.IIPAccount(name))
		for _, acct := range w.affAcctByIIP[name] {
			add(acct)
		}
		if acct := w.noAffAcctByIIP[name]; acct != "" {
			add(acct)
		}
		add(mediator.UserAccount("pool-" + name))
		for _, wk := range w.Pools[name] {
			add(mediator.UserAccount(wk.ID))
		}
	}
	return out
}

// ResumeRunLog continues the event log of a checkpointed run: out must be
// the original log file truncated to cp.LogOffset and positioned at its
// end. The checkpointed segmentation state is reinstated so segment
// rotations re-trigger at the original offsets, keeping the appended
// frames byte-identical to what the uninterrupted run would have written.
func (w *World) ResumeRunLog(out io.Writer, cp *stream.Checkpoint) *stream.Writer {
	lw := stream.ResumeWriter(out, cp.LogOffset, w.RunLogDevices(), w.RunLogStrings())
	lw.RestoreSegmentState(cp)
	return lw
}

// checkResumeDay rejects a checkpoint whose day lies outside this
// world's window or whose day count disagrees with it. The CRC only
// proves the bytes are the ones written; a checkpoint from a different
// window (or a hand-edited one) would otherwise resume "successfully"
// and report a run it never simulated.
func (w *World) checkResumeDay(cp *stream.Checkpoint) error {
	win := w.Cfg.Window
	if !win.Contains(cp.Day) {
		return fmt.Errorf("sim: checkpoint day %s outside the window %s", cp.Day, win)
	}
	if want := int64(cp.Day.DaysSince(win.Start) + 1); cp.Days != want {
		return fmt.Errorf("sim: checkpoint at %s counts %d days, want %d", cp.Day, cp.Days, want)
	}
	return nil
}

// ValidateResume checks that a restored checkpoint is consistent with
// this world — its day lies in the window, and every engine work unit
// resolves and has its RNG stream state — without running anything.
// Callers with destructive follow-up work (truncating the original event
// log) run it first, so a checkpoint from a different seed or config
// fails before any file is touched.
func (w *World) ValidateResume(cp *stream.Checkpoint) error {
	if err := w.checkResumeDay(cp); err != nil {
		return err
	}
	eng, err := newEngine(w)
	if err != nil {
		return fmt.Errorf("sim: checkpoint does not match this world: %w", err)
	}
	if err := eng.restoreStreams(cp); err != nil {
		return fmt.Errorf("sim: checkpoint does not match this world: %w", err)
	}
	return nil
}

// Restore overlays a day-boundary checkpoint onto a freshly built world:
// the store is replaced with the snapshot (enforcer state included), the
// ledger, mediator, and every platform get their mutable state back
// bit-exact, and the install log is rebuilt. The world must come from the
// same Config as the checkpointed run — the deterministic build supplies
// everything the checkpoint deliberately omits (catalog plans, campaign
// specs, worker pools, organic rates). RunOpts calls this automatically
// when RunOptions.Resume is set. A checkpoint dated outside the window
// is rejected before anything is overlaid.
func (w *World) Restore(cp *stream.Checkpoint) error {
	if err := w.checkResumeDay(cp); err != nil {
		return err
	}
	store, err := playstore.DecodeSnapshot(cp.Store)
	if err != nil {
		return fmt.Errorf("sim: restoring store: %w", err)
	}
	if err := w.Ledger.RestoreSnapshot(cp.Ledger); err != nil {
		return fmt.Errorf("sim: restoring ledger: %w", err)
	}
	if err := w.Mediator.RestoreSnapshot(cp.Mediator); err != nil {
		return fmt.Errorf("sim: restoring mediator: %w", err)
	}
	for _, blob := range cp.Platforms {
		p := w.Platforms[blob.Name]
		if p == nil {
			return fmt.Errorf("sim: checkpoint references unknown platform %s", blob.Name)
		}
		if err := p.RestoreSnapshot(blob.Data); err != nil {
			return fmt.Errorf("sim: restoring platform %s: %w", blob.Name, err)
		}
	}
	w.Store = store
	w.Store.SetHorizon(w.Cfg.Window.End)
	if enf := store.Enforcer(); enf != nil {
		w.Enforcer = enf
	}
	w.InstallLog.Reset(len(cp.Installs))
	for _, in := range cp.Installs {
		w.InstallLog.Append(InstallRecord{Device: in.Device, App: in.App, Day: in.Day})
	}
	w.restored = cp
	return nil
}
