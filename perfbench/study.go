package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/lockstep"
	"repro/internal/obs"
)

// milkEvery is the CLI's default offer-wall milking cadence, in days.
const milkEvery = 4

// runStudy repeats core.Run on the tiny world with the honey experiment
// and the CLI's default milking cadence: what `incentstudy -tiny` does.
// The measurement pipeline (milking over loopback HTTP, honey, crawl,
// analysis) does most of the work; the engine is light.
func runStudy(b *bench) error {
	cfg := b.sz.study()
	if err := b.stratify(cfg, b.sz.stride); err != nil {
		return err
	}
	b.work = deviceDays(cfg)

	plain := func() error {
		cfg.Seed = b.nextWorld()
		var clk logClock
		var st *core.Study
		s, err := measure(func() (err error) {
			st, err = core.Run(cfg, core.Options{MilkEveryDays: milkEvery, Logf: clk.logf})
			return err
		})
		if err != nil {
			return err
		}
		defer st.Close()
		b.plain = append(b.plain, s)
		window, err := clk.between(markWindow, markAnalyze)
		if err != nil {
			return err
		}
		b.simWall = append(b.simWall, window.Seconds())
		return checkStudy(st)
	}

	traced := func() error {
		op, start := b.spans.newOp(), time.Now()
		var clk logClock
		reg, tr := obs.NewRegistry(), obs.NewTracer(0)
		var st *core.Study
		var t0, t1 time.Time
		s, err := measure(func() (err error) {
			t0 = time.Now()
			st, err = core.Run(cfg, core.Options{MilkEveryDays: milkEvery, Logf: clk.logf, Obs: reg, Trace: tr})
			t1 = time.Now()
			return err
		})
		if err != nil {
			return err
		}
		defer st.Close()
		b.traced = append(b.traced, s)
		if err := checkStudy(st); err != nil {
			return err
		}
		b.spans.add(op, 0, "core.run", t0, t1)
		phases := []struct{ name, from, to string }{
			{"core.build", markBuild, markHoney},
			{"core.honey", markHoney, markWindow},
			{"core.window", markWindow, markAnalyze},
		}
		for _, p := range phases {
			a, okA := clk.at(p.from)
			z, okZ := clk.at(p.to)
			if !okA || !okZ {
				return fmt.Errorf("study progress log lacks %q or %q", p.from, p.to)
			}
			b.spans.add(op, 0, p.name, a, z)
			b.addLayer(p.name+"_s", z.Sub(a).Seconds())
		}
		analyze, _ := clk.at(markAnalyze)
		b.spans.add(op, 0, "core.analysis", analyze, t1)
		b.addLayer("core.analysis_s", t1.Sub(analyze).Seconds())
		b.spans.importObs(op, 0, tr)
		b.addLayers(simLayers(reg, tr, st.World.InstallLog.Len()))

		if err := b.probeStudy(op, st); err != nil {
			return err
		}
		b.closeOp(op, start)
		return nil
	}

	b.loop(plain, traced)
	b.note("study_s", "s", median(walls(b.plain)), fmt.Sprintf("median of %d studies", len(b.plain)))
	return nil
}

// probeStudy times, after the run, the layers the study drives: the
// lockstep defense through core's analysis and directly through the
// detector, and one more crawl and milk pass on the final day.
func (b *bench) probeStudy(op int, st *core.Study) error {
	var a *core.Analysis
	b.spans.timed(op, 0, "core.new_analysis", func() error { a = st.NewAnalysis(); return nil })
	var ls core.LockstepResult
	d, _ := b.spans.timed(op, 0, "core.lockstep", func() error { ls = a.Lockstep(); return nil })
	b.addLayer("core.lockstep_s", d.Seconds())
	if err := check(ls == st.Results.Lockstep, "re-running the lockstep analysis gave %+v, the study %+v", ls, st.Results.Lockstep); err != nil {
		return err
	}

	events, _ := st.World.DetectionEvents()
	reg := obs.NewRegistry()
	det := lockstep.NewDetector(lockstep.DefaultConfig())
	det.SetMetrics(lockstep.NewMetrics(reg))
	det.Grow(len(events))
	ingest, _ := b.spans.timed(op, 0, "lockstep.ingest", func() error {
		for _, ev := range events {
			det.Ingest(ev.Device, ev.App, ev.Day)
		}
		return nil
	})
	var groups []lockstep.Group
	g, _ := b.spans.timed(op, 0, "lockstep.groups", func() error { groups = det.Groups(); return nil })
	b.addLayers(lockstepLayers(reg.Snapshot(), ingest, len(events), g))
	if err := check(len(groups) == ls.Groups, "detector found %d groups, the study %d", len(groups), ls.Groups); err != nil {
		return err
	}

	end := st.World.Cfg.Window.End
	d, err := b.spans.timed(op, 0, "monitor.milk_pass", func() error { return st.Milker.MilkDay(end) })
	if err != nil {
		return err
	}
	b.addLayer("monitor.milk_pass_s", d.Seconds())
	b.addLayer("monitor.offers", float64(len(st.Milker.Offers())))
	d, err = b.spans.timed(op, 0, "crawler.crawl_pass", func() error { return st.Crawler.CrawlNow(end) })
	if err != nil {
		return err
	}
	b.addLayer("crawler.crawl_pass_s", d.Seconds())
	return nil
}

// checkStudy is the study's correctness gate.
func checkStudy(st *core.Study) error {
	r := &st.Results
	return firstErr(
		conserved(st.World.Ledger),
		check(len(r.Table1) == 7, "Table 1 has %d rows, want 7", len(r.Table1)),
		check(len(r.Table2) == 8, "Table 2 has %d rows, want 8", len(r.Table2)),
		check(r.Lockstep.Groups > 0, "lockstep analysis found no groups"),
	)
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// The study's progress messages (core.Options.Logf format strings) mark
// its phase boundaries.
const (
	markBuild   = "building world"
	markHoney   = "running honey-app experiment"
	markWindow  = "running %d-day study window"
	markAnalyze = "analyzing"
)

// logClock timestamps the study's progress messages. core calls Logf
// from the goroutine running the study, so it needs no lock.
type logClock struct {
	formats []string
	times   []time.Time
}

func (c *logClock) logf(format string, _ ...any) {
	c.formats = append(c.formats, format)
	c.times = append(c.times, time.Now())
}

func (c *logClock) at(prefix string) (time.Time, bool) {
	for i, f := range c.formats {
		if strings.HasPrefix(f, prefix) {
			return c.times[i], true
		}
	}
	return time.Time{}, false
}

func (c *logClock) between(from, to string) (time.Duration, error) {
	a, okA := c.at(from)
	z, okZ := c.at(to)
	if !okA || !okZ {
		return 0, fmt.Errorf("study progress log lacks %q or %q", from, to)
	}
	return z.Sub(a), nil
}
