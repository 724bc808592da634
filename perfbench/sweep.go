package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/conc"
	"repro/internal/dates"
	"repro/internal/lockstep"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/sweep"
)

// runSweep runs the in-process scenario sweep, sweep.Run, over every
// registered scenario on the tiny base world, GOMAXPROCS cells at a time.
// Each grid takes one seed, the next panel world, so a run's grids cover
// the panel's seeds as the other workloads' operations do; a grid of two
// seeds ran too few times in a run for a steady median (op_s spread 0.15,
// peak_mem_mb 0.24 over ten seeds). Many small worlds; any parallelism is
// across cells, and the online lockstep detector tap is on.
func runSweep(b *bench) error {
	sweepWorkers := runtime.GOMAXPROCS(0)
	names := b.sz.sweepScenarios
	if len(names) == 0 {
		names = scenario.Names()
	}
	var specs []scenario.Spec
	for _, name := range names {
		sp, ok := scenario.Lookup(name)
		if !ok {
			return fmt.Errorf("unknown scenario %q", name)
		}
		cfg, err := sim.ConfigForSpec(sp)
		if err != nil {
			return err
		}
		specs = append(specs, sp)
		b.work += deviceDays(cfg)
	}
	// Each seed's worlds share the first scenario's campaigns, so its
	// world stands in for the seed when stratifying.
	base, err := sim.ConfigForSpec(specs[0])
	if err != nil {
		return err
	}
	if err := b.stratify(base, b.sz.stride); err != nil {
		return err
	}
	type job struct {
		spec scenario.Spec
		seed uint64
	}
	var seeds []uint64
	var jobs []job
	var last map[cellID]sweep.Cell // the latest plain grid, by scenario and seed

	plain := func() error {
		seeds, jobs = []uint64{b.nextWorld()}, nil
		for _, sp := range specs {
			for _, seed := range seeds {
				jobs = append(jobs, job{sp, seed})
			}
		}
		opts := sweep.Options{Scenarios: names, Seeds: seeds, Workers: sweepWorkers}
		var res *sweep.Result
		s, err := measure(func() (err error) { res, err = sweep.Run(opts); return err })
		if err != nil {
			return err
		}
		b.plain = append(b.plain, s)
		b.simWall = append(b.simWall, s.wall)
		last = map[cellID]sweep.Cell{}
		var cells []sweep.Cell
		for _, sum := range res.Scenarios {
			for _, c := range sum.Cells {
				cells = append(cells, c)
				last[cellID{c.Scenario, c.Seed}] = c
			}
		}
		if err := check(len(cells) == len(jobs), "grid returned %d cells, want %d", len(cells), len(jobs)); err != nil {
			return err
		}
		for _, c := range cells {
			e := c.Eval
			if err := check(e.Precision >= 0 && e.Precision <= 1 && e.Recall >= 0 && e.Recall <= 1,
				"cell %s/%d: precision %g recall %g outside [0,1]", c.Scenario, c.Seed, e.Precision, e.Recall); err != nil {
				return err
			}
		}
		return nil
	}

	traced := func() error {
		op, start := b.spans.newOp(), time.Now()
		cells := make([]sweep.Cell, len(jobs))
		errs := make([]error, len(jobs))
		cellS := make([]float64, len(jobs))
		s, err := measure(func() error {
			conc.ForN(sweepWorkers, len(jobs), func(i int) {
				var runner sweep.CellRunner
				d, err := b.spans.timed(op, i+1, "sweep.cell", func() (err error) {
					cells[i], _, err = runner.Run(context.Background(), jobs[i].spec, jobs[i].seed)
					return err
				})
				cellS[i], errs[i] = d.Seconds(), err
			})
			return firstErr(errs...)
		})
		if err != nil {
			return err
		}
		b.traced = append(b.traced, s)
		for _, c := range cells {
			want, ok := last[cellID{c.Scenario, c.Seed}]
			if err := check(ok && c == want, "cell %s/%d run alone differs from sweep.Run's", c.Scenario, c.Seed); err != nil {
				return err
			}
		}
		b.addLayer("sweep.cell_s_p50", quantile(cellS, 0.5))
		b.addLayer("sweep.cell_s_p90", quantile(cellS, 0.9))
		busy := 0.0
		for _, d := range cellS {
			busy += d
		}
		b.addLayer("sweep.parallel_efficiency", busy/(s.wall*float64(sweepWorkers)))
		if err := b.probeCell(op, jobs[0].spec, jobs[0].seed, last[cellID{jobs[0].spec.Name, jobs[0].seed}]); err != nil {
			return err
		}
		b.closeOp(op, start)
		return nil
	}

	b.loop(plain, traced)
	cph := float64(len(jobs)) / median(walls(b.plain)) * 3600
	b.note("cells_per_hour", "1/h", cph, fmt.Sprintf("%d scenarios x 1 seed", len(names)))
	return nil
}

// cellID names a grid cell.
type cellID struct {
	scenario string
	seed     uint64
}

// probeCell reruns one grid cell with every layer instrumented: the
// engine's metrics, a timed run-log writer, and the detector tap split
// into reading the log and ingesting into the detector. It mirrors the
// sweep's in-memory cell and must reproduce want exactly.
func (b *bench) probeCell(op int, sp scenario.Spec, seed uint64, want sweep.Cell) error {
	cfg, err := sim.ConfigForSpec(sp)
	if err != nil {
		return err
	}
	cfg.Seed, cfg.Workers = seed, 1
	w, err := b.build(op, cfg)
	if err != nil {
		return err
	}
	defer w.Close()
	reg, tr := obs.NewRegistry(), obs.NewTracer(0)
	var buf memLog
	var write time.Duration
	runLog, err := w.NewRunLog(&timedWriter{w: &buf, spans: &b.spans, op: op, total: &write})
	if err != nil {
		return err
	}
	runLog.SetMetrics(stream.NewWriterMetrics(reg))
	det := lockstep.NewDetector(sp.Detector.Config())
	det.SetMetrics(lockstep.NewMetrics(reg))
	tap := tapState{tail: stream.NewTail(&buf)}
	var ingest time.Duration
	events := 0
	ingestAll := func(evs []lockstep.Event) {
		d, _ := b.spans.timed(op, 0, "lockstep.ingest", func() error {
			for _, ev := range evs {
				det.Ingest(ev.Device, ev.App, ev.Day)
			}
			return nil
		})
		ingest += d
		events += len(evs)
	}
	t0 := time.Now()
	stats, err := w.RunOpts(sim.RunOptions{
		Log:     runLog,
		Metrics: sim.NewMetrics(reg, tr),
		Hook: func(dates.Date) error {
			var evs []lockstep.Event
			if _, err := b.spans.timed(op, 0, "stream.tail", func() (err error) {
				evs, err = tap.read()
				return err
			}); err != nil {
				return err
			}
			ingestAll(evs)
			return nil
		},
	})
	if err != nil {
		return err
	}
	b.spans.add(op, 0, "sim.run", t0, time.Now())
	b.spans.importObs(op, 0, tr)
	ingestAll(w.DecoyEvents())
	var groups []lockstep.Group
	g, _ := b.spans.timed(op, 0, "lockstep.groups", func() error { groups = det.Groups(); return nil })
	eval := lockstep.Evaluate(groups, w.TruthLabels())

	snap := reg.Snapshot()
	b.addLayers(simLayers(reg, tr, w.InstallLog.Len()))
	b.addLayers(streamLayers(snap, write))
	b.addLayers(lockstepLayers(snap, ingest, events, g))
	return check(stats == want.Stats && len(groups) == want.Groups && eval == want.Eval,
		"instrumented %s/%d cell gave %+v %d groups %v, the sweep %+v %d groups %v",
		sp.Name, seed, stats, len(groups), eval, want.Stats, want.Groups, want.Eval)
}

// tapState follows a run log the way the sweep's detector tap does,
// returning each day's installs instead of ingesting them.
type tapState struct {
	tail *stream.Tail
	ev   stream.Event
	day  dates.Date
}

func (t *tapState) read() ([]lockstep.Event, error) {
	var out []lockstep.Event
	for {
		ok, err := t.tail.Next(&t.ev)
		if err != nil || !ok {
			return out, err
		}
		switch t.ev.Kind {
		case stream.KindDayStart:
			t.day = t.ev.Day
		case stream.KindInstall:
			out = append(out, lockstep.Event{Device: t.ev.Device, App: t.ev.Pkg, Day: t.day})
		case stream.KindInstallBatch:
			for _, dev := range t.ev.Devices {
				out = append(out, lockstep.Event{Device: dev, App: t.ev.Pkg, Day: t.day})
			}
		}
	}
}

// memLog is an in-memory run log: appended by the writer, read at
// absolute offsets by the tail, both on the run's goroutine.
type memLog struct{ buf []byte }

func (m *memLog) Write(p []byte) (int, error) {
	m.buf = append(m.buf, p...)
	return len(p), nil
}

func (m *memLog) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(m.buf)) {
		return 0, io.EOF
	}
	n := copy(p, m.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}
