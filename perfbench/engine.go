package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/dates"
	"repro/internal/obs"
	"repro/internal/sim"
)

// engineStride is the candidates built per panel world on the scale
// world: each build takes 0.13–0.2 s, and planned demand predicts a scale
// world's run time poorly (correlation 0.4), so more would buy little.
const engineStride = 2

// runEngine runs the day engine alone — sim.NewWorld then World.Run — on
// the scale world over the paper's 121-day window, with workers =
// GOMAXPROCS, no log and no hook but the day-latency probe. Each
// operation needs a fresh world, built untimed before it; those builds
// and the stratified panel's are the set-up samples.
func runEngine(b *bench) error {
	cfg := b.sz.engine()
	cfg.Workers = runtime.GOMAXPROCS(0)
	if err := b.stratify(cfg, engineStride); err != nil {
		return err
	}
	b.work = deviceDays(cfg)
	var days []float64 // barrier-to-barrier day latency, ms

	plain := func() error {
		cfg.Seed = b.nextWorld()
		w, err := b.build(0, cfg)
		if err != nil {
			return err
		}
		defer w.Close()
		var stats sim.RunStats
		var lat []float64
		s, err := measure(func() (err error) {
			stats, err = w.RunOpts(sim.RunOptions{Hook: dayLatency(&lat)})
			return err
		})
		if err != nil {
			return err
		}
		b.plain = append(b.plain, s)
		b.simWall = append(b.simWall, s.wall)
		days = append(days, lat...)
		return checkEngine(w, stats)
	}

	// The last traced world, its result and its campaign phase, which the
	// multi-core runs must reproduce and are compared against.
	var refCfg sim.Config
	var ref sim.RunStats
	var refCampaign float64
	traced := func() error {
		op, start := b.spans.newOp(), time.Now()
		stats, s, layers, err := b.tracedRun(op, cfg)
		if err != nil {
			return err
		}
		b.traced = append(b.traced, s)
		b.addLayers(layers)
		refCfg, ref, refCampaign = cfg, stats, layers["sim.campaign_s"]
		b.closeOp(op, start)
		return nil
	}

	b.loop(plain, traced)
	b.note("day_ms_p50", "ms", quantile(days, 0.5), fmt.Sprintf("of %d days", len(days)))
	b.note("day_ms_p90", "ms", quantile(days, 0.9), fmt.Sprintf("of %d days", len(days)))
	if !b.trace {
		return nil
	}
	b.attempted++
	if err := b.speedup(refCfg, ref, refCampaign); err != nil {
		b.failed++
		fmt.Fprintf(b.log, "perfbench: engine: multi-core run failed: %v\n", err)
	}
	return nil
}

// tracedRun runs one world with the engine's metrics and tracer attached,
// recording its spans under op (none when op is 0).
func (b *bench) tracedRun(op int, cfg sim.Config) (sim.RunStats, opStats, map[string]float64, error) {
	w, err := b.build(op, cfg)
	if err != nil {
		return sim.RunStats{}, opStats{}, nil, err
	}
	defer w.Close()
	reg, tr := obs.NewRegistry(), obs.NewTracer(0)
	var stats sim.RunStats
	var t0, t1 time.Time
	s, err := measure(func() (err error) {
		t0 = time.Now()
		stats, err = w.RunOpts(sim.RunOptions{Metrics: sim.NewMetrics(reg, tr)})
		t1 = time.Now()
		return err
	})
	if err == nil {
		err = checkEngine(w, stats)
	}
	if err != nil {
		return stats, s, nil, err
	}
	if op != 0 {
		b.spans.add(op, 0, "sim.run", t0, t1)
		b.spans.importObs(op, 0, tr)
	}
	return stats, s, simLayers(reg, tr, w.InstallLog.Len()), nil
}

// speedup measures the multi-core speedup on the last traced world. The
// benchmark runs on one core (main.go says why), so this probe alone
// raises GOMAXPROCS to the host's cores and runs the world at workers = 1
// and workers = cores: untraced for the whole-run ratio, and traced at
// workers = cores for the campaign phase against the traced workers = 1
// operation's. Every run must reproduce the workers = 1 result exactly.
func (b *bench) speedup(one sim.Config, ref sim.RunStats, refCampaign float64) error {
	cores := runtime.NumCPU()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cores))
	one.Workers = 1
	many := one
	many.Workers = cores
	var wall [2]float64
	for i, cfg := range []sim.Config{one, many} {
		w, err := b.build(0, cfg)
		if err != nil {
			return err
		}
		var stats sim.RunStats
		s, err := measure(func() (err error) { stats, err = w.Run(); return err })
		w.Close()
		if err != nil {
			return err
		}
		if err := check(stats == ref, "workers=%d gave %+v, workers=1 traced gave %+v", cfg.Workers, stats, ref); err != nil {
			return err
		}
		wall[i] = s.wall
	}
	b.addLayer("sim.speedup", wall[0]/wall[1])

	tstats, _, layers, err := b.tracedRun(0, many)
	if err != nil {
		return err
	}
	b.addLayer("sim.campaign_speedup", refCampaign/layers["sim.campaign_s"])
	return check(tstats == ref, "traced workers=%d gave %+v, want %+v", cores, tstats, ref)
}

// checkEngine is the engine's correctness gate.
func checkEngine(w *sim.World, stats sim.RunStats) error {
	return firstErr(
		conserved(w.Ledger),
		check(stats.Days == w.Cfg.Window.Days(), "ran %d days, window has %d", stats.Days, w.Cfg.Window.Days()),
	)
}

// dayLatency returns a day hook appending each barrier-to-barrier
// interval, in ms, to lat.
func dayLatency(lat *[]float64) func(dates.Date) error {
	last := time.Now()
	return func(dates.Date) error {
		now := time.Now()
		*lat = append(*lat, float64(now.Sub(last).Nanoseconds())/1e6)
		last = now
		return nil
	}
}
