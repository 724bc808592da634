package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dates"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stream"
)

// checkpointEvery is the CLI's default checkpoint cadence, in days.
const checkpointEvery = 7

// runRunlog runs the tiny world over a 61-day window writing the run log
// to a file at the CLI defaults (64 MiB segments, a checkpoint file every
// 7 days, the log flushed before each checkpoint as core does), then
// seeks the finished log with stream.ReplayDay: one seek into each equal
// slice of the window at a seeded random day, and the last day. One
// operation is the logged run plus its seeks, so writes sit beside reads.
func runRunlog(b *bench) error {
	cfg := b.sz.runlog()
	if err := b.stratify(cfg, b.sz.stride); err != nil {
		return err
	}
	b.work = deviceDays(cfg)
	var logged, seeks, logMB []float64

	plain := func() error {
		cfg.Seed = b.nextWorld()
		r, s, err := b.loggedOp(cfg, nil)
		if err != nil {
			return err
		}
		b.plain = append(b.plain, s)
		b.simWall = append(b.simWall, r.logged.Seconds())
		logged = append(logged, r.logged.Seconds())
		logMB = append(logMB, float64(r.logBytes)/mb)
		for _, d := range r.seeks {
			seeks = append(seeks, float64(d.Nanoseconds())/1e6)
		}
		return nil
	}

	traced := func() error {
		t := &runlogTrace{op: b.spans.newOp(), reg: obs.NewRegistry(), tr: obs.NewTracer(0)}
		start := time.Now()
		r, s, err := b.loggedOp(cfg, t)
		if err != nil {
			return err
		}
		b.traced = append(b.traced, s)
		b.addLayers(simLayers(t.reg, t.tr, r.installs))
		b.addLayers(streamLayers(t.reg.Snapshot(), t.write))
		b.addLayer("stream.checkpoint_write_s", t.ckptWrite.Seconds())
		b.addLayer("stream.checkpoint_mb", t.ckptBytes/mb)
		b.addLayer("stream.scan_index_s", t.scan.Seconds())
		b.addLayer("stream.segments", float64(t.segments))
		var ms []float64
		for _, d := range r.seeks {
			ms = append(ms, float64(d.Nanoseconds())/1e6)
		}
		b.addLayer("stream.replay_day_s", median(ms)/1e3)
		b.addLayer("stream.seek_ms_p50", quantile(ms, 0.5))
		b.addLayer("stream.seek_ms_p90", quantile(ms, 0.9))
		b.closeOp(t.op, start)
		return nil
	}

	b.loop(plain, traced)
	b.note("logged_run_s", "s", median(logged), fmt.Sprintf("median of %d", len(logged)))
	b.note("seek_ms_p50", "ms", quantile(seeks, 0.5), fmt.Sprintf("of %d seeks", len(seeks)))
	b.note("seek_ms_p90", "ms", quantile(seeks, 0.9), fmt.Sprintf("of %d seeks", len(seeks)))
	b.note("log_mb", "MB", median(logMB), "run-log size")
	return nil
}

// runlogTrace is what a traced logged run records besides its spans.
type runlogTrace struct {
	op        int
	reg       *obs.Registry
	tr        *obs.Tracer
	write     time.Duration // inside the log file's Write
	ckptWrite time.Duration // log flush + checkpoint file write
	ckptBytes float64       // last checkpoint file's size
	scan      time.Duration
	segments  int
}

type loggedResult struct {
	logged   time.Duration
	seeks    []time.Duration
	logBytes int64
	installs int
}

// loggedOp is one runlog operation: build a world (set-up), then the
// timed logged run and seeks. t, when non-nil, traces it.
func (b *bench) loggedOp(cfg sim.Config, t *runlogTrace) (loggedResult, opStats, error) {
	var r loggedResult
	op := 0
	if t != nil {
		op = t.op
	}
	w, err := b.build(op, cfg)
	if err != nil {
		return r, opStats{}, err
	}
	defer w.Close()
	logPath := filepath.Join(b.dir, "run.log")
	ckptPath := filepath.Join(b.dir, "run.ckpt")
	defer os.Remove(logPath)
	defer os.Remove(ckptPath)

	s, err := measure(func() error {
		t0 := time.Now()
		stats, size, err := b.loggedRun(w, logPath, ckptPath, t)
		if err != nil {
			return err
		}
		r.logged, r.logBytes, r.installs = time.Since(t0), size, w.InstallLog.Len()
		if t != nil {
			b.spans.add(t.op, 0, "sim.run", t0, t0.Add(r.logged))
			b.spans.importObs(t.op, 0, t.tr)
		}
		r.seeks, err = b.seek(logPath, cfg, stats, t)
		return err
	})
	return r, s, err
}

// loggedRun runs w writing the run log and checkpoints, as core does, and
// returns the live stats and the log's size.
func (b *bench) loggedRun(w *sim.World, logPath, ckptPath string, t *runlogTrace) (sim.RunStats, int64, error) {
	f, err := os.Create(logPath)
	if err != nil {
		return sim.RunStats{}, 0, err
	}
	defer f.Close()
	var out io.Writer = f
	if t != nil {
		out = &timedWriter{w: f, spans: &b.spans, op: t.op, total: &t.write}
	}
	bw := bufio.NewWriterSize(out, 1<<20)
	log, err := w.NewRunLog(bw)
	if err != nil {
		return sim.RunStats{}, 0, err
	}
	if b.sz.segmentBytes > 0 {
		log.SetSegmentBytes(b.sz.segmentBytes)
	}
	opts := sim.RunOptions{
		Log:             log,
		CheckpointEvery: checkpointEvery,
		Checkpoint: func(cp *stream.Checkpoint) error {
			write := func() error {
				// The log bytes a checkpoint points at reach the file first.
				if err := bw.Flush(); err != nil {
					return err
				}
				return stream.WriteCheckpointFile(ckptPath, cp)
			}
			if t == nil {
				return write()
			}
			d, err := b.spans.timed(t.op, 0, "stream.checkpoint_write", write)
			t.ckptWrite += d
			if fi, serr := os.Stat(ckptPath); serr == nil {
				t.ckptBytes = float64(fi.Size())
			}
			return err
		},
	}
	if t != nil {
		log.SetMetrics(stream.NewWriterMetrics(t.reg))
		opts.Metrics = sim.NewMetrics(t.reg, t.tr)
	}
	stats, err := w.RunOpts(opts)
	if err != nil {
		return stats, 0, err
	}
	if err := bw.Flush(); err != nil {
		return stats, 0, err
	}
	if err := f.Close(); err != nil {
		return stats, 0, err
	}
	return stats, log.Offset(), nil
}

// seek replays the finished log to a random day, drawn from the world
// seed, in each equal slice of the window and to the last day, whose
// state must equal the live run's.
func (b *bench) seek(logPath string, cfg sim.Config, live sim.RunStats, t *runlogTrace) ([]time.Duration, error) {
	f, err := os.Open(logPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if t != nil {
		var idx *stream.LogIndex
		t.scan, err = b.spans.timed(t.op, 0, "stream.scan_index", func() (err error) {
			idx, err = stream.ScanIndex(f)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.segments = len(idx.Segments)
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0))
	window := cfg.Window
	days := window.Days()
	var targets []dates.Date
	for i := range b.sz.seeks {
		lo, hi := i*days/b.sz.seeks, (i+1)*days/b.sz.seeks
		targets = append(targets, window.Start.AddDays(lo+rng.IntN(hi-lo)))
	}
	targets = append(targets, window.End)

	var lat []time.Duration
	var last *stream.ReplayResult
	for _, day := range targets {
		var res *stream.ReplayResult
		t0 := time.Now()
		res, err = stream.ReplayDay(f, day)
		d := time.Since(t0)
		if t != nil {
			b.spans.add(t.op, 0, "stream.replay_day", t0, t0.Add(d))
		}
		if errors.Is(err, stream.ErrReplayDiverged) {
			return lat, fmt.Errorf("correctness gate: seek to %s: %w", day, err)
		}
		if err != nil {
			return lat, fmt.Errorf("seek to %s: %w", day, err)
		}
		lat = append(lat, d)
		last = res
	}
	got := last.Stats
	want := stream.ReplayStats{
		Days:                 live.Days,
		OrganicInstalls:      live.OrganicInstalls,
		IncentivizedInstalls: live.IncentivizedInstalls,
		CertifiedCompletions: live.CertifiedCompletions,
		RevenueUSD:           live.RevenueUSD,
	}
	return lat, check(got == want, "replaying to the last day gave %+v, the live run %+v", got, want)
}

// timedWriter times the run log's writes to its file.
type timedWriter struct {
	w     io.Writer
	spans *spanLog
	op    int
	total *time.Duration
}

func (tw *timedWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := tw.w.Write(p)
	t1 := time.Now()
	tw.spans.add(tw.op, 0, "stream.write", t0, t1)
	*tw.total += t1.Sub(t0)
	return n, err
}
