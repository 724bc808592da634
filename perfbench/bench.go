package main

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"time"

	"repro/internal/iip"
	"repro/internal/mediator"
	"repro/internal/obs"
	"repro/internal/sim"
)

// bench is one run of one workload: its inputs, the operations it timed,
// and what the traced operations recorded per layer.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sz       scale
	dir      string    // where the workload may write files
	log      io.Writer // failure diagnostics

	spans     spanLog
	setup     []float64 // world-build seconds
	setupCal  []float64 // calibrate seconds taken among the set-up builds
	plain     []opStats // untraced operations
	traced    []opStats // traced operations
	simWall   []float64 // seconds of each plain op spent simulating days
	work      float64   // device-days one operation simulates
	worlds    int       // worlds the operations have moved through
	cur       uint64    // the current world seed
	panel     []uint64  // the run's stratified worlds, in visiting order
	warm      []uint64  // worlds left for the warm-up operation
	attempted int
	failed    int
	layer     map[string][]float64 // per-layer samples, one per traced op
	notes     []note               // workload-specific figures for the report
}

type note struct {
	name, unit string
	value      float64
	detail     string
}

// nextWorld moves to the next world: one of the warm-up worlds while the
// warm-up operation runs, else the next of the run's panel. Each untraced
// operation runs a world of its own, so a run's medians cover many
// worlds; a traced operation reruns the world of the untraced one before
// it, so the two compare like with like.
func (b *bench) nextWorld() uint64 {
	if len(b.warm) > 0 {
		b.cur, b.warm = b.warm[0], b.warm[1:]
		return b.cur
	}
	b.cur = b.panel[b.worlds%len(b.panel)]
	b.worlds++
	return b.cur
}

// stratify picks the run's panel of sz.panel worlds (a power of two) from
// its seed, balanced by size. World sizes vary several-fold between seeds,
// so a run on randomly drawn worlds would measure its seed's luck: instead
// stride*sz.panel candidate worlds of cfg are built (these builds are
// set-up samples), ranked by the installs their planned campaigns demand,
// and every stride-th kept from a seeded offset. The more candidates, the
// closer the kept worlds sit to the same quantiles of world size on every
// seed. Operations visit the kept worlds by rank in bit-reversed order, so
// the first 2^k of them spread evenly over the ranks and their median is
// the panel's middle however few operations a run gets through. The
// warm-up operation runs the largest candidates.
func (b *bench) stratify(cfg sim.Config, stride int) error {
	type candidate struct {
		seed   uint64
		demand float64
	}
	cands := make([]candidate, stride*b.sz.panel)
	for k := range cands {
		if k%8 == 0 {
			runtime.GC()
			b.setupCal = append(b.setupCal, calibrate())
		}
		cfg.Seed = b.worldSeed(uint64(k))
		w, err := b.build(0, cfg)
		if err != nil {
			return err
		}
		cands[k] = candidate{cfg.Seed, plannedInstalls(w)}
		if err := w.Close(); err != nil {
			return err
		}
	}
	slices.SortStableFunc(cands, func(x, y candidate) int { return cmp.Compare(x.demand, y.demand) })
	off := int(b.worldSeed(uint64(len(cands))) % uint64(stride))
	kept := func(rank int) uint64 { return cands[stride*rank+off].seed }
	b.warm = []uint64{cands[len(cands)-1].seed, cands[len(cands)-2].seed}
	width := uint(bits.Len(uint(b.sz.panel)) - 1)
	b.panel = b.panel[:0]
	for i := range b.sz.panel {
		b.panel = append(b.panel, kept(int(bitsReverse(uint(i), width))))
	}
	return nil
}

// bitsReverse reverses the low n bits of x.
func bitsReverse(x, n uint) uint {
	return bits.Reverse(x) >> (bits.UintSize - n)
}

// plannedInstalls is the installs w's campaigns demand inside its window:
// per campaign, the smaller of its purchased target and its daily uptake
// times its days on the wall.
func plannedInstalls(w *sim.World) float64 {
	total := 0.0
	for _, c := range w.Campaigns {
		lo, hi := max(c.Spec.Window.Start, w.Cfg.Window.Start), min(c.Spec.Window.End, w.Cfg.Window.End)
		if days := hi.DaysSince(lo) + 1; days > 0 {
			total += min(float64(c.Spec.Target), c.DailyUptake*float64(days))
		}
	}
	return total
}

// worldSeed derives the k-th world seed of a workload seed (splitmix64),
// never 0, which several APIs read as "the calibrated default".
func (b *bench) worldSeed(k uint64) uint64 {
	z := b.seed*0x9e3779b97f4a7c15 + (k+1)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// build times one world build as a set-up sample, and as a sim.build span
// of traced operation op unless op is 0. Like an operation, each build
// starts from a collected heap.
func (b *bench) build(op int, cfg sim.Config) (*sim.World, error) {
	runtime.GC()
	t0 := time.Now()
	w, err := sim.NewWorld(cfg)
	if err != nil {
		return nil, fmt.Errorf("building world (seed %d): %w", cfg.Seed, err)
	}
	t1 := time.Now()
	b.setup = append(b.setup, t1.Sub(t0).Seconds())
	if op != 0 {
		b.spans.add(op, 0, "sim.build", t0, t1)
	}
	return w, nil
}

// loop runs operations for the run's seconds, at least once, after one
// untimed warm-up operation: it faults the heap in and pages the code, so
// the timed operations find the process as a long-running one would. A
// traced run alternates untraced and traced operations, at least one of
// each, so tracing overhead compares neighbours.
func (b *bench) loop(plain, traced func() error) {
	b.attempted++
	if err := plain(); err != nil {
		b.failed++
		fmt.Fprintf(b.log, "perfbench: %s: warm-up operation failed: %v\n", b.workload, err)
	}
	b.plain, b.simWall, b.warm = b.plain[:0], b.simWall[:0], nil
	start := time.Now()
	for i := 0; ; i++ {
		op := plain
		if b.trace && i%2 == 1 {
			op = traced
		}
		b.attempted++
		if err := op(); err != nil {
			b.failed++
			fmt.Fprintf(b.log, "perfbench: %s: operation %d failed: %v\n", b.workload, i, err)
		}
		if time.Since(start).Seconds() >= b.seconds && (!b.trace || i >= 1) {
			return
		}
	}
}

// conserved is the ledger gate: money is neither created nor destroyed.
// Balances carry the rounding of every posting, so the sum may sit off
// zero by float error — well under a part in 10^12 of the money on the
// books, or 1e-6 for a small ledger.
func conserved(l *mediator.Ledger) error {
	books := 0.0
	for _, v := range l.Balances() {
		books += math.Abs(v)
	}
	sum := l.Sum()
	return check(math.Abs(sum) <= max(1e-6, 1e-12*books), "ledger sum %g with %g on the books, want 0", sum, books)
}

// check turns a failed correctness gate into an operation error.
func check(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf("correctness gate: "+format, args...)
}

func (b *bench) addLayer(name string, v float64) {
	if b.layer == nil {
		b.layer = map[string][]float64{}
	}
	b.layer[name] = append(b.layer[name], v)
}

func (b *bench) note(name, unit string, value float64, detail string) {
	b.notes = append(b.notes, note{name, unit, value, detail})
}

// closeOp finishes a traced operation: the root span, nesting, and each
// layer's self time.
func (b *bench) closeOp(op int, start time.Time) {
	root := b.spans.add(op, 0, "bench.op", start, time.Now())
	b.spans.nest(op, root)
	self := b.spans.selfByLayer(op)
	for _, l := range layers {
		b.addLayer("self."+l+"_s", self[l])
	}
}

func (b *bench) addLayers(m map[string]float64) {
	for name, v := range m {
		b.addLayer(name, v)
	}
}

// simLayers reads one traced run's day-engine metrics: the per-phase sums
// from the sim_* series sim.NewMetrics registered in reg, day latency from
// the "day" spans in tr, and the install log's length. The hook's share
// is the day time the phases do not account for.
func simLayers(reg *obs.Registry, tr *obs.Tracer, installs int) map[string]float64 {
	snap := reg.Snapshot()
	sum := func(name string) float64 {
		h, _ := snap[name].(obs.HistogramSnapshot)
		return h.Sum
	}
	phases := map[string]string{
		"sim.organic_s":    "sim_phase_organic_seconds",
		"sim.campaign_s":   "sim_phase_campaign_seconds",
		"sim.step_day_s":   "sim_phase_step_day_seconds",
		"sim.log_emit_s":   "sim_phase_log_emit_seconds",
		"sim.barrier_s":    "sim_phase_barrier_seconds",
		"sim.checkpoint_s": "sim_checkpoint_seconds",
	}
	out := map[string]float64{}
	inPhases := 0.0
	for metric, series := range phases {
		out[metric] = sum(series)
		inPhases += sum(series)
	}
	out["sim.hook_s"] = max(sum("sim_day_seconds")-inPhases, 0)
	out["sim.install_records"] = float64(installs)
	var dayMS []float64
	for _, s := range tr.Spans() {
		if s.Name == "day" {
			dayMS = append(dayMS, float64(s.Dur.Nanoseconds())/1e6)
		}
	}
	out["sim.day_ms_p50"] = quantile(dayMS, 0.5)
	out["sim.day_ms_p90"] = quantile(dayMS, 0.9)
	return out
}

// streamLayers reads a traced run log's writer metrics from the runlog_*
// and sim_events_* series; write is the time spent in the log's Write.
func streamLayers(snap map[string]any, write time.Duration) map[string]float64 {
	return map[string]float64{
		"stream.write_s":          write.Seconds(),
		"stream.bytes":            counter(snap, "runlog_bytes_total"),
		"stream.events":           counter(snap, "sim_events_emitted_total"),
		"stream.batch_coalescing": counter(snap, "runlog_batch_buffers_total") / max(counter(snap, "runlog_batch_frames_total"), 1),
	}
}

// lockstepLayers reads a traced detector: ingest time per event, the
// Groups call, and the lockstep_* counters lockstep.NewMetrics registered.
func lockstepLayers(snap map[string]any, ingest time.Duration, events int, groups time.Duration) map[string]float64 {
	return map[string]float64{
		"lockstep.ingest_ns_per_event": float64(ingest.Nanoseconds()) / float64(max(events, 1)),
		"lockstep.groups_s":            groups.Seconds(),
		"lockstep.pairs_pruned":        counter(snap, "lockstep_pairs_pruned_total"),
		"lockstep.buckets_retracted":   counter(snap, "lockstep_buckets_retracted_total"),
	}
}

// counter reads a counter series from a registry snapshot.
func counter(snap map[string]any, name string) float64 {
	v, _ := snap[name].(int64)
	return float64(v)
}

// result assembles the run's final JSON object.
func (b *bench) result() result {
	res := result{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	// Times read in reference-host seconds (host.go): set-up's by the
	// calibrations taken among the set-up builds, the rest by those taken
	// before each operation.
	setupScale := hostScale(b.setupCal)
	var opCal []float64
	for _, s := range slices.Concat(b.plain, b.traced) {
		opCal = append(opCal, s.calS)
	}
	opScale := hostScale(opCal)
	b.note("host_cal_ms", "ms", median(opCal)*1e3, fmt.Sprintf("set-up %.4g ms, reference %.4g ms", median(b.setupCal)*1e3, refCalS*1e3))
	if b.trace {
		b.addLayer("sim.build_s", median(b.setup))
		b.addLayer("trace.overhead_s", median(walls(b.traced))-median(walls(b.plain)))
		for _, s := range b.plain {
			b.addLayer("gc.cpu_s", s.gcCPU)
			b.addLayer("gc.cycles", s.gcCycles)
		}
		for _, m := range perLayer {
			v := median(b.layer[m.Name])
			switch {
			case m.Name == "sim.build_s":
				v *= setupScale
			case m.Unit == "s" || m.Unit == "ms" || m.Unit == "ns":
				v *= opScale
			}
			res.Metrics[m.Name] = metricValue{finite(v), m.Unit}
		}
		return res
	}
	var cpu, alloc, peak []float64
	for _, s := range b.plain {
		cpu = append(cpu, s.cpu)
		alloc = append(alloc, s.allocMB)
		peak = append(peak, s.peakMB)
	}
	b.note("op_s_raw", "s", median(walls(b.plain)), "op_s before scaling to the reference host")
	values := map[string]float64{
		"setup_s":           median(b.setup) * setupScale,
		"op_s":              median(walls(b.plain)) * opScale,
		"device_days_per_s": b.work / (median(b.simWall) * opScale),
		"peak_mem_mb":       median(peak),
		"alloc_mb":          median(alloc),
		"cpu_s":             median(cpu) * opScale,
	}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = metricValue{finite(values[m.Name]), m.Unit}
	}
	return res
}

func walls(ops []opStats) []float64 {
	out := make([]float64, len(ops))
	for i, s := range ops {
		out[i] = s.wall
	}
	return out
}

// finite keeps NaN and ±Inf (an empty or zero sample set) out of the JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// devices is the crowd-worker device count of cfg's world: one pool per IIP.
func devices(cfg sim.Config) int { return len(iip.StandardNames) * cfg.WorkerPoolSize }

// deviceDays is the simulated work of one run of cfg.
func deviceDays(cfg sim.Config) float64 {
	return float64(devices(cfg)) * float64(cfg.Window.Days())
}
