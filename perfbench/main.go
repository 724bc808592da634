// Command perfbench is the repository's benchmark. It runs one named
// workload in this process for a fixed time, checks every operation's
// output, and prints the workload's figures followed, as the last line of
// standard output, by one JSON object:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {"op_s": {"value": 2.01, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones (metrics.go); with
// --trace 1 the run alternates untraced and traced operations and reports
// the per-layer ones, timed from outside the program by spans around
// calls into each package's public functions and by the observation
// hooks the packages already export. The spans are written to
// .bench_build/spans/ at exit. --steady N reruns the workload in N child
// processes on consecutive seeds and prints each end-to-end metric's
// median and quartiles against its bound in BENCHMARK.json.
//
// Run it through run.sh, which builds it from the checkout:
//
//	bash perfbench/run.sh --workload engine --seed 1 --seconds 15 --trace 0
//
// See README.md for the workloads and what each metric predicts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/sim"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloads maps each workload name to its runner (one file each).
var workloads = map[string]func(*bench) error{
	"study":  runStudy,
	"engine": runEngine,
	"runlog": runRunlog,
	"sweep":  runSweep,
}

// scale sizes the workloads. full is what the benchmark measures; the
// smoke test shrinks every world so a broken workload fails in seconds.
type scale struct {
	panel          int // stratified worlds per run (a power of two)
	stride         int // candidate worlds built per panel world on study, runlog and sweep
	study          func() sim.Config
	engine         func() sim.Config
	runlog         func() sim.Config
	segmentBytes   int64    // run-log segment size (0 = the writer's 64 MiB default)
	seeks          int      // random-day seeks per logged run, besides the last day
	sweepScenarios []string // nil = every registered scenario
}

// procs is the GOMAXPROCS every workload runs at. On a small shared host
// a second busy thread measures the scheduler more than the program: a
// preempted engine worker stalls the whole day at the barrier. Under a
// background load toggling two busy loops on a 2-vCPU VM, engine op_s
// spread 22% between runs at two and 8% at one. The multi-core speedup
// is measured separately, in the traced engine run (engine.go).
const procs = 1

// paperDays is the paper's March–June 2019 monitoring window.
const paperDays = 121

// runlogDays is the logged run's window: the scale world's, on the tiny
// world (README.md says why).
const runlogDays = 61

var full = scale{
	panel:  16,
	stride: 8,
	study:  sim.TinyConfig,
	engine: func() sim.Config {
		cfg := sim.ScaleConfig()
		cfg.Window.End = cfg.Window.Start.AddDays(paperDays - 1)
		return cfg
	},
	runlog: func() sim.Config {
		cfg := sim.TinyConfig()
		cfg.Window.End = cfg.Window.Start.AddDays(runlogDays - 1)
		return cfg
	},
	seeks: 6,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(slices.Sorted(maps.Keys(workloads)), ", "))
	seed := fs.Uint64("seed", 1, "workload seed; every world seed is derived from it")
	seconds := fs.Float64("seconds", 10, "how long to run operations (at least one runs)")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from a traced run instead of end-to-end ones")
	steady := fs.Int("steady", 0, "rerun the workload this many times on consecutive seeds and report each end-to-end metric's spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: want --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--steady N]")
		fs.PrintDefaults()
		return 2
	}
	if *steady > 0 {
		return steadiness(*name, *seed, *seconds, *steady, stdout, stderr)
	}
	runtime.GOMAXPROCS(procs)
	calibrate() // faults calTable in, so the first sample is not the slowest
	dir, err := filepath.Abs(filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d", *name, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	b := &bench{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, sz: full, dir: dir, log: stderr}
	res, err := execute(b, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if b.trace {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		runID := fmt.Sprintf("%s/seed=%d/pid=%d/%s", *name, *seed, os.Getpid(), time.Now().UTC().Format(time.RFC3339))
		err := os.MkdirAll(filepath.Dir(path), 0o755)
		if err == nil {
			err = b.spans.dump(path, runID, environment())
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans %s (%d)\n", path, len(b.spans.spans))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// execute runs b's workload and prints its report; the caller prints the
// result line.
func execute(b *bench, stdout io.Writer) (result, error) {
	fmt.Fprintln(stdout, environment())
	if err := workloads[b.workload](b); err != nil {
		return result{}, err
	}
	res := b.result()
	fmt.Fprintf(stdout, "workload=%s seed=%d trace=%t ops=%d traced_ops=%d failed=%d setup_builds=%d\n",
		b.workload, b.seed, b.trace, len(b.plain), len(b.traced), b.failed, len(b.setup))
	for i, s := range b.plain {
		fmt.Fprintf(stdout, "  op %-3d wall_s=%.4f cpu_s=%.4f alloc_mb=%.1f peak_mem_mb=%.1f cal_ms=%.2f\n", i, s.wall, s.cpu, s.allocMB, s.peakMB, s.calS*1e3)
	}
	for _, n := range b.notes {
		fmt.Fprintf(stdout, "  %-26s %14.6g %-6s %s\n", n.name, n.value, n.unit, n.detail)
	}
	for _, m := range slices.Sorted(maps.Keys(res.Metrics)) {
		fmt.Fprintf(stdout, "  %-26s %14.6g %s\n", m, res.Metrics[m].Value, res.Metrics[m].Unit)
	}
	return res, nil
}
