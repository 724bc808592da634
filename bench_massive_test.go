package repro

// Massive-world benchmarks (DESIGN.md E12): the order-of-magnitude
// scale-up the SoA store columns and the spill-to-disk install log were
// built for. By default they run a mid-size world so `go test -bench`
// stays tractable; the -massive flag switches to the full
// sim.MassiveConfig population (~100k apps, ~1M devices). Both are
// skipped under -short (CI's budget smoke runs the engine through
// TestEngine*, not through these).
//
// Each sub-benchmark reports, beyond ns/op:
//
//	peakRSS-MB     the process peak RSS over the measured section
//	               (VmHWM from /proc/self/status, reset per variant via
//	               /proc/self/clear_refs; 0 off Linux)
//	devices        the world's device population
//	ns/device-day  ns/op normalized by devices×days — comparable across
//	               world sizes, and the number the E12 "within 1.5x of
//	               ScaleConfig" target reads

import (
	"flag"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"repro/internal/iip"
	"repro/internal/sim"
)

var massiveFlag = flag.Bool("massive", false,
	"run the massive benchmarks at full sim.MassiveConfig scale (~1M devices) instead of the mid-size default")

// massiveWorldConfig is the benchmark world: full MassiveConfig under
// -massive, otherwise the same shape at a tenth of the population so a
// default bench run finishes in minutes rather than tens of minutes.
// Both sizes keep the paper's full 121-day March-June monitoring window:
// the unbounded variant's install log grows with every simulated day, so
// the window length IS the experiment.
func massiveWorldConfig() sim.Config {
	cfg := sim.MassiveConfig()
	if !*massiveFlag {
		if err := cfg.Resize(20_000, 100_000, 0); err != nil {
			panic(err)
		}
	}
	return cfg
}

// resetPeakRSS resets the kernel's peak-RSS watermark for this process
// (Linux: write "5" to /proc/self/clear_refs). Best-effort: on other
// platforms the subsequent read reports 0 and the metric is omitted.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM from /proc/self/status in MB (0 if unavailable).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// benchMassiveRun replays the massive world once per iteration and
// reports the peak-RSS and per-device-day metrics. spill toggles the
// bounded-memory model: off clears InstallLogWindow (the whole install
// log stays resident, growing O(run)); on keeps MassiveConfig's
// O(window) bound.
func benchMassiveRun(b *testing.B, spill bool) {
	cfg := massiveWorldConfig()
	if !spill {
		cfg.InstallLogWindow = 0
	}
	devices := cfg.WorkerPoolSize * len(iip.StandardNames)
	deviceDays := float64(devices) * float64(cfg.Window.Days())

	// A deployment holding a fixed memory budget runs with tightened GC
	// (GOGC well below 100, or GOMEMLIMIT at the budget); measure both
	// variants under that same discipline so peakRSS-MB reflects each
	// memory model's footprint rather than default-GOGC headroom, which
	// would double whichever variant's live heap is smaller.
	defer debug.SetGCPercent(debug.SetGCPercent(30))

	// Return the previous variant's freed memory to the OS before
	// resetting the watermark, so each variant's peak is its own.
	debug.FreeOSMemory()
	resetPeakRSS()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := cfg
		c.Seed += uint64(i)
		w, err := sim.NewWorld(c)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := w.Run(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(peakRSSMB(), "peakRSS-MB")
	b.ReportMetric(float64(devices), "devices")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/deviceDays, "ns/device-day")
}

// BenchmarkMassiveWorld is the E12 headline: the full engine at massive
// scale, with the install log unbounded (spill=off — resident memory
// grows with the run) versus windowed to disk (spill=on — resident
// memory O(window)). Identical simulation results either way; only the
// peak-RSS column differs.
func BenchmarkMassiveWorld(b *testing.B) {
	if testing.Short() {
		b.Skip("massive world benchmark skipped in -short")
	}
	b.Run("spill=off", func(b *testing.B) { benchMassiveRun(b, false) })
	b.Run("spill=on", func(b *testing.B) { benchMassiveRun(b, true) })
}
