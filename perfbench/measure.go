package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const mb = 1 << 20

// opStats is what one operation cost, read from outside the program.
type opStats struct {
	wall     float64 // seconds
	cpu      float64 // process user+sys seconds (getrusage)
	allocMB  float64 // Go heap bytes allocated, in MB
	gcCPU    float64 // GC CPU seconds (runtime/metrics estimate)
	gcCycles float64
	peakMB   float64 // peak memory held from the OS during the operation
	calS     float64 // calibrate's seconds just before the operation
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

type runtimeCounters struct{ alloc, gcCPU, gcCycles float64 }

func readRuntime() runtimeCounters {
	s := slices.Clone(runtimeSamples)
	metrics.Read(s)
	return runtimeCounters{
		alloc:    float64(s[0].Value.Uint64()),
		gcCPU:    s[1].Value.Float64(),
		gcCycles: float64(s[2].Value.Uint64()),
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// measure runs fn as one operation. Outside the timed interval the heap
// is collected and its free pages returned to the OS, so each operation
// starts from the same state instead of paying for its predecessor's
// garbage, and the memory it holds counts from there; then calibrate
// (host.go) samples the host's speed. run.sh sets
// GODEBUG=madvdontneed=0, so "returned" is MADV_FREE: the pages stay
// mapped and the operation reuses them instead of faulting memory in
// again from the host, whose cost varies with the host's load, not the
// program's work. The kernel still counts such pages as resident, so the
// peak is read from the runtime's own accounting rather than VmHWM.
func measure(fn func() error) (opStats, error) {
	debug.FreeOSMemory()
	cal := calibrate()
	stop := make(chan struct{})
	peak := watchPeak(stop)
	r0, c0, t0 := readRuntime(), cpuSeconds(), time.Now()
	err := fn()
	wall := time.Since(t0).Seconds()
	c1, r1 := cpuSeconds(), readRuntime()
	close(stop)
	return opStats{
		wall:     wall,
		cpu:      c1 - c0,
		allocMB:  (r1.alloc - r0.alloc) / mb,
		gcCPU:    r1.gcCPU - r0.gcCPU,
		gcCycles: r1.gcCycles - r0.gcCycles,
		peakMB:   <-peak,
		calS:     cal,
	}, err
}

var heldSamples = []metrics.Sample{
	{Name: "/memory/classes/total:bytes"},
	{Name: "/memory/classes/heap/released:bytes"},
}

// heldMB is the memory the Go runtime holds from the OS: all it has
// mapped but the heap pages it has returned.
func heldMB() float64 {
	s := slices.Clone(heldSamples)
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / mb
}

// watchPeak samples heldMB every 10 ms until stop is closed, then sends
// the largest sample.
func watchPeak(stop <-chan struct{}) <-chan float64 {
	out := make(chan float64, 1)
	go func() {
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		peak := heldMB()
		for {
			select {
			case <-stop:
				out <- max(peak, heldMB())
				return
			case <-t.C:
				peak = max(peak, heldMB())
			}
		}
	}()
	return out
}

// procField returns the first number after key in a /proc file of
// "key: value kB" lines.
func procField(path, key string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s line", path, key)
}

// environment describes the host and build a run was measured on.
func environment() string {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for line := range strings.Lines(string(data)) {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	free := "unknown"
	if kb, err := procField("/proc/meminfo", "MemAvailable:"); err == nil {
		free = strconv.FormatFloat(kb/1024, 'f', 0, 64)
	}
	return fmt.Sprintf("env commit=%s go=%s gomaxprocs=%d nproc=%d godebug=%q cpu=%q mem_available_mb=%s",
		commit(), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), os.Getenv("GODEBUG"), model, free)
}

// commit reads the checked-out commit from .git without running git; a
// checkout that is not a git repository reports "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for line := range strings.Lines(string(packed)) {
			if id, name, ok := strings.Cut(strings.TrimSpace(line), " "); ok && name == ref {
				return id
			}
		}
	}
	return "unknown"
}

// quantile is the linearly interpolated q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the three cut points the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so the steadiness report matches the acceptance arithmetic exactly.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
