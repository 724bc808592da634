package main

import (
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark shares its host, and the host's speed for one thread
// swings with its other tenants' load. On the 2-vCPU VM this benchmark was
// written on, with nothing else running in the VM and no steal time, the
// same study seed took 0.98 s in one hour and 1.4–2.4 s in the next, its
// CPU time growing alike; a ten-seed engine pass read 1.56 s on its first
// seed and 2.7–3.1 s on the next five. Integer kernels slowed by about a
// fifth, kernels working over tens of megabytes by up to two times: the
// tenants contend for the shared cache and memory, and the program's heap
// lives there. No length of run and no statistic over one run removes a
// slowdown that outlasts the run. So every run also times calibrate, a
// fixed computation over a cache-sized working set that shares no code
// with the program, and scales its times by refCalS over calibrate's
// median time in the same run. Over 5-minute traces of the study workload
// through such swings, medians of 12 operations varied by 8–14% (sd of
// the log); scaled this way, by 4–5%. A change to the program moves the
// program's times and not calibrate's; the host moves both.

// refCalS fixes the unit of scaled times: seconds on a host where
// calibrate takes 30 ms, about what the VM above gave when least loaded.
const refCalS = 0.030

// calTable, calHash and calXs are calibrate's working set. It is mapped outside the Go heap,
// so it neither raises the collector's heap goal (a live 40 MB in the
// heap added up to 165 MB to a sweep grid's peak) nor counts in
// peak_mem_mb, and the kernel never allocates. calTable (32 MB, beyond
// the per-core caches, within the shared one) takes random updates, as
// the program's heap does; calHash takes hashed inserts; calXs is sorted.
var calTable, calHash, calXs = func() (table, hash, xs []uint64) {
	const words = 1<<22 + 1<<18 + 1<<17
	mem, err := syscall.Mmap(-1, 0, words*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(err)
	}
	all := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), words)
	return all[:1<<22], all[1<<22 : 1<<22+1<<18], all[1<<22+1<<18:]
}()

var calSink uint64

// calibrate runs the fixed computation once and returns its wall seconds.
func calibrate() float64 {
	t0 := time.Now()
	r := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		return r
	}
	for range 1 << 20 {
		calTable[next()&(1<<22-1)] += r
	}
	clear(calHash)
	mask := uint64(len(calHash) - 1)
	for range 1 << 17 {
		k := next() | 1
		for i := (k * 0x9e3779b97f4a7c15) >> 46; ; i = (i + 1) & mask {
			if calHash[i] == 0 || calHash[i] == k {
				calHash[i] = k
				break
			}
		}
	}
	for i := range calXs {
		calXs[i] = next()
	}
	slices.Sort(calXs)
	calSink += calXs[len(calXs)/2] + calHash[r&mask]
	return time.Since(t0).Seconds()
}

// hostScale is the factor that turns times measured alongside the given
// calibrate samples into reference-host seconds (1 with no samples).
func hostScale(cal []float64) float64 {
	if len(cal) == 0 {
		return 1
	}
	return refCalS / median(cal)
}
