package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
)

// liveHeapMB collects garbage and returns the Go heap still in use, in
// MiB: the memory the running system and its inputs hold.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// freeGarbage collects and returns to the OS what earlier set-ups left
// behind, so resident memory measured afterwards is the run's own.
func freeGarbage() {
	runtime.GC()
	debug.FreeOSMemory()
}

// cpuTicks reads the machine's CPU time counters from /proc/stat: the
// total over all states and the part the hypervisor stole. Both are 0
// where /proc is unavailable.
func cpuTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[min(1, len(fields)):] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			steal = v
		}
	}
	return total, steal
}

// stealNote says how much of the machine's CPU time the hypervisor
// stole since the given reading: noisy neighbours slow every metric.
func stealNote(total0, steal0 uint64) string {
	total, steal := cpuTicks()
	if total <= total0 {
		return "cpu steal during measurement: unknown"
	}
	return fmt.Sprintf("cpu steal during measurement: %.1f%%", 100*float64(steal-steal0)/float64(total-total0))
}

const schedLatencies = "/sched/latencies:seconds"

// rtStats is a reading of the Go runtime's counters, or their growth
// summed over chosen intervals (the untraced windows of a run).
type rtStats struct {
	mallocs, bytes, gcs, pauseNs uint64
	sched                        []uint64 // scheduler-latency bucket counts
	schedEdges                   []float64
}

func readRT() rtStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: schedLatencies}}
	metrics.Read(s)
	st := rtStats{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: uint64(ms.NumGC), pauseNs: ms.PauseTotalNs}
	if s[0].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[0].Value.Float64Histogram()
		st.sched = append([]uint64(nil), h.Counts...)
		st.schedEdges = h.Buckets
	}
	return st
}

// add sums the growth between two readings into d.
func (d *rtStats) add(from, to rtStats) {
	d.mallocs += to.mallocs - from.mallocs
	d.bytes += to.bytes - from.bytes
	d.gcs += to.gcs - from.gcs
	d.pauseNs += to.pauseNs - from.pauseNs
	if len(to.sched) == len(from.sched) && len(to.sched) > 0 {
		if d.sched == nil {
			d.sched = make([]uint64, len(to.sched))
			d.schedEdges = to.schedEdges
		}
		for i := range to.sched {
			d.sched[i] += to.sched[i] - from.sched[i]
		}
	}
}

// schedP99us returns the 99th percentile scheduling latency in µs: the
// upper edge of the runtime histogram bucket holding that rank (the
// runtime exposes nothing finer).
func (d *rtStats) schedP99us() float64 {
	var total uint64
	for _, c := range d.sched {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := (total*99 + 99) / 100
	var cum uint64
	for i, c := range d.sched {
		cum += c
		if cum >= want {
			hi := d.schedEdges[i+1]
			if hi > 1e9 { // open last bucket: report its lower edge
				hi = d.schedEdges[i]
			}
			return hi * 1e6
		}
	}
	return 0
}

// setRuntime records the runtime layer's per-layer metrics for ops
// completed over the intervals d covers.
func (r *report) setRuntime(d *rtStats, ops int64) {
	perOp := func(v uint64) float64 {
		if ops == 0 {
			return 0
		}
		return float64(v) / float64(ops)
	}
	r.set("runtime.allocs_per_op", "count", perOp(d.mallocs), ops)
	r.set("runtime.bytes_per_op", "B", perOp(d.bytes), ops)
	r.set("runtime.gc_cycles", "count", float64(d.gcs), ops)
	r.set("runtime.gc_pause_total_us", "us", float64(d.pauseNs)/1e3, int64(d.gcs))
	var n uint64
	for _, c := range d.sched {
		n += c
	}
	r.set("runtime.sched_latency_p99_us", "us", d.schedP99us(), int64(n))
}
