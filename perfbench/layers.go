package main

import (
	"math"
	"runtime/metrics"
	"time"

	"chronos/internal/obs"
)

// Go runtime metrics the benchmark reads. Allocation counts add the
// tiny-allocator blocks, which the runtime counts separately.
const (
	rtGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	rtTotalCPU  = "/cpu/classes/total:cpu-seconds"
	rtAllocs    = "/gc/heap/allocs:objects"
	rtTiny      = "/gc/heap/tiny/allocs:objects"
	rtAllocB    = "/gc/heap/allocs:bytes"
	rtLiveBytes = "/gc/heap/live:bytes"
)

// runtimeSample reads the Go runtime counters the per-layer metrics use.
type runtimeSample struct {
	gcCPU, totalCPU float64
	allocs, bytes   uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: rtGCCPU}, {Name: rtTotalCPU}, {Name: rtAllocs}, {Name: rtTiny}, {Name: rtAllocB}}
	metrics.Read(s)
	return runtimeSample{
		gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(),
		allocs: s[2].Value.Uint64() + s[3].Value.Uint64(), bytes: s[4].Value.Uint64(),
	}
}

// allocCounter reads heap allocations cheaply around one call.
type allocCounter struct{ s []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{s: []metrics.Sample{{Name: rtAllocs}, {Name: rtTiny}, {Name: rtAllocB}}}
}

// read returns the cumulative allocation count and bytes.
func (a *allocCounter) read() (objects, bytes uint64) {
	metrics.Read(a.s)
	return a.s[0].Value.Uint64() + a.s[1].Value.Uint64(), a.s[2].Value.Uint64()
}

// liveHeap samples the live heap (bytes marked live by the last GC) at
// most every heapEvery over a run. Its median, unlike its peak, does not
// hinge on where one GC cycle happened to land.
type liveHeap struct {
	s    []metrics.Sample
	mb   []float64
	next time.Time
}

const heapEvery = 10 * time.Millisecond

func newLiveHeap() *liveHeap { return &liveHeap{s: []metrics.Sample{{Name: rtLiveBytes}}} }

func (h *liveHeap) sample(now time.Time) {
	if now.Before(h.next) {
		return
	}
	h.next = now.Add(heapEvery)
	metrics.Read(h.s)
	h.mb = append(h.mb, float64(h.s[0].Value.Uint64())/(1<<20))
}

// medianMB is the median sample in MiB.
func (h *liveHeap) medianMB() float64 { return median(h.mb) }

// probe is a point-in-time read of the obs registry and the runtime.
type probe struct {
	snap *obs.Snapshot
	rt   runtimeSample
	at   time.Time
}

func takeProbe() probe { return probe{snap: obs.Capture(), rt: readRuntime(), at: time.Now()} }

// window is the difference between two probes: what the program's own
// counters and histograms recorded in between.
type window struct{ a, b probe }

func (w window) counter(name string) float64 {
	return float64(w.b.snap.Counters[name] - w.a.snap.Counters[name])
}

func (w window) histCount(name string) float64 {
	return float64(w.b.snap.Hists[name].Count - w.a.snap.Hists[name].Count)
}

func (w window) histSum(name string) float64 {
	return w.b.snap.Hists[name].Sum - w.a.snap.Hists[name].Sum
}

// histMean is the mean observation in the window (0 when empty).
func (w window) histMean(name string) float64 {
	return ratio(w.histSum(name), w.histCount(name))
}

// histQuantile estimates the q-quantile of the window's observations
// from bucket-count differences, at the bucket midpoint and with the
// rank convention of obs.Hist.Quantile.
func (w window) histQuantile(name string, q float64) float64 {
	before := make(map[float64]int64)
	for _, b := range w.a.snap.Hists[name].Buckets {
		before[b.Lo] = b.Count
	}
	after := w.b.snap.Hists[name].Buckets
	var n int64
	for _, b := range after {
		n += b.Count - before[b.Lo]
	}
	if n == 0 {
		return 0
	}
	r := q * float64(n-1)
	var seen float64
	for _, b := range after {
		seen += float64(b.Count - before[b.Lo])
		if r < seen {
			if math.IsInf(b.Hi, 1) {
				return b.Lo
			}
			return (b.Lo + b.Hi) / 2
		}
	}
	return 0
}

func (w window) seconds() float64 { return w.b.at.Sub(w.a.at).Seconds() }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer lists every per-layer metric with its unit, in report order.
var perLayer = []struct{ name, unit string }{
	{"track.calib_cold_ms", "ms"},
	{"track.calib_ms", "ms"},
	{"track.ingest_ms", "ms"},
	{"track.solve_ms", "ms"},
	{"track.track_us", "us"},
	{"track.ingest_allocs", "count"},
	{"track.solve_allocs", "count"},
	{"track.solve_kb", "KiB"},
	{"tof.solve_ms", "ms"},
	{"tof.alias_ms", "ms"},
	{"tof.alias_refits", "count"},
	{"tof.coalesce_width", "count"},
	{"tof.coalesce_follower_ratio", "ratio"},
	{"ndft.iters", "count"},
	{"ndft.solves", "count"},
	{"ndft.capped_ratio", "ratio"},
	{"ndft.kkt_ratio", "ratio"},
	{"ndft.batch_width", "count"},
	{"ndft.batch_ms", "ms"},
	{"svc.solve_wait_ms_p90", "ms"},
	{"svc.util_solve", "ratio"},
	{"svc.queue_bulk", "count"},
	{"svc.preemptions", "count"},
	{"go.gc_cpu_ratio", "ratio"},
	{"go.allocs_per_fix", "count"},
	{"bench.gen_late_ms", "ms"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// layerMetrics derives the per-layer metrics of a traced window from
// the program's own counters and histograms (obs.Capture differences).
// Per-fix figures divide by the fixes the window recorded; on the
// daemon workloads those include the solves of calibration at attach.
// Where a layer has no boundary on this workload its metrics read 0.
// Metrics the workload measured itself (spans, per-call allocations,
// sampled queue depths) come in through set and take precedence.
func layerMetrics(w window, solveWorkers int, set map[string]float64) map[string]float64 {
	fixes := w.counter("track.fixes")
	reqs := w.counter("ndft.solve.requests")
	// The staged pipeline times its solve and track stages itself; the
	// inline path has no stage boundary, so there the solver's and the
	// tracker's own stage histograms stand in.
	solveMs := w.histMean("svc.stage.solve_ns") / 1e6
	trackUs := w.histMean("svc.stage.track_ns") / 1e3
	if w.histCount("svc.stage.solve_ns") == 0 {
		solveMs = ratio(w.histSum("tof.stage.solve_ns")+w.histSum("tof.stage.alias_ns"), fixes) / 1e6
		trackUs = w.histMean("track.stage.kalman_ns") / 1e3
	}
	m := map[string]float64{
		"track.ingest_ms": w.histMean("track.stage.sweep_ns") / 1e6,
		"track.solve_ms":  solveMs,
		"track.track_us":  trackUs,

		"tof.solve_ms":                ratio(w.histSum("tof.stage.solve_ns"), fixes) / 1e6,
		"tof.alias_ms":                ratio(w.histSum("tof.stage.alias_ns"), fixes) / 1e6,
		"tof.alias_refits":            ratio(w.counter("tof.alias.refits"), fixes),
		"tof.coalesce_width":          w.histMean("tof.coalesce.batch_width"),
		"tof.coalesce_follower_ratio": ratio(w.counter("tof.coalesce.followers"), w.counter("tof.coalesce.submits")),

		"ndft.iters":        ratio(w.counter("ndft.solve.iterations"), fixes),
		"ndft.solves":       ratio(reqs, fixes),
		"ndft.capped_ratio": ratio(w.counter("ndft.solve.capped"), reqs),
		"ndft.kkt_ratio":    ratio(w.counter("ndft.solve.kkt_fallbacks"), reqs),
		"ndft.batch_width":  w.histMean("ndft.solve.batch_width"),
		"ndft.batch_ms":     w.histMean("ndft.solve.batch_wall_ns") / 1e6,

		"svc.solve_wait_ms_p90": w.histQuantile("svc.stage.solve_wait_ns", 0.9) / 1e6,
		"svc.util_solve":        ratio(w.histSum("svc.stage.solve_ns")/1e9, w.seconds()*float64(solveWorkers)),
		"svc.preemptions":       w.counter("svc.preemptions"),

		"go.gc_cpu_ratio":   ratio(w.b.rt.gcCPU-w.a.rt.gcCPU, w.b.rt.totalCPU-w.a.rt.totalCPU),
		"go.allocs_per_fix": ratio(float64(w.b.rt.allocs-w.a.rt.allocs), fixes),
	}
	for k, v := range set {
		m[k] = v
	}
	out := make(map[string]float64, len(perLayer))
	for _, l := range perLayer {
		out[l.name] = m[l.name]
	}
	return out
}
