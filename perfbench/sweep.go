package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"chronos/internal/obs"
	"chronos/internal/tof"
	"chronos/internal/track"
)

// The sweep workload: closed loops with no daemon, one per core, each
// on a goroutine of its own. Each loop steps its share of the walking
// full-pipeline sessions round-robin through the staged entry points,
// so the solver layers do nearly all the work and svc and batching are
// bypassed (batch width is always 1). A loop's goroutine keeps one OS
// thread, so that thread's CPU time per fix is the fix's time on a core
// of its own. On a shared host each core's speed drifts by itself;
// loops on every core average those drifts. A traced run has a single
// loop, because its per-stage allocation counts are process-wide.
const (
	sweepSessions = 32
	// sweepAccuracyFixes is the per-session fix prefix the accuracy
	// metrics and the trace digest cover: fixed, so both depend on the
	// seed alone and not on how many fixes the window held.
	sweepAccuracyFixes = 8
)

type sweepBench struct {
	// plain holds the sessions in seed order; session i belongs to
	// loop i % loops.
	plain  []*track.Session
	traced []*track.Session // traced twins of plain; nil when untraced
	loops  int
	// calibMs times each plain NewSession in a traced run, in order:
	// the first one builds the process-wide plan registry from cold,
	// the rest find it warm.
	calibMs []float64
}

func setupSweep(o options, tr *tracer) (workload, error) {
	office := newOffice()
	next := seeder(o.seed)
	seeds := make([]int64, sweepSessions)
	for i := range seeds {
		seeds[i] = next()
	}
	b := &sweepBench{plain: make([]*track.Session, sweepSessions), loops: runtime.NumCPU()}
	newSession := func(i int) (*track.Session, error) {
		return track.NewSession(rand.New(rand.NewSource(seeds[i])), office, tof.NewEstimator(estimatorConfig()), walking(-1))
	}
	if tr == nil {
		// Each loop builds its own sessions, as it will step them.
		errs := make([]error, b.loops)
		var wg sync.WaitGroup
		for k := 0; k < b.loops; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := k; i < sweepSessions; i += b.loops {
					s, err := newSession(i)
					if err != nil {
						errs[k] = fmt.Errorf("session %d: %w", i, err)
						return
					}
					b.plain[i] = s
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return nil, err
		}
		return b, nil
	}
	b.loops = 1
	for i := range b.plain {
		sp := tr.begin("NewSession", "track", uint64(i), -1)
		s, err := newSession(i)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("session %d: %w", i, err)
		}
		b.plain[i] = s
		b.calibMs = append(b.calibMs, tr.ms(sp))
		// The traced twin has the same seed, so its fixes must match
		// the plain session's byte for byte.
		t, err := newSession(i)
		if err != nil {
			return nil, fmt.Errorf("traced session %d: %w", i, err)
		}
		b.traced = append(b.traced, t)
	}
	return b, nil
}

// stepPlain runs one untraced fix and returns its wall time and the
// CPU time of the calling thread.
func stepPlain(s *track.Session) (wall, cpu time.Duration, err error) {
	start, cpu0 := time.Now(), threadCPU()
	if err := s.StepIngest(); err != nil {
		return 0, 0, err
	}
	for {
		parked, err := s.StepSolve()
		if err != nil {
			return 0, 0, err
		}
		if !parked {
			break
		}
	}
	err = s.StepTrack()
	return time.Since(start), threadCPU() - cpu0, err
}

// stageCost accumulates one stage's calls and allocations.
type stageCost struct {
	calls          int
	objects, bytes uint64
}

// stepTraced runs one fix with obs on, a span around each stage call
// and the fix, and the heap allocations of each stage counted.
func stepTraced(s *track.Session, tr *tracer, ac *allocCounter, req uint64, costs map[string]*stageCost) (time.Duration, error) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	start := time.Now()
	fix := tr.begin("fix", "bench", req, -1)
	stage := func(name string, call func() error) error {
		o0, b0 := ac.read()
		sp := tr.begin(name, "track", req, fix)
		err := call()
		tr.end(sp)
		o1, b1 := ac.read()
		c := costs[name]
		c.calls++
		c.objects += o1 - o0
		c.bytes += b1 - b0
		return err
	}
	err := stage("StepIngest", s.StepIngest)
	if err == nil {
		err = stage("StepSolve", func() error {
			for {
				parked, err := s.StepSolve()
				if err != nil || !parked {
					return err
				}
			}
		})
	}
	if err == nil {
		err = stage("StepTrack", s.StepTrack)
	}
	tr.end(fix)
	return time.Since(start), err
}

// sweepLoop is what one closed loop measured.
type sweepLoop struct {
	attempted, failed, stepErrs int
	wallMs, cpuMs, tracedMs     []float64
	err                         error
}

// loop steps loop k's sessions round-robin until the deadline, passes
// whole. A session whose stage call errs stops there. In a traced run
// (a single loop) each fix is followed by the same fix of the traced
// twin.
func (b *sweepBench) loop(k int, deadline time.Time, tr *tracer, ac *allocCounter, costs map[string]*stageCost) (r sweepLoop) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	dead := make([]bool, len(b.plain))
	req := uint64(0)
	for time.Now().Before(deadline) {
		for i := k; i < len(b.plain); i += b.loops {
			if dead[i] {
				continue
			}
			r.attempted++
			wall, cpu, err := stepPlain(b.plain[i])
			if err != nil {
				r.failed++
				r.stepErrs++
				dead[i] = true
				continue
			}
			r.wallMs = append(r.wallMs, ms(wall))
			r.cpuMs = append(r.cpuMs, ms(cpu))
			if tr != nil {
				req++
				d, err := stepTraced(b.traced[i], tr, ac, req, costs)
				if err != nil {
					r.err = fmt.Errorf("traced session %d: %w", i, err)
					return r
				}
				r.tracedMs = append(r.tracedMs, ms(d))
			}
		}
	}
	return r
}

func (b *sweepBench) run(o options, tr *tracer) (*outcome, error) {
	out := &outcome{}
	hp := newLiveHeap()
	ac := newAllocCounter()
	costs := map[string]*stageCost{"StepIngest": {}, "StepSolve": {}, "StepTrack": {}}
	var plainMs, cpuMs, tracedMs []float64
	stepErrs := 0

	var before probe
	if tr != nil {
		obs.SetEnabled(false)
		before = takeProbe()
	}
	start, cpu0 := time.Now(), processCPU()
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	loops := make([]sweepLoop, b.loops)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for k := range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loops[k] = b.loop(k, deadline, tr, ac, costs)
		}()
	}
	go func() { wg.Wait(); close(done) }()
	tick := time.NewTicker(heapEvery)
	for waiting := true; waiting; {
		select {
		case <-done:
			waiting = false
		case now := <-tick.C:
			hp.sample(now)
		}
	}
	tick.Stop()
	elapsed, cpu := time.Since(start), processCPU()-cpu0
	if tr != nil {
		obs.SetEnabled(true)
	}
	for _, r := range loops {
		if r.err != nil {
			return nil, r.err
		}
		out.attempted += r.attempted
		out.failed += r.failed
		stepErrs += r.stepErrs
		plainMs = append(plainMs, r.wallMs...)
		cpuMs = append(cpuMs, r.cpuMs...)
		tracedMs = append(tracedMs, r.tracedMs...)
	}

	// Outputs, checked outside the timed window.
	var tracedFixes float64
	digest := sha256.New()
	for i, s := range b.plain {
		fixes := s.Result().Fixes
		out.fixes += len(fixes)
		bad := 0
		for _, f := range fixes {
			if !finite(f) {
				bad++
			}
		}
		out.check(fmt.Sprintf("session%d.finite", i), bad == 0, "%d non-finite fixes", bad)
		// An estimator failure skips a sweep's fix: a failed operation.
		if skipped := s.Sweeps() - len(fixes); skipped > 0 {
			out.failed += skipped
		}
		prefix := fixes[:min(len(fixes), sweepAccuracyFixes)]
		for _, f := range prefix {
			out.errCm = append(out.errCm, errCm(f))
		}
		digest.Write([]byte(fixTable(prefix)))
		if tr != nil {
			tf := b.traced[i].Result().Fixes
			tracedFixes += float64(len(tf))
			n := min(len(fixes), len(tf), sweepAccuracyFixes)
			out.check(fmt.Sprintf("session%d.traced_identical", i),
				n > 0 && fixTable(fixes[:n]) == fixTable(tf[:n]),
				"traced and untraced fix traces differ over %d fixes", n)
		}
	}
	out.check("fixes", out.fixes > 0, "no fix completed")
	// A stage call that errs stops its session: unlike a skipped fix,
	// that is a fault of the program.
	out.check("no_errors", stepErrs == 0, "%d sessions stopped on a stage error", stepErrs)
	out.seconds, out.cpuSeconds = elapsed.Seconds(), cpu.Seconds()
	out.latencyMs = cpuMs
	out.heapMB = hp.medianMB()
	out.named = map[string]any{
		"fix_ms":     summarize(plainMs),
		"fix_cpu_ms": summarize(cpuMs),
		"fix_digest": fmt.Sprintf("%x", digest.Sum(nil)[:8]),
	}

	if tr != nil {
		w := window{a: before, b: takeProbe()}
		self := tr.selfTimes()
		per := func(name string, v uint64) float64 { return ratio(float64(v), float64(costs[name].calls)) }
		allocs := costs["StepIngest"].objects + costs["StepSolve"].objects + costs["StepTrack"].objects
		set := map[string]float64{
			"track.calib_cold_ms": b.calibMs[0],
			"track.calib_ms":      mean(b.calibMs[1:]),
			"track.ingest_ms":     self["StepIngest"].meanMs(),
			"track.solve_ms":      self["StepSolve"].meanMs(),
			"track.track_us":      self["StepTrack"].meanMs() * 1e3,
			"track.ingest_allocs": per("StepIngest", costs["StepIngest"].objects),
			"track.solve_allocs":  per("StepSolve", costs["StepSolve"].objects),
			"track.solve_kb":      per("StepSolve", costs["StepSolve"].bytes) / 1024,
			// The window also ran the untraced twins; count only the
			// traced fixes' own allocations.
			"go.allocs_per_fix":          ratio(float64(allocs), tracedFixes),
			"bench.trace_overhead_ratio": ratio(median(tracedMs), median(plainMs)),
		}
		out.layers = layerMetrics(w, 0, set)
		stages := set["track.ingest_ms"] + set["track.solve_ms"] + set["track.track_us"]/1e3
		out.named["traced_fix_ms"] = summarize(tracedMs)
		out.named["stage_self_share_of_fix_ms_p50"] = ratio(stages, median(plainMs))
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
