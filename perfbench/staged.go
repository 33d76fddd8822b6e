package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"chronos/internal/obs"
	"chronos/internal/sim"
	"chronos/internal/svc"
	"chronos/internal/tof"
	"chronos/internal/track"
)

// The staged workload: rounds on a virtual-time daemon in the fleet's
// staged-pipeline configuration (class queue, preemption, coalescer).
// Each round attaches 2·nproc bulk-class devices with a fixed sweep
// budget and, while any of them is still running, keeps nproc/2
// latency-class devices in flight in a closed loop: each calibrates from
// cold, takes one fix and retires, and is replaced at once. Virtual time
// leaves the bulk devices unpaced, so the solve workers stay saturated
// and every latency arrival has to get through the class queue and
// preempt a bulk solve. The round is timed from its first attach until
// the daemon is quiet.
const (
	stagedBudget = 6
	// stagedAccuracyArrivals bounds the latency arrivals the accuracy
	// metrics cover, so they depend on the seed alone.
	stagedAccuracyArrivals = 16
	// latencySeedSalt separates the latency arrivals' seed stream from
	// the bulk devices', so neither depends on how the two interleave.
	latencySeedSalt = 0x5eed1a7
)

type stagedBench struct {
	d           *svc.Daemon
	office      *sim.Office
	bulkSeed    func() int64
	latencySeed func() int64
	workers     int
	nBulk, nLat int
}

func setupStaged(o options, tr *tracer) (workload, error) {
	cfg := fleetConfig()
	cfg.Virtual = true
	cfg.Office = newOffice()
	return &stagedBench{
		d: svc.NewDaemon(cfg), office: cfg.Office,
		bulkSeed: seeder(o.seed), latencySeed: seeder(o.seed ^ latencySeedSalt),
		workers: cfg.Pipeline.SolveWorkers,
		nBulk:   2 * runtime.NumCPU(), nLat: max(1, runtime.NumCPU()/2),
	}, nil
}

func (b *stagedBench) run(o options, tr *tracer) (*outcome, error) {
	out := &outcome{}
	hp := newLiveHeap()
	ret := newRetirements(b.d)
	pc := &pollClock{every: pollEvery}
	var before probe
	var queueSum float64
	queueSamples := 0
	nextQueueSample := time.Now()
	if tr != nil {
		before = takeProbe()
	}

	arrivals := make(map[uint64]*arrival)
	nextLatency := uint64(1)
	issue := func(now time.Time) {
		id := nextLatency
		nextLatency++
		a := &arrival{seed: b.latencySeed(), due: now}
		arrivals[id] = a
		out.attempted++
		dc := svc.DeviceConfig{Seed: a.seed, Class: svc.ClassLatency, Session: walking(1), Estimator: estimatorConfig()}
		if err := b.d.Attach(id, dc); err != nil {
			out.failed++
			return
		}
		a.attached = time.Now()
		ret.attach()
	}

	var makespan, cpu time.Duration
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	short, wrongBudget, bad := 0, 0, 0
	for round := 0; ; round++ {
		start, cpu0 := time.Now(), processCPU()
		pc.restart()
		for j := 0; j < b.nBulk; j++ {
			id := uint64(bulkIDBase + round*b.nBulk + j)
			out.attempted++
			dc := svc.DeviceConfig{Seed: b.bulkSeed(), Class: svc.ClassBulk, Session: walking(stagedBudget), Estimator: estimatorConfig()}
			if err := b.d.Attach(id, dc); err != nil {
				out.failed++
				continue
			}
			ret.attach()
		}
		bulkLeft, latLive := b.nBulk, 0
		hard := start.Add(maxRound)
		for ret.pending() > 0 && time.Now().Before(hard) {
			now := time.Now()
			pc.tick(now)
			for _, r := range ret.poll() {
				a := arrivals[r.ID]
				if a == nil {
					bulkLeft--
				} else {
					latLive--
					a.done = now
					tr.add("arrival", "svc", r.ID, a.attached, now)
				}
				if r.Err != nil || r.Session == nil {
					out.failed++
					continue
				}
				budget := stagedBudget
				if a != nil {
					budget = 1
				}
				if len(r.Session.Fixes) != budget {
					wrongBudget++
				}
				out.fixes += len(r.Session.Fixes)
				for _, f := range r.Session.Fixes {
					if !finite(f) {
						bad++
					}
				}
				if a != nil {
					out.latencyMs = append(out.latencyMs, ms(now.Sub(a.due)))
					if r.ID <= stagedAccuracyArrivals && len(r.Session.Fixes) > 0 {
						out.errCm = append(out.errCm, errCm(r.Session.Fixes[0]))
					}
				}
			}
			for bulkLeft > 0 && latLive < b.nLat {
				issue(now)
				latLive++
			}
			hp.sample(now)
			if tr != nil && !now.Before(nextQueueSample) {
				queueSum += obs.Capture().Gauges["svc.pipe.queue.solve_bulk"]
				queueSamples++
				nextQueueSample = now.Add(queueSampleEvery)
			}
			time.Sleep(pollEvery)
		}
		if err := b.d.Quiesce(time.Second); err != nil {
			short += ret.pending()
			out.failed += ret.pending()
			makespan += time.Since(start)
			cpu += processCPU() - cpu0
			break
		}
		makespan += time.Since(start)
		cpu += processCPU() - cpu0
		if !time.Now().Before(deadline) {
			break
		}
	}
	out.seconds, out.cpuSeconds = makespan.Seconds(), cpu.Seconds()
	out.heapMB = hp.medianMB()

	var after probe
	if tr != nil {
		after = takeProbe()
	}
	if _, err := b.d.Drain(30 * time.Second); err != nil {
		return nil, err
	}
	res := b.d.Results()
	out.check("accounted", len(res) == ret.attached && short == 0,
		"%d attached, %d retired, %d unfinished", ret.attached, len(res), short)
	out.check("budget", wrongBudget == 0,
		"%d devices retired without exactly their budget (%d bulk, 1 latency)", wrongBudget, stagedBudget)
	out.check("finite", bad == 0, "%d non-finite fixes", bad)
	out.check("no_errors", out.failed == 0, "%d devices failed", out.failed)
	checkIdentity(out, b.office, arrivals, res, int(nextLatency-1))

	out.named = map[string]any{"ttff_ms": summarize(out.latencyMs), "gen_late_ms": ms(pc.late)}
	if tr != nil {
		out.layers = layerMetrics(window{a: before, b: after}, b.workers, map[string]float64{
			"svc.queue_bulk":    ratio(queueSum, float64(queueSamples)),
			"bench.gen_late_ms": ms(pc.late),
		})
	}
	return out, nil
}

// identitySampled is how many latency arrivals are re-run through
// track.RunSession to check byte identity.
const identitySampled = 8

// checkIdentity re-runs evenly spaced latency arrivals (IDs 1..n)
// through track.RunSession with the same seed and configuration; the
// daemon's fix traces must match byte for byte. Latency-class solves
// are never preempted, so they stay bit-identical. It runs after the
// timed window.
func checkIdentity(out *outcome, office *sim.Office, arrivals map[uint64]*arrival, res map[uint64]*svc.DeviceResult, n int) {
	for k := 0; k < identitySampled && n > 0; k++ {
		id := uint64(k*n/identitySampled + 1)
		name := fmt.Sprintf("arrival%d.identical", id)
		a, r := arrivals[id], res[id]
		if a == nil || r == nil || r.Session == nil {
			out.check(name, false, "no result")
			continue
		}
		want, err := track.RunSession(rand.New(rand.NewSource(a.seed)), office,
			tof.NewEstimator(estimatorConfig()), walking(1))
		if err != nil {
			out.check(name, false, "RunSession: %v", err)
			continue
		}
		out.check(name, fixTable(want.Fixes) == fixTable(r.Session.Fixes),
			"daemon fix trace differs from track.RunSession")
	}
}
