package main

import (
	"fmt"
	"runtime"
	"time"

	"chronos/internal/obs"
	"chronos/internal/sim"
	"chronos/internal/svc"
)

// The fleet workload: an open loop against a wall-clock daemon in the
// staged-pipeline configuration. nproc/2 endless bulk-class devices,
// paced by the hop protocol, load the box in the background; new
// latency-class devices arrive on a fixed schedule, calibrate from
// cold, take one fix and retire. Each arrival's time to first fix runs
// from its due instant to its observed retirement.
const (
	// fleetRatePerCore is the arrival rate per core, per second.
	fleetRatePerCore = 1.5
	// ttffLimit is the interactive latency limit on time to first fix.
	ttffLimit = 300 * time.Millisecond
	// queueSampleEvery paces the traced run's queue-depth samples.
	queueSampleEvery = 100 * time.Millisecond
	bulkIDBase       = 1 << 32
)

type fleetBench struct {
	d       *svc.Daemon
	office  *sim.Office
	seed    func() int64
	ret     *retirements
	bulk    []uint64
	workers int
	live    time.Time     // when the background fleet was live
	liveCPU time.Duration // the process's CPU time then
}

func fleetConfig() svc.Config {
	n := runtime.NumCPU()
	return svc.Config{
		Shards: n, Coalesce: true,
		Pipeline: svc.PipelineConfig{Enabled: true, Preempt: true, IngestWorkers: 1, SolveWorkers: n, TrackWorkers: 1},
	}
}

func setupFleet(o options, tr *tracer) (workload, error) {
	cfg := fleetConfig()
	cfg.Office = newOffice()
	d := svc.NewDaemon(cfg)
	b := &fleetBench{d: d, office: cfg.Office, seed: seeder(o.seed), ret: newRetirements(d), workers: cfg.Pipeline.SolveWorkers}
	nBulk := max(1, runtime.NumCPU()/2)
	for i := 0; i < nBulk; i++ {
		id := uint64(bulkIDBase + i)
		// Bulk devices are stationary (inventory being surveyed), unlike
		// the walking arrivals.
		sc := walking(-1)
		sc.Speed = 0
		dc := svc.DeviceConfig{Seed: b.seed(), Class: svc.ClassBulk, Session: sc, Estimator: estimatorConfig()}
		if err := d.Attach(id, dc); err != nil {
			return nil, fmt.Errorf("bulk attach: %w", err)
		}
		b.ret.attach()
		b.bulk = append(b.bulk, id)
	}
	// Attach is asynchronous: the fleet is live once every bulk device
	// has calibrated on its shard.
	for d.Sessions() < nBulk || d.QueueDepth() > 0 {
		if res := b.ret.poll(); len(res) > 0 {
			return nil, fmt.Errorf("bulk device %d retired during set-up: %v", res[0].ID, res[0].Err)
		}
		time.Sleep(pollEvery)
	}
	b.live, b.liveCPU = time.Now(), processCPU()
	return b, nil
}

// arrival is one latency-class device of the open loop.
type arrival struct {
	seed     int64
	due      time.Time
	attached time.Time
	done     time.Time // retirement observed; zero while pending
}

func (b *fleetBench) run(o options, tr *tracer) (*outcome, error) {
	out := &outcome{}
	hp := newLiveHeap()
	var before probe
	var queueSum float64
	queueSamples := 0
	nextQueueSample := time.Now()
	if tr != nil {
		before = takeProbe()
	}

	rate := fleetRatePerCore * float64(runtime.NumCPU())
	gen := newOpenLoop(time.Now(), rate, time.Duration(o.seconds)*time.Second)
	arrivals := make(map[uint64]*arrival, gen.n)
	issue := func(i int, due time.Time) {
		a := &arrival{seed: b.seed(), due: due}
		id := uint64(i + 1)
		arrivals[id] = a
		out.attempted++
		dc := svc.DeviceConfig{Seed: a.seed, Class: svc.ClassLatency, Session: walking(1), Estimator: estimatorConfig()}
		if err := b.d.Attach(id, dc); err != nil {
			out.failed++
			return
		}
		a.attached = time.Now()
		b.ret.attach()
	}
	hard := gen.due(gen.n).Add(maxRound)
	for {
		now := time.Now()
		gen.release(now, issue)
		for _, r := range b.ret.poll() {
			if a := arrivals[r.ID]; a != nil {
				a.done = now
				tr.add("arrival", "svc", r.ID, a.attached, now)
			}
		}
		hp.sample(now)
		if tr != nil && !now.Before(nextQueueSample) {
			queueSum += obs.Capture().Gauges["svc.pipe.queue.solve_bulk"]
			queueSamples++
			nextQueueSample = now.Add(queueSampleEvery)
		}
		_, more := gen.nextDue()
		if (!more && b.ret.pending() == len(b.bulk)) || now.After(hard) {
			break
		}
		sleep := pollEvery
		if due, ok := gen.nextDue(); ok && time.Until(due) < sleep {
			sleep = time.Until(due)
		}
		time.Sleep(sleep)
	}

	// Stop the background fleet and count its fixes.
	for _, id := range b.bulk {
		if err := b.d.Detach(id); err != nil {
			return nil, fmt.Errorf("detach bulk: %w", err)
		}
	}
	end, endCPU := time.Now(), processCPU()
	var after probe
	if tr != nil {
		after = takeProbe()
	}
	if _, err := b.d.Drain(30 * time.Second); err != nil {
		return nil, err
	}
	res := b.d.Results()

	bad, unfinished, bulkFailed := 0, 0, 0
	for _, id := range b.bulk {
		out.attempted++
		r := res[id]
		if r == nil || r.Err != nil || r.Session == nil {
			bulkFailed++
			continue
		}
		out.fixes += len(r.Session.Fixes)
		for _, f := range r.Session.Fixes {
			if !finite(f) {
				bad++
			}
		}
	}
	out.failed += bulkFailed
	out.seconds, out.cpuSeconds = end.Sub(b.live).Seconds(), (endCPU - b.liveCPU).Seconds()

	var ttff []float64
	slo := 0
	for id := uint64(1); id <= uint64(gen.n); id++ {
		a := arrivals[id]
		if a == nil || a.attached.IsZero() {
			continue
		}
		r := res[id]
		switch {
		case r == nil || r.Err != nil || r.Session == nil:
			out.failed++
			continue
		case a.done.IsZero() || len(r.Session.Fixes) != 1:
			unfinished++
			out.failed++
			continue
		}
		f := r.Session.Fixes[0]
		if !finite(f) {
			bad++
		}
		out.errCm = append(out.errCm, errCm(f))
		t := a.done.Sub(a.due)
		ttff = append(ttff, ms(t))
		if t <= ttffLimit {
			slo++
		}
	}
	out.latencyMs = ttff
	out.heapMB = hp.medianMB()
	out.check("accounted", len(res) == b.ret.attached, "%d attached, %d retired", b.ret.attached, len(res))
	out.check("no_errors", out.failed == 0, "%d failed (%d arrivals unfinished, %d bulk)", out.failed, unfinished, bulkFailed)
	out.check("finite", bad == 0, "%d non-finite fixes", bad)
	checkIdentity(out, b.office, arrivals, res, gen.n)

	out.named = map[string]any{
		"offered_per_s":  rate,
		"ttff_ms":        summarize(ttff),
		"ttff_slo_ratio": ratio(float64(slo), float64(gen.n)),
		"gen_late_ms":    ms(gen.late),
	}
	if tr != nil {
		out.layers = layerMetrics(window{a: before, b: after}, b.workers, map[string]float64{
			"svc.queue_bulk":    ratio(queueSum, float64(queueSamples)),
			"bench.gen_late_ms": ms(gen.late),
		})
	}
	return out, nil
}
