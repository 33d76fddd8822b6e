package main

import (
	"time"

	"chronos/internal/svc"
)

// The survey workload: rounds of full devices on a virtual-time daemon
// in chronos-svc's default configuration (inline path, shared
// coalescer). Each round attaches surveyDevices devices at once, each
// with a fixed sweep budget, and is timed from attach until the daemon
// is quiet again. It is the only workload where many sessions contend,
// so shard scheduling and coalesced batching get real work.
const (
	surveyShards  = 8
	surveyDevices = 32
	surveyBudget  = 4
	// surveyAccuracyRounds bounds the rounds the accuracy metrics
	// cover, so they depend on the seed alone.
	surveyAccuracyRounds = 2
	// pollEvery is the retirement poll period of the daemon workloads.
	pollEvery = 500 * time.Microsecond
)

type surveyBench struct {
	d    *svc.Daemon
	seed func() int64
}

func setupSurvey(o options, tr *tracer) (workload, error) {
	d := svc.NewDaemon(svc.Config{
		Shards: surveyShards, Office: newOffice(), Virtual: true, Coalesce: true,
	})
	return &surveyBench{d: d, seed: seeder(o.seed)}, nil
}

func (b *surveyBench) run(o options, tr *tracer) (*outcome, error) {
	out := &outcome{}
	hp := newLiveHeap()
	ret := newRetirements(b.d)
	var before probe
	if tr != nil {
		before = takeProbe()
	}

	var makespan, cpu time.Duration
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	short, wrongBudget, bad := 0, 0, 0
	for round := 0; ; round++ {
		start, cpu0 := time.Now(), processCPU()
		attachedAt := make(map[uint64]time.Time, surveyDevices)
		for j := 0; j < surveyDevices; j++ {
			id := uint64(round*surveyDevices + j + 1)
			out.attempted++
			err := b.d.Attach(id, svc.DeviceConfig{Seed: b.seed(), Session: walking(surveyBudget), Estimator: estimatorConfig()})
			if err != nil {
				out.failed++
				continue
			}
			ret.attach()
			attachedAt[id] = time.Now()
		}
		hard := start.Add(maxRound)
		for ret.pending() > 0 && time.Now().Before(hard) {
			now := time.Now()
			for _, r := range ret.poll() {
				out.latencyMs = append(out.latencyMs, ms(now.Sub(attachedAt[r.ID])))
				tr.add("device", "svc", r.ID, attachedAt[r.ID], now)
				switch {
				case r.Err != nil || r.Session == nil:
					out.failed++
					continue
				case len(r.Session.Fixes) != surveyBudget:
					wrongBudget++
				}
				out.fixes += len(r.Session.Fixes)
				for _, f := range r.Session.Fixes {
					if !finite(f) {
						bad++
					}
					if round < surveyAccuracyRounds {
						out.errCm = append(out.errCm, errCm(f))
					}
				}
			}
			hp.sample(now)
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
	out.check("budget", wrongBudget == 0, "%d devices retired without exactly %d fixes", wrongBudget, surveyBudget)
	out.check("finite", bad == 0, "%d non-finite fixes", bad)
	out.check("no_errors", out.failed == 0, "%d devices failed", out.failed)
	out.named = map[string]any{"device_ms": summarize(out.latencyMs)}
	if tr != nil {
		out.layers = layerMetrics(window{a: before, b: after}, 0, nil)
	}
	return out, nil
}

// maxRound bounds one survey round or the fleet's wait for its last
// arrivals; a device not retired by then counts as failed.
const maxRound = 60 * time.Second
