package main

import (
	"time"

	"chronos/internal/svc"
)

// openLoop is the fleet workload's arrival schedule: n arrivals evenly
// spaced at a fixed rate from start, issued on time whether or not the
// daemon keeps up. Every arrival is timed from its due instant, so a
// stalled generator or daemon shows up as latency instead of as less
// offered load.
type openLoop struct {
	start    time.Time
	interval time.Duration
	n        int
	next     int
	// late is the worst issue lateness so far: how long after its due
	// instant the generator actually issued an arrival.
	late time.Duration
}

// newOpenLoop schedules every arrival due inside window at rate per
// second; the first is due at start.
func newOpenLoop(start time.Time, rate float64, window time.Duration) *openLoop {
	interval := time.Duration(float64(time.Second) / rate)
	return &openLoop{start: start, interval: interval, n: int(window / interval)}
}

// due is arrival i's scheduled instant.
func (g *openLoop) due(i int) time.Time { return g.start.Add(time.Duration(i) * g.interval) }

// nextDue reports the next unissued arrival's due instant.
func (g *openLoop) nextDue() (time.Time, bool) {
	if g.next >= g.n {
		return time.Time{}, false
	}
	return g.due(g.next), true
}

// release issues, in order, every arrival due at or before now, and
// charges each one's lateness against now.
func (g *openLoop) release(now time.Time, issue func(i int, due time.Time)) {
	for g.next < g.n {
		d := g.due(g.next)
		if d.After(now) {
			return
		}
		if l := now.Sub(d); l > g.late {
			g.late = l
		}
		issue(g.next, d)
		g.next++
	}
}

// pollClock measures a closed-loop generator's lateness: its poll loop
// means to run every period, and each poll that comes later than that
// after the previous one is late by the difference. The worst lateness
// bounds how far an observed retirement time can trail the real one.
type pollClock struct {
	every time.Duration
	last  time.Time
	late  time.Duration
}

// tick records a poll at now.
func (c *pollClock) tick(now time.Time) {
	if !c.last.IsZero() {
		if l := now.Sub(c.last.Add(c.every)); l > c.late {
			c.late = l
		}
	}
	c.last = now
}

// restart forgets the previous poll, so a deliberate pause between
// polls is not charged as lateness.
func (c *pollClock) restart() { c.last = time.Time{} }

// retirements finds a daemon's newly retired devices from a poll loop
// without copying the results map on every poll. Live sessions plus
// queued lifecycle commands move only on attach (which the caller
// reports) and on retirement, so the map is read only when that sum
// falls below what the attaches explain.
type retirements struct {
	d        *svc.Daemon
	attached int
	seen     map[uint64]bool
}

func newRetirements(d *svc.Daemon) *retirements {
	return &retirements{d: d, seen: make(map[uint64]bool)}
}

// attach records one successful Attach.
func (r *retirements) attach() { r.attached++ }

// pending is the number of attached devices not yet seen retiring.
func (r *retirements) pending() int { return r.attached - len(r.seen) }

// poll returns the devices that retired since the last poll. The two
// counters are read one after the other while shards update them, so
// the sum can be off by one while an attach goes live: too low costs a
// wasted map read, too high delays a retirement to the next poll.
func (r *retirements) poll() []*svc.DeviceResult {
	if r.d.Sessions()+r.d.QueueDepth() >= r.pending() {
		return nil
	}
	var out []*svc.DeviceResult
	for id, res := range r.d.Results() {
		if !r.seen[id] {
			r.seen[id] = true
			out = append(out, res)
		}
	}
	return out
}
