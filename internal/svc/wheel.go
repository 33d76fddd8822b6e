// Package svc is the always-on localization service: a long-running
// daemon that continuously tracks every attached device through the full
// Chronos pipeline. It is organized around per-shard exclusive ownership
// (modeled on ndn-dpdk's service architecture): devices shard by an FNV
// hash of their ID, each shard's goroutine exclusively owns its
// sessions' warm solver state, Kalman trackers, and alias-window seeds —
// no cross-shard locking on any per-device state — and a hierarchical
// timer wheel per shard drives sweep scheduling for thousands of
// sessions. Shards feed one shared tof.Coalescer (plan-keyed
// internally), so concurrent sweeps across shards batch into SolveBatch
// calls; the internal/obs layer is the management surface.
//
// The wheel, and therefore the whole daemon, runs on virtual time under
// test and wall time in production: in virtual mode a shard advances its
// wheel directly to the next pending timer, so a daemon run is
// deterministic per device — byte-identical to sequential
// track.RunSession calls with the same seeds, at any shard count.
package svc

import (
	"sort"
	"time"
)

const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64 slots per level
	wheelMask   = wheelSlots - 1
	wheelLevels = 4 // span = tick × 64⁴ (≈ 4.6 days at 1 ms ticks)
)

// wheelSpan is the wheel's direct horizon in ticks; timers due further
// out park in an overflow list until they come within range.
const wheelSpan = int64(1) << (wheelBits * wheelLevels)

type timerState uint8

const (
	timerPending timerState = iota
	timerFired
	timerCanceled
)

// WheelTimer is one scheduled callback. Handles are single-owner, like
// the wheel itself: only the owning shard schedules, cancels, or fires.
type WheelTimer struct {
	due   int64 // tick at which the timer fires
	seq   uint64
	fn    func()
	state timerState
}

// Due returns the timer's fire time on the wheel's clock.
func (t *WheelTimer) Due(w *Wheel) time.Duration { return time.Duration(t.due) * w.tick }

// Wheel is a hierarchical timing wheel: wheelLevels levels of 64 slots,
// each level covering 64× the span of the one below, with timers
// cascading toward level 0 as their due tick approaches. Insertion and
// cancellation are O(1); advancing one tick touches one level-0 slot
// plus an occasional cascade. The wheel has no clock of its own — the
// owner calls Advance with either wall-derived or virtual targets, which
// is what lets the daemon run deterministically under test.
//
// Fire order is monotonic: timers fire in non-decreasing due-tick order,
// and within one tick in scheduling order (FIFO by sequence number) —
// the property the fuzz harness pins. A Wheel is not safe for concurrent
// use; each shard owns exactly one.
type Wheel struct {
	tick  time.Duration
	cur   int64 // last processed tick; timers due ≤ cur have fired
	seq   uint64
	n     int   // pending (scheduled, not yet fired or canceled)
	fired int64 // lifetime fired count
	slots [wheelLevels][wheelSlots][]*WheelTimer
	// levelN counts timers physically filed per level (canceled residue
	// included); Advance uses it to stride over empty tick ranges
	// instead of visiting every slot.
	levelN   [wheelLevels]int
	overflow []*WheelTimer // due beyond the wheel's span
	scratch  []*WheelTimer
}

// NewWheel builds a wheel with the given tick granularity (default 1 ms:
// fine enough to pace ~84 ms sweep cadences, coarse enough that a shard
// advancing wall time does ~1k slot touches per second).
func NewWheel(tick time.Duration) *Wheel {
	if tick <= 0 {
		tick = time.Millisecond
	}
	return &Wheel{tick: tick}
}

// Tick returns the wheel's tick granularity.
func (w *Wheel) Tick() time.Duration { return w.tick }

// Now returns the wheel's current time (the last processed tick).
func (w *Wheel) Now() time.Duration { return time.Duration(w.cur) * w.tick }

// Len returns the number of pending timers.
func (w *Wheel) Len() int { return w.n }

// Fired returns the lifetime count of fired timers.
func (w *Wheel) Fired() int64 { return w.fired }

// ScheduleAt schedules fn at absolute wheel time at, rounded up to the
// next tick; times at or before the current tick fire on the next
// Advance. The returned handle cancels via Wheel.Cancel.
func (w *Wheel) ScheduleAt(at time.Duration, fn func()) *WheelTimer {
	dueTick := (int64(at) + int64(w.tick) - 1) / int64(w.tick)
	if dueTick <= w.cur {
		dueTick = w.cur + 1
	}
	t := &WheelTimer{due: dueTick, seq: w.seq, fn: fn}
	w.seq++
	w.place(t)
	w.n++
	return t
}

// Schedule schedules fn after delay of wheel time.
func (w *Wheel) Schedule(delay time.Duration, fn func()) *WheelTimer {
	return w.ScheduleAt(w.Now()+delay, fn)
}

// Cancel prevents a pending timer from firing. It reports whether the
// timer was still pending (false if already fired or canceled).
func (w *Wheel) Cancel(t *WheelTimer) bool {
	if t == nil || t.state != timerPending {
		return false
	}
	t.state = timerCanceled
	// A canceled timer stays filed in its slot until the wheel next
	// visits it, which on an idle or virtual-time wheel can be never;
	// dropping the callback keeps it from holding the session it
	// closes over alive that long.
	t.fn = nil
	w.n--
	return true
}

// place files a timer into the level whose span covers its remaining
// delta. Level ℓ slots are indexed by due-tick bits [6ℓ, 6ℓ+6): a timer
// with delta ≤ 64^(ℓ+1) lands in the level-ℓ slot that is visited
// (fired for ℓ=0, cascaded for ℓ≥1) exactly at — or one cascade before —
// its due tick. Deltas beyond the wheel's span park in overflow.
func (w *Wheel) place(t *WheelTimer) {
	delta := t.due - w.cur
	if delta > wheelSpan {
		w.overflow = append(w.overflow, t)
		return
	}
	span := int64(wheelSlots)
	for l := 0; l < wheelLevels; l++ {
		if delta <= span {
			idx := (t.due >> (wheelBits * l)) & wheelMask
			w.slots[l][idx] = append(w.slots[l][idx], t)
			w.levelN[l]++
			return
		}
		span <<= wheelBits
	}
	// Unreachable: delta ≤ wheelSpan always fits the top level.
	w.overflow = append(w.overflow, t)
}

// Advance processes every tick in (Now, to], cascading higher levels at
// their boundaries and firing due timers in (due, seq) order. It returns
// the number of timers fired. Callbacks may schedule and cancel freely;
// a callback's same-tick schedules fire on the next Advance, never
// recursively within this one.
func (w *Wheel) Advance(to time.Duration) int {
	toTick := int64(to) / int64(w.tick)
	fired := 0
	for w.cur < toTick {
		if w.n == 0 {
			// Nothing pending anywhere: jump straight to the target.
			w.cur = toTick
			break
		}
		// Stride over tick ranges no filed timer can fire or cascade in:
		// with levels 0..k-1 empty, nothing happens until the next
		// level-k cascade boundary (a multiple of 64^k).
		stride := int64(1)
		for l := 0; l < wheelLevels-1 && w.levelN[l] == 0; l++ {
			stride <<= wheelBits
		}
		if stride > 1 {
			next := (w.cur/stride + 1) * stride
			if next-1 > toTick {
				w.cur = toTick
				break
			}
			w.cur = next - 1
		}
		t := w.cur + 1
		w.cur = t

		// Cascade top-down at each level's boundary so a timer parked
		// high can sift through several levels in one tick.
		if t&((int64(1)<<(wheelBits*(wheelLevels-1)))-1) == 0 && len(w.overflow) > 0 {
			w.recheckOverflow()
		}
		for l := wheelLevels - 1; l >= 1; l-- {
			if t&((int64(1)<<(wheelBits*l))-1) != 0 {
				continue
			}
			idx := (t >> (wheelBits * l)) & wheelMask
			moved := w.slots[l][idx]
			if len(moved) == 0 {
				continue
			}
			w.slots[l][idx] = nil
			w.levelN[l] -= len(moved)
			for _, tm := range moved {
				if tm.state != timerPending {
					continue // canceled while parked: drop it here
				}
				w.place(tm)
			}
		}

		slot := &w.slots[0][t&wheelMask]
		if len(*slot) == 0 {
			continue
		}
		w.scratch = append(w.scratch[:0], *slot...)
		w.levelN[0] -= len(*slot)
		*slot = (*slot)[:0]
		// FIFO within the tick: cascades append in slot order, so
		// restore scheduling order explicitly.
		sort.Slice(w.scratch, func(i, j int) bool { return w.scratch[i].seq < w.scratch[j].seq })
		for _, tm := range w.scratch {
			if tm.state != timerPending {
				continue
			}
			if tm.due > t {
				// A level-0 slot is revisited every 64 ticks, so a
				// not-yet-due timer sharing the slot index re-files.
				w.place(tm)
				continue
			}
			tm.state = timerFired
			w.n--
			w.fired++
			fired++
			obsTimerFires.Inc()
			fn := tm.fn
			tm.fn = nil // the scratch and slot arrays keep fired timers
			fn()
		}
	}
	return fired
}

// recheckOverflow re-files parked beyond-span timers that have come
// within the wheel's horizon. Called at top-level boundaries (every 64³
// ticks) and from NextTick, so overflow timers cost nothing per tick.
func (w *Wheel) recheckOverflow() {
	kept := w.overflow[:0]
	for _, tm := range w.overflow {
		if tm.state != timerPending {
			continue
		}
		if tm.due-w.cur <= wheelSpan {
			w.place(tm)
		} else {
			kept = append(kept, tm)
		}
	}
	w.overflow = kept
}

// NextTick scans for the earliest pending timer and returns its due tick.
// The scan is O(pending + slots) — cheap at shard scale, and only the
// idle edge of the loop pays it (a busy shard advances straight to due
// work). Returns false when nothing is pending.
func (w *Wheel) NextTick() (int64, bool) {
	if w.n == 0 {
		return 0, false
	}
	best := int64(-1)
	consider := func(t *WheelTimer) {
		if t.state == timerPending && (best < 0 || t.due < best) {
			best = t.due
		}
	}
	for l := 0; l < wheelLevels; l++ {
		for s := 0; s < wheelSlots; s++ {
			for _, t := range w.slots[l][s] {
				consider(t)
			}
		}
	}
	for _, t := range w.overflow {
		consider(t)
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// NextDue is NextTick on the wheel's clock — what a wall-time shard loop
// sleeps toward.
func (w *Wheel) NextDue() (time.Duration, bool) {
	t, ok := w.NextTick()
	return time.Duration(t) * w.tick, ok
}

// AdvanceToNext advances the wheel to its earliest pending timer and
// fires everything due there — the virtual-time stepping primitive.
// Returns the number fired (0 when nothing is pending).
func (w *Wheel) AdvanceToNext() int {
	t, ok := w.NextTick()
	if !ok {
		return 0
	}
	return w.Advance(time.Duration(t) * w.tick)
}
