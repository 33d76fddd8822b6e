package svc

import (
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// TestWheelFiresInOrder schedules timers at scattered delays — same
// tick, adjacent ticks, across cascade boundaries — and asserts they
// fire in (due, seq) order at exactly their due ticks.
func TestWheelFiresInOrder(t *testing.T) {
	w := NewWheel(time.Millisecond)
	type fire struct {
		due time.Duration
		seq int
	}
	var got []fire
	delays := []time.Duration{
		5 * time.Millisecond,
		5 * time.Millisecond, // same tick: FIFO by schedule order
		1 * time.Millisecond,
		64 * time.Millisecond,                          // level-0/1 boundary
		65 * time.Millisecond,                          // just past it
		4096 * time.Millisecond,                        // level-1/2 boundary
		time.Duration(wheelSpan+10) * time.Millisecond, // overflow
	}
	for i, d := range delays {
		i, d := i, d
		w.Schedule(d, func() { got = append(got, fire{w.Now(), i}) })
	}
	if w.Len() != len(delays) {
		t.Fatalf("Len=%d want %d", w.Len(), len(delays))
	}
	w.Advance(time.Duration(wheelSpan+20) * time.Millisecond)
	if len(got) != len(delays) {
		t.Fatalf("fired %d of %d timers", len(got), len(delays))
	}
	if w.Len() != 0 {
		t.Errorf("Len=%d after firing everything", w.Len())
	}
	for i := 1; i < len(got); i++ {
		if got[i].due < got[i-1].due {
			t.Errorf("fire %d at %v before fire %d at %v", i, got[i].due, i-1, got[i-1].due)
		}
	}
	// Each timer fires at exactly its due time.
	want := make([]time.Duration, len(delays))
	copy(want, delays)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i, f := range got {
		if f.due != want[i] {
			t.Errorf("fire %d at %v, want %v", i, f.due, want[i])
		}
	}
	// Same-tick FIFO: the two 5 ms timers keep schedule order.
	var at5 []int
	for _, f := range got {
		if f.due == 5*time.Millisecond {
			at5 = append(at5, f.seq)
		}
	}
	if len(at5) != 2 || at5[0] != 0 || at5[1] != 1 {
		t.Errorf("same-tick order %v, want [0 1]", at5)
	}
}

// TestWheelCancel pins cancellation semantics: a canceled timer never
// fires, Cancel is idempotent, and canceling a fired timer reports false.
func TestWheelCancel(t *testing.T) {
	w := NewWheel(time.Millisecond)
	fired := 0
	keep := w.Schedule(3*time.Millisecond, func() { fired++ })
	drop := w.Schedule(3*time.Millisecond, func() { t.Error("canceled timer fired") })
	far := w.Schedule(200*time.Millisecond, func() { t.Error("canceled parked timer fired") })
	over := w.Schedule(time.Duration(wheelSpan+5)*time.Millisecond, func() { t.Error("canceled overflow timer fired") })
	if !w.Cancel(drop) || !w.Cancel(far) || !w.Cancel(over) {
		t.Fatal("Cancel of pending timers returned false")
	}
	if w.Cancel(drop) {
		t.Error("second Cancel returned true")
	}
	if w.Len() != 1 {
		t.Fatalf("Len=%d want 1", w.Len())
	}
	w.Advance(time.Duration(wheelSpan+10) * time.Millisecond)
	if fired != 1 {
		t.Errorf("fired=%d want 1", fired)
	}
	if w.Cancel(keep) {
		t.Error("Cancel of fired timer returned true")
	}
	if w.Cancel(nil) {
		t.Error("Cancel(nil) returned true")
	}
}

// TestWheelReleasesCallbacks pins that the wheel stops referencing a
// callback once it can no longer run: a canceled timer stays filed in
// its slot until the wheel next visits it (never, on a wheel that jumps
// idle time), and fired timers linger in the slot and scratch arrays.
// A session retired by Cancel must not stay reachable through either,
// or the daemon's live heap grows with every device it has retired.
func TestWheelReleasesCallbacks(t *testing.T) {
	w := NewWheel(time.Millisecond)
	var released atomic.Int32
	capture := func() func() {
		state := new([1 << 10]float64)
		runtime.SetFinalizer(state, func(*[1 << 10]float64) { released.Add(1) })
		return func() { state[0]++ }
	}
	canceled := w.Schedule(time.Hour, capture())
	w.Schedule(2*time.Millisecond, capture())
	if !w.Cancel(canceled) {
		t.Fatal("Cancel of a pending timer returned false")
	}
	if w.Advance(5*time.Millisecond) != 1 {
		t.Fatal("due timer did not fire")
	}
	for i := 0; i < 50 && released.Load() < 2; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := released.Load(); n != 2 {
		t.Errorf("%d of 2 callbacks released while the wheel is live", n)
	}
	runtime.KeepAlive(w)
}

// TestWheelPastDue pins the clamp: scheduling at or before Now fires on
// the very next tick, never silently in the past.
func TestWheelPastDue(t *testing.T) {
	w := NewWheel(time.Millisecond)
	w.Advance(10 * time.Millisecond)
	var at time.Duration
	w.ScheduleAt(2*time.Millisecond, func() { at = w.Now() })
	w.Advance(20 * time.Millisecond)
	if at != 11*time.Millisecond {
		t.Errorf("past-due timer fired at %v, want 11ms", at)
	}
}

// TestWheelRescheduleFromCallback pins that a callback scheduling its
// successor (the daemon's sweep pattern) fires on a later Advance at the
// right tick, never recursively within the firing Advance.
func TestWheelRescheduleFromCallback(t *testing.T) {
	w := NewWheel(time.Millisecond)
	var fires []time.Duration
	var step func()
	step = func() {
		fires = append(fires, w.Now())
		if len(fires) < 5 {
			w.Schedule(84*time.Millisecond, step)
		}
	}
	w.Schedule(84*time.Millisecond, step)
	for i := 0; i < 5; i++ {
		if n := w.AdvanceToNext(); n != 1 {
			t.Fatalf("AdvanceToNext fired %d, want 1", n)
		}
	}
	if w.AdvanceToNext() != 0 {
		t.Error("idle wheel fired")
	}
	for i, at := range fires {
		if want := time.Duration(84*(i+1)) * time.Millisecond; at != want {
			t.Errorf("fire %d at %v, want %v", i, at, want)
		}
	}
}

// TestWheelNextDue pins the idle-edge scan used by the wall-time loop
// and virtual stepping.
func TestWheelNextDue(t *testing.T) {
	w := NewWheel(time.Millisecond)
	if _, ok := w.NextDue(); ok {
		t.Error("empty wheel reported a next due")
	}
	w.Schedule(700*time.Millisecond, func() {})
	tm := w.Schedule(3*time.Millisecond, func() {})
	if tm.Due(w) != 3*time.Millisecond {
		t.Errorf("Due=%v want 3ms", tm.Due(w))
	}
	if due, ok := w.NextDue(); !ok || due != 3*time.Millisecond {
		t.Errorf("NextDue=%v,%v want 3ms,true", due, ok)
	}
	w.Cancel(tm)
	if due, ok := w.NextDue(); !ok || due != 700*time.Millisecond {
		t.Errorf("NextDue=%v,%v after cancel, want 700ms,true", due, ok)
	}
}

// TestWheelDefaultTick pins the 1 ms default and ceil-to-tick rounding.
func TestWheelDefaultTick(t *testing.T) {
	w := NewWheel(0)
	if w.Tick() != time.Millisecond {
		t.Fatalf("default tick %v", w.Tick())
	}
	var at time.Duration
	w.ScheduleAt(1500*time.Microsecond, func() { at = w.Now() })
	w.Advance(5 * time.Millisecond)
	if at != 2*time.Millisecond {
		t.Errorf("sub-tick due fired at %v, want 2ms (ceil)", at)
	}
}

// TestWheelStrideSkip pins that a sparse wheel advances over huge empty
// ranges without per-tick cost: a single far timer fires correctly and
// Fired accounts for it.
func TestWheelStrideSkip(t *testing.T) {
	w := NewWheel(time.Millisecond)
	far := time.Duration(wheelSpan-3) * time.Millisecond
	hit := false
	w.ScheduleAt(far, func() { hit = true })
	if n := w.AdvanceToNext(); n != 1 || !hit {
		t.Fatalf("fired=%d hit=%v", n, hit)
	}
	if w.Now() != far {
		t.Errorf("Now=%v want %v", w.Now(), far)
	}
	if w.Fired() != 1 {
		t.Errorf("Fired=%d want 1", w.Fired())
	}
}

// wheelModel runs a random schedule/cancel/advance script against the
// wheel and an oracle (sorted list), asserting identical fire sequences:
// no lost timers, no duplicates, monotonic due order, FIFO within a
// tick. Shared by the fuzz target and the seeded random test.
func wheelModel(t *testing.T, data []byte) {
	t.Helper()
	w := NewWheel(time.Millisecond)
	type ev struct {
		id  int
		due int64
		seq uint64
	}
	var (
		handles []*WheelTimer
		meta    []ev
		alive   = map[int]ev{}
		fired   []ev
		oracle  []ev
		nextID  int
	)
	schedule := func(delay int64) {
		id := nextID
		nextID++
		var tm *WheelTimer
		tm = w.ScheduleAt(time.Duration(w.Now())+time.Duration(delay)*time.Millisecond, func() {
			fired = append(fired, ev{id, int64(w.Now() / time.Millisecond), tm.seq})
		})
		handles = append(handles, tm)
		e := ev{id, tm.due, tm.seq}
		meta = append(meta, e)
		alive[id] = e
	}
	for i := 0; i+2 < len(data); i += 3 {
		op, a, b := data[i], int64(data[i+1]), int64(data[i+2])
		switch op % 4 {
		case 0: // near schedule
			schedule(a + 1)
		case 1: // far schedule: cross cascade boundaries, sometimes overflow
			schedule((a+1)*257 + b<<17)
		case 2: // cancel a random handle (maybe already fired)
			if len(handles) > 0 {
				id := int(a) % len(handles)
				if w.Cancel(handles[id]) {
					delete(alive, meta[id].id)
				}
			}
		case 3: // advance
			target := w.Now() + time.Duration(a*64+b)*time.Millisecond
			tick := int64(target / time.Millisecond)
			for id, e := range alive {
				if e.due <= tick {
					oracle = append(oracle, e)
					delete(alive, id)
				}
			}
			w.Advance(target)
		}
	}
	// Flush everything still pending.
	for id, e := range alive {
		oracle = append(oracle, e)
		delete(alive, id)
	}
	for w.Len() > 0 {
		w.AdvanceToNext()
	}
	sort.Slice(oracle, func(i, j int) bool {
		if oracle[i].due != oracle[j].due {
			return oracle[i].due < oracle[j].due
		}
		return oracle[i].seq < oracle[j].seq
	})
	if len(fired) != len(oracle) {
		t.Fatalf("fired %d timers, oracle expects %d", len(fired), len(oracle))
	}
	for i := range fired {
		if fired[i].id != oracle[i].id {
			t.Fatalf("fire %d: got timer %d, oracle says %d", i, fired[i].id, oracle[i].id)
		}
		if fired[i].due != oracle[i].due {
			t.Fatalf("timer %d fired at tick %d, due %d", fired[i].id, fired[i].due, oracle[i].due)
		}
	}
}

// FuzzWheel drives wheelModel from fuzzer-chosen scripts.
func FuzzWheel(f *testing.F) {
	f.Add([]byte{0, 5, 0, 3, 10, 0})
	f.Add([]byte{1, 200, 9, 2, 0, 0, 3, 255, 255})
	f.Add([]byte{0, 63, 0, 0, 64, 0, 0, 65, 0, 3, 2, 0, 3, 255, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*512 {
			data = data[:3*512]
		}
		wheelModel(t, data)
	})
}

// TestWheelRandomizedModel runs the fuzz model over seeded random
// scripts so the property check executes in every plain `go test` run.
func TestWheelRandomizedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		data := make([]byte, 3*(20+rng.Intn(150)))
		rng.Read(data)
		wheelModel(t, data)
	}
}
