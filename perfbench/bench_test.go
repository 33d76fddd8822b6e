package main

import (
	"math"
	"testing"
	"time"
)

func TestOpenLoopSchedule(t *testing.T) {
	start := time.Unix(1000, 0)
	g := newOpenLoop(start, 4, 25*time.Second)
	if g.n != 100 {
		t.Fatalf("arrivals in 25 s at 4/s = %d, want 100", g.n)
	}
	for i := 0; i < g.n; i++ {
		if want := start.Add(time.Duration(i) * 250 * time.Millisecond); !g.due(i).Equal(want) {
			t.Fatalf("due(%d) = %v, want %v", i, g.due(i), want)
		}
	}
	// Arrivals are issued in order, each exactly once, and never early.
	var issued []int
	for now := start; ; now = now.Add(37 * time.Millisecond) {
		g.release(now, func(i int, due time.Time) {
			if due.After(now) {
				t.Fatalf("arrival %d issued %v early", i, due.Sub(now))
			}
			issued = append(issued, i)
		})
		if _, more := g.nextDue(); !more {
			break
		}
	}
	if len(issued) != g.n {
		t.Fatalf("issued %d arrivals, want %d", len(issued), g.n)
	}
	for i, v := range issued {
		if v != i {
			t.Fatalf("arrival %d issued in position %d", v, i)
		}
	}
}

func TestOpenLoopLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	g := newOpenLoop(start, 4, 2*time.Second)
	g.release(start, func(int, time.Time) {})
	if g.late != 0 {
		t.Fatalf("on-time release charged %v lateness", g.late)
	}
	// A stall until 7 ms past arrival 3's due instant issues arrivals
	// 1–3 at once; the oldest of them, due at 250 ms, is 507 ms late.
	stall := g.due(3).Add(7 * time.Millisecond)
	n := 0
	g.release(stall, func(int, time.Time) { n++ })
	if n != 3 {
		t.Fatalf("released %d arrivals after the stall, want 3", n)
	}
	if want := 507 * time.Millisecond; g.late != want {
		t.Fatalf("lateness %v, want %v", g.late, want)
	}
	// A later, smaller delay does not lower the maximum.
	g.release(g.due(4).Add(time.Millisecond), func(int, time.Time) {})
	if g.late != 507*time.Millisecond {
		t.Fatalf("lateness %v after a smaller delay, want 507ms", g.late)
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 0, false},
		{20, 0, false},
		{21, 50, true},
		{100, 50, true},
		{101, 90, true},
		{1000, 90, true},
		{1001, 99, true},
		{10000, 99, true},
		{10001, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && beyond(p, c.n) < minBeyond {
			t.Errorf("n=%d: p%v has only %d samples beyond it", c.n, p, beyond(p, c.n))
		}
	}

	xs := make([]float64, 101)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i) // 100 … 0: input order must not matter
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 0..100 = %v, want 50", got)
	}
	if got := percentile(xs, 90); math.Abs(got-90) > 1e-9 {
		t.Errorf("p90 of 0..100 = %v, want 90", got)
	}
	// Exactly ten samples, 91 … 100, lie beyond p90.
	if got := beyond(90, len(xs)); got != 10 {
		t.Errorf("samples beyond p90 of 101 = %d, want 10", got)
	}
	if xs[0] != 100 {
		t.Errorf("percentile reordered its input")
	}
	if percentile(nil, 90) != 0 || mean(nil) != 0 {
		t.Errorf("no samples must read 0")
	}
	s := summarize(xs)
	if s.N != 101 || !s.P90OK || s.TailPct != 90 || math.Abs(s.Tail-90) > 1e-9 {
		t.Errorf("summary %+v: want n=101 with a qualified p90 tail of 90", s)
	}
	if s := summarize(xs[:100]); s.P90OK || s.TailPct != 50 {
		t.Errorf("summary of 100 samples %+v: p90 must not qualify", s)
	}
}

func TestPollLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	c := &pollClock{every: time.Millisecond}
	c.tick(start)
	c.tick(start.Add(time.Millisecond))
	if c.late != 0 {
		t.Fatalf("on-time poll charged %v lateness", c.late)
	}
	c.tick(start.Add(9 * time.Millisecond)) // due at 2 ms
	c.tick(start.Add(10 * time.Millisecond))
	if want := 7 * time.Millisecond; c.late != want {
		t.Fatalf("lateness %v, want %v", c.late, want)
	}
	// A restart (a pause between rounds) is not lateness.
	c.restart()
	c.tick(start.Add(time.Hour))
	if c.late != 7*time.Millisecond {
		t.Fatalf("lateness %v after a restart, want 7ms", c.late)
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{}
	tr.spans = []span{
		{Name: "fix", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50}, // overlaps a
		{Name: "a", Parent: 0, Start: 60, End: 70},
	}
	st := tr.selfTimes()
	if got := st["fix"].SelfNs; got != 50 {
		t.Errorf("fix self time %d, want 50 (children cover 10–50 and 60–70)", got)
	}
	if got := st["a"]; got.Calls != 2 || got.SelfNs != 30 {
		t.Errorf("a: %+v, want 2 calls, 30 ns", got)
	}
}
