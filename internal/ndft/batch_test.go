package ndft

import (
	"math"
	"math/rand"
	"testing"

	"chronos/internal/dsp"
	"chronos/internal/wifi"
)

// batchFixture builds a plan plus a set of measurement/warm/option
// combinations that exercise every solver path in one batch: cold
// noiseless, cold noisy gap-stopped, warm on a fresh noise draw, warm
// whose seed forces the KKT fallback (target jumped), plain ISTA, and
// random-seeded starts.
func batchFixture(t testing.TB) (*Plan, []SolveRequest) {
	t.Helper()
	freqs := wifi.Centers(wifi.Bands5GHz())
	pl, err := NewPlan(freqs, TauGrid(20e-9, 0.5e-9))
	if err != nil {
		t.Fatal(err)
	}
	n, _ := pl.Dims()
	rng := rand.New(rand.NewSource(17))
	noisy := func(sigma float64, delaysNs ...float64) dsp.Vec {
		h := synthChannel(freqs, delaysNs, []float64{1, 0.6})
		for i := range h {
			h[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
		}
		return h
	}
	wNorm := 0.05 * math.Sqrt(2*float64(n))
	gapOpts := InvertOptions{MaxIter: 4000, NoiseFloor: wNorm}

	seed, err := pl.Solve(SolveRequest{H: noisy(0.05, 7, 11.2), InvertOptions: gapOpts})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []SolveRequest{
		{H: synthChannel(freqs, []float64{7, 11.2}, []float64{1, 0.6}), InvertOptions: InvertOptions{MaxIter: 2000}},
		{H: noisy(0.05, 7, 11.2), InvertOptions: gapOpts},
		{H: noisy(0.05, 7.1, 11.3), Warm: seed.Profile, InvertOptions: gapOpts},
		// The target jumped far beyond warmDilate: the restricted solve
		// must fail its KKT audit and fall back to the cold path.
		{H: noisy(0.05, 14.5, 17.9), Warm: seed.Profile, InvertOptions: gapOpts},
		{H: noisy(0.1, 7, 11.2), InvertOptions: InvertOptions{MaxIter: 2000, PlainISTA: true, Alpha: 2}},
		{H: noisy(0.02, 5.5, 9.8), InvertOptions: InvertOptions{MaxIter: 2000, Seed: 3}},
	}
	return pl, reqs
}

// cloneReq deep-copies a request so sequential and batched solves cannot
// share result or input storage.
func cloneReq(r SolveRequest) SolveRequest {
	c := r
	c.H = append(dsp.Vec(nil), r.H...)
	if r.Warm != nil {
		c.Warm = append(dsp.Vec(nil), r.Warm...)
	}
	c.Dst = nil
	return c
}

// sameResult asserts byte-identity of two results (exact float equality
// on every field and element).
func sameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.Iterations != got.Iterations || want.Converged != got.Converged ||
		want.Work != got.Work || want.Residual != got.Residual ||
		want.GapAtStop != got.GapAtStop || want.NoiseFloor != got.NoiseFloor {
		t.Errorf("%s: scalar fields diverged:\n  seq   %+v\n  batch %+v", label, want, got)
	}
	if len(want.Profile) != len(got.Profile) {
		t.Fatalf("%s: profile length %d vs %d", label, len(want.Profile), len(got.Profile))
	}
	for i := range want.Profile {
		if want.Profile[i] != got.Profile[i] {
			t.Fatalf("%s: profile[%d]: %v vs %v", label, i, want.Profile[i], got.Profile[i])
		}
	}
	for i := range want.Magnitude {
		if want.Magnitude[i] != got.Magnitude[i] {
			t.Fatalf("%s: magnitude[%d]: %v vs %v", label, i, want.Magnitude[i], got.Magnitude[i])
		}
	}
}

// TestSolveBatchMatchesSequential is the golden batch-equivalence suite:
// SolveBatch at B∈{1,2,16} must produce results byte-identical to the
// sequential Solve of each request, with mixed warm/cold requests and
// mixed options in one batch. Batching may change only throughput, never
// answers — this is what lets the coalescer batch opportunistically
// without perturbing determinism anywhere downstream.
func TestSolveBatchMatchesSequential(t *testing.T) {
	pl, base := batchFixture(t)

	// Sequential references.
	refs := make([]*Result, len(base))
	for i, r := range base {
		res, err := pl.Solve(cloneReq(r))
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = res
	}

	for _, B := range []int{1, 2, 16} {
		reqs := make([]SolveRequest, B)
		for i := range reqs {
			reqs[i] = cloneReq(base[i%len(base)])
		}
		if err := pl.SolveBatch(reqs); err != nil {
			t.Fatalf("B=%d: %v", B, err)
		}
		for i := range reqs {
			if reqs[i].Dst == nil {
				t.Fatalf("B=%d: request %d: nil Dst after batch", B, i)
			}
			sameResult(t, label(B, i), refs[i%len(base)], reqs[i].Dst)
		}
	}
}

func label(b, i int) string {
	return "B=" + itoa(b) + " req=" + itoa(i)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestSolveBatchValidatesUpfront pins the all-or-nothing validation
// contract: a bad request anywhere in the batch fails the whole call
// before any solving, naming the offending index, and no Dst is written.
func TestSolveBatchValidatesUpfront(t *testing.T) {
	pl, base := batchFixture(t)
	reqs := []SolveRequest{
		cloneReq(base[0]),
		{H: make(dsp.Vec, 3)},
	}
	err := pl.SolveBatch(reqs)
	if err == nil {
		t.Fatal("bad measurement length accepted")
	}
	if reqs[0].Dst != nil {
		t.Errorf("request 0 solved despite batch validation failure")
	}
	reqs = []SolveRequest{
		cloneReq(base[0]),
		{H: cloneReq(base[0]).H, Warm: make(dsp.Vec, 5)},
	}
	if err := pl.SolveBatch(reqs); err == nil {
		t.Fatal("bad warm length accepted")
	}
	// Two requests sharing one Dst would finalize into the same Result,
	// silently overwriting one of them — rejected at validation.
	shared := &Result{}
	reqs = []SolveRequest{cloneReq(base[0]), cloneReq(base[1])}
	reqs[0].Dst, reqs[1].Dst = shared, shared
	if err := pl.SolveBatch(reqs); err == nil {
		t.Fatal("aliased Dst accepted")
	}
	if err := pl.SolveBatch(nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

// TestSolveBatchSteadyStateAllocsNothing extends the zero-alloc pin to
// the batch path: with recycled Dsts, a steady-state SolveBatch performs
// no allocations at any B.
func TestSolveBatchSteadyStateAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	pl, base := batchFixture(t)
	// Skip the rng-seeded fixture request: a random start allocates its
	// generator on the sequential path too, so it is outside the
	// zero-alloc contract.
	base = base[:5]
	reqs := make([]SolveRequest, 8)
	for i := range reqs {
		reqs[i] = cloneReq(base[i%len(base)])
	}
	// Warm the pools and materialize the Dsts.
	if err := pl.SolveBatch(reqs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := pl.SolveBatch(reqs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state SolveBatch allocates %v times per call, want 0", allocs)
	}
}

// TestPolishGapExit is the regression pin for the gap-certified polish
// exit (ROADMAP PR-5 follow-on b): on a broad noisy support the polish
// pass must stop on its own tightened duality-gap certificate instead of
// always burning its full fixed budget, and the certified exit must not
// move the first-peak answer relative to the fixed-budget polish.
func TestPolishGapExit(t *testing.T) {
	freqs := wifi.Centers(wifi.Bands5GHz())
	pl, err := NewPlan(freqs, TauGrid(20e-9, 0.5e-9))
	if err != nil {
		t.Fatal(err)
	}
	n, _ := pl.Dims()
	rng := rand.New(rand.NewSource(41))
	// High noise on many paths: the gap stop fires with a broad support,
	// which is exactly the case whose polish used to run all 600
	// iterations.
	h := synthChannel(freqs, []float64{5, 7.5, 11.2, 14.1}, []float64{1, 0.8, 0.6, 0.5})
	for i := range h {
		h[i] += complex(rng.NormFloat64()*0.1, rng.NormFloat64()*0.1)
	}
	opts := InvertOptions{MaxIter: 4000, NoiseFloor: 0.1 * math.Sqrt(2*float64(n))}

	certified, err := pl.Solve(SolveRequest{H: h, InvertOptions: opts})
	if err != nil {
		t.Fatal(err)
	}
	polishGapExit = false
	fixed, ferr := pl.Solve(SolveRequest{H: h, InvertOptions: opts})
	polishGapExit = true
	if ferr != nil {
		t.Fatal(ferr)
	}

	if certified.Iterations >= fixed.Iterations {
		t.Errorf("certified polish exit did not save iterations: %d vs fixed-budget %d",
			certified.Iterations, fixed.Iterations)
	}
	if !certified.Converged {
		t.Error("certified solve not marked converged")
	}
	pc, okC := certified.FirstPeakDelay(0.3)
	pf, okF := fixed.FirstPeakDelay(0.3)
	if !okC || !okF {
		t.Fatal("missing first peak")
	}
	if math.Abs(pc-pf) > 0.2e-9 {
		t.Errorf("certified polish moved the first peak: %v vs %v", pc, pf)
	}
}

// FuzzSolveBatchEquivalence fuzzes the batch/sequential equivalence over
// randomized geometries, noise, batch compositions, and option mixes:
// for every generated batch, SolveBatch must be byte-identical to the
// per-request sequential Solve.
func FuzzSolveBatchEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), false)
	f.Add(int64(7), uint8(5), true)
	f.Add(int64(99), uint8(16), false)
	f.Fuzz(func(t *testing.T, seed int64, bRaw uint8, warmMix bool) {
		B := int(bRaw%16) + 1
		rng := rand.New(rand.NewSource(seed))
		freqs := wifi.Centers(wifi.Bands5GHz())
		pl, err := NewPlan(freqs, TauGrid(20e-9, 0.5e-9))
		if err != nil {
			t.Fatal(err)
		}
		n, _ := pl.Dims()
		mk := func() dsp.Vec {
			d1 := 4 + rng.Float64()*8
			d2 := d1 + 1 + rng.Float64()*6
			sigma := rng.Float64() * 0.1
			h := synthChannel(freqs, []float64{d1, d2}, []float64{1, 0.4 + rng.Float64()*0.4})
			for i := range h {
				h[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
			}
			return h
		}
		gapOpts := InvertOptions{MaxIter: 3000, NoiseFloor: 0.05 * math.Sqrt(2*float64(n))}
		var warmSrc *Result
		if warmMix {
			warmSrc, err = pl.Solve(SolveRequest{H: mk(), InvertOptions: gapOpts})
			if err != nil {
				t.Fatal(err)
			}
		}
		reqs := make([]SolveRequest, B)
		for i := range reqs {
			reqs[i] = SolveRequest{H: mk(), InvertOptions: gapOpts}
			if warmMix && i%2 == 1 {
				reqs[i].Warm = warmSrc.Profile
			}
			if i%3 == 2 {
				reqs[i].InvertOptions = InvertOptions{MaxIter: 1500}
			}
		}
		refs := make([]*Result, B)
		for i := range reqs {
			res, err := pl.Solve(cloneReq(reqs[i]))
			if err != nil {
				t.Fatal(err)
			}
			refs[i] = res
		}
		if err := pl.SolveBatch(reqs); err != nil {
			t.Fatal(err)
		}
		for i := range reqs {
			sameResult(t, label(B, i), refs[i], reqs[i].Dst)
		}
	})
}

// TestStepShrinkSemantics pins the fused tick's soft threshold cell by
// cell: a gradient step inside the threshold (ties included) zeroes the
// coefficient, one outside shrinks it toward zero by the threshold, and
// a NaN gradient yields a NaN coefficient — not zero, because the
// squared-magnitude test is written so NaN fails it. The booked sums
// must match the former separate pass over Δp = p⁺ − p.
func TestStepShrinkSemantics(t *testing.T) {
	pl, err := NewPlan(wifi.Centers(wifi.Bands5GHz()), TauGrid(3e-9, 1e-9))
	if err != nil {
		t.Fatal(err)
	}
	_, m := pl.Dims()
	if m != 4 {
		t.Fatalf("grid has %d cells, want 4", m)
	}
	w := pl.getWorkspace()
	defer pl.ws.Put(w)
	gamma := pl.Gamma()
	thr := 0.5
	// Source point y and gradients chosen so y − γ·g lands at: inside
	// the threshold, exactly on it, outside it (3+4i, |·| = 5), and NaN.
	srcRe := []float64{0.1, 0.5, 3, 1}
	srcIm := []float64{0.2, 0, 4, 1}
	gRe := []float64{0, 0, 0, math.NaN()}
	gIm := []float64{0, 0, 0, 0}
	oldRe := []float64{1, 2, 3, 4}
	oldIm := []float64{0, 0, 0, 0}
	copy(w.dRe, gRe)
	copy(w.dIm, gIm)
	copy(w.pRe, oldRe)
	copy(w.pIm, oldIm)
	tk := &solveTask{pl: pl, w: w, set: []int{0, 1, 2, 3}, thr: thr,
		srcRe: srcRe, srcIm: srcIm}
	tk.step()

	wantRe := []float64{0, 0, 3 * ((5 - thr) / 5), math.NaN()}
	wantIm := []float64{0, 0, 4 * ((5 - thr) / 5), math.NaN()}
	var diffSq, gdot float64
	for j := 0; j < m; j++ {
		pr, pi := srcRe[j]-gamma*gRe[j], srcIm[j]-gamma*gIm[j]
		if j < 3 && (pr != srcRe[j] || pi != srcIm[j]) {
			t.Fatalf("cell %d: zero gradient moved the source point", j)
		}
		if !bothNaNOrEqualBits(w.pRe[j], wantRe[j]) || !bothNaNOrEqualBits(w.pIm[j], wantIm[j]) {
			t.Errorf("cell %d: p = (%v,%v), want (%v,%v)", j, w.pRe[j], w.pIm[j], wantRe[j], wantIm[j])
		}
		dr, di := w.pRe[j]-oldRe[j], w.pIm[j]-oldIm[j]
		if !bothNaNOrEqualBits(w.dRe[j], dr) || !bothNaNOrEqualBits(w.dIm[j], di) {
			t.Errorf("cell %d: Δp = (%v,%v), want (%v,%v)", j, w.dRe[j], w.dIm[j], dr, di)
		}
		diffSq += float64(di*di) + dr*dr // step's rounding on fusing targets
		gdot += float64((srcIm[j]-w.pIm[j])*di) + (srcRe[j]-w.pRe[j])*dr
	}
	if !math.IsNaN(w.pRe[3]) || !math.IsNaN(w.pIm[3]) {
		t.Errorf("NaN gradient gave coefficient (%v,%v), want NaN", w.pRe[3], w.pIm[3])
	}
	if !bothNaNOrEqualBits(tk.diffSq, diffSq) || !bothNaNOrEqualBits(tk.gdot, gdot) {
		t.Errorf("booked sums (%v,%v), want (%v,%v)", tk.diffSq, tk.gdot, diffSq, gdot)
	}

	// Without the NaN cell the sums are finite and must match bit for bit.
	copy(w.dRe, gRe[:3])
	copy(w.pRe, oldRe)
	copy(w.pIm, oldIm)
	tk.set = []int{0, 1, 2}
	tk.step()
	diffSq, gdot = 0, 0
	for j := 0; j < 3; j++ {
		dr, di := w.pRe[j]-oldRe[j], w.pIm[j]-oldIm[j]
		diffSq += float64(di*di) + dr*dr // step's rounding on fusing targets
		gdot += float64((srcIm[j]-w.pIm[j])*di) + (srcRe[j]-w.pRe[j])*dr
	}
	if math.Float64bits(tk.diffSq) != math.Float64bits(diffSq) || math.Float64bits(tk.gdot) != math.Float64bits(gdot) {
		t.Errorf("booked sums (%v,%v), want (%v,%v)", tk.diffSq, tk.gdot, diffSq, gdot)
	}
}
