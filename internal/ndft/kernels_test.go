package ndft

import (
	"math"
	"math/rand"
	"testing"
)

// vectorTiers lists every vector tier the host CPU can actually run, so
// the kernel tests cover all compiled-in tiers the hardware supports
// (an AVX-512 machine tests the AVX2 kernels too — they are the same
// contract at half the width). Empty on scalar-only builds.
func vectorTiers() []kernelTier {
	switch detectTier() {
	case tierAVX512:
		return []kernelTier{tierAVX512, tierAVX2}
	case tierAVX2:
		return []kernelTier{tierAVX2}
	case tierNEON:
		return []kernelTier{tierNEON}
	}
	return nil
}

// forceTier pins the kernel tier for one subtest, restoring the
// process-wide tier on cleanup.
func forceTier(t *testing.T, tier kernelTier) {
	t.Helper()
	prev := setKernelTier(tier)
	if activeTier != tier {
		setKernelTier(prev)
		t.Fatalf("tier %v unavailable (detected %v)", tier, detectTier())
	}
	t.Cleanup(func() { setKernelTier(prev) })
}

// bothNaNOrEqualBits treats two values as equivalent when they are
// bit-identical or both NaN. NaN payloads are excluded deliberately:
// the Go compiler does not pin operand order for commutative scalar
// ops, so which of two NaN inputs propagates is unspecified even
// between two scalar builds — the solver never feeds NaNs through
// these kernels.
func bothNaNOrEqualBits(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// kernelVec fills a test vector mixing magnitudes, exact zeros,
// denormals, and (when allowNaN) NaNs.
func kernelVec(rng *rand.Rand, n int, allowNaN bool) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch rng.Intn(10) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = math.Copysign(5e-324, rng.NormFloat64()) // denormal
		case 2:
			v[i] = rng.NormFloat64() * 1e300
		case 3:
			if allowNaN {
				v[i] = math.NaN()
			} else {
				v[i] = rng.NormFloat64() * 1e-300
			}
		default:
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// TestAdjDotMatchesCdot fuzzes the tier-dispatched adjoint dot against
// the scalar contract reference on every available vector tier: every
// length (odd tails, partial lane groups, below the vector cutover)
// must produce bit-identical sums — the property the warm-solve and
// alias-refit paths rely on when the tier changes between runs.
func TestAdjDotMatchesCdot(t *testing.T) {
	tiers := vectorTiers()
	if len(tiers) == 0 {
		t.Skip("no vector tier on this machine")
	}
	for _, tier := range tiers {
		t.Run(tier.String(), func(t *testing.T) {
			forceTier(t, tier)
			rng := rand.New(rand.NewSource(41))
			for n := 0; n <= 67; n++ {
				for trial := 0; trial < 20; trial++ {
					allowNaN := trial%5 == 4
					aRe := kernelVec(rng, n, allowNaN)
					aIm := kernelVec(rng, n, allowNaN)
					xRe := kernelVec(rng, n, allowNaN)
					xIm := kernelVec(rng, n, allowNaN)
					wantR, wantI := cdot(aRe, aIm, xRe, xIm)
					gotR, gotI := adjDot(aRe, aIm, xRe, xIm)
					if !bothNaNOrEqualBits(gotR, wantR) || !bothNaNOrEqualBits(gotI, wantI) {
						t.Fatalf("n=%d: got (%v,%v) want (%v,%v)", n, gotR, gotI, wantR, wantI)
					}
				}
			}
		})
	}
}

// FuzzAdjDotEquivalence is the fuzzer-driven variant of the table test
// above: arbitrary float bit patterns (including infinities and NaNs)
// through every available tier must match the scalar contract.
func FuzzAdjDotEquivalence(f *testing.F) {
	f.Add(int64(1), 7)
	f.Add(int64(99), 16)
	f.Add(int64(5), 65)
	f.Fuzz(func(t *testing.T, seed int64, n int) {
		if n < 0 || n > 512 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		aRe := kernelVec(rng, n, true)
		aIm := kernelVec(rng, n, true)
		xRe := kernelVec(rng, n, true)
		xIm := kernelVec(rng, n, true)
		wantR, wantI := cdot(aRe, aIm, xRe, xIm)
		for _, tier := range vectorTiers() {
			prev := setKernelTier(tier)
			gotR, gotI := adjDot(aRe, aIm, xRe, xIm)
			setKernelTier(prev)
			if !bothNaNOrEqualBits(gotR, wantR) || !bothNaNOrEqualBits(gotI, wantI) {
				t.Fatalf("tier=%v n=%d: got (%v,%v) want (%v,%v)", tier, n, gotR, gotI, wantR, wantI)
			}
		}
	})
}

// gaussVec returns k standard normal values.
func gaussVec(rng *rand.Rand, k int) []float64 {
	v := make([]float64, k)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// rowSet returns an ascending set of rows in [0, m) of the given
// shape: 0 empty, 1 a single row, 2 every row, 3 a random subset.
func rowSet(rng *rand.Rand, m, shape int) []int {
	var set []int
	for j := 0; j < m; j++ {
		if shape == 2 || shape == 3 && rng.Intn(3) == 0 {
			set = append(set, j)
		}
	}
	if shape == 1 {
		set = []int{rng.Intn(m)}
	}
	return set
}

// checkSetDots runs setDots over a random dictionary of m rows of n
// elements (vec draws the data) on every tier the host CPU supports, scalar
// included, and requires each set row's output to match cdot of that
// row, and every cell outside the set to keep its sentinel.
func checkSetDots(t *testing.T, vec func(int) []float64, n, m int, set []int) {
	t.Helper()
	fhRe, fhIm, rRe, rIm := vec(n*m), vec(n*m), vec(n), vec(n)
	sentinel := math.Float64frombits(0x7ff8dead0000beef)
	for _, tier := range append([]kernelTier{tierScalar}, vectorTiers()...) {
		prev := setKernelTier(tier)
		dRe, dIm := make([]float64, m), make([]float64, m)
		for j := range dRe {
			dRe[j], dIm[j] = sentinel, sentinel
		}
		setDots(fhRe, fhIm, n, set, rRe, rIm, dRe, dIm)
		setKernelTier(prev)
		in := make([]bool, m)
		for _, j := range set {
			in[j] = true
			wantR, wantI := cdot(fhRe[j*n:(j+1)*n], fhIm[j*n:(j+1)*n], rRe, rIm)
			if !bothNaNOrEqualBits(dRe[j], wantR) || !bothNaNOrEqualBits(dIm[j], wantI) {
				t.Fatalf("tier=%v n=%d m=%d row %d: got (%v,%v) want (%v,%v)",
					tier, n, m, j, dRe[j], dIm[j], wantR, wantI)
			}
		}
		for j := range in {
			if !in[j] && (math.Float64bits(dRe[j]) != math.Float64bits(sentinel) ||
				math.Float64bits(dIm[j]) != math.Float64bits(sentinel)) {
				t.Fatalf("tier=%v n=%d m=%d: row %d outside the set was written", tier, n, m, j)
			}
		}
	}
}

// TestSetDotsMatchesCdot pins the fused per-tick adjoint pass to the
// scalar contract on every tier: every n from 1 to 40 (each n mod 4
// tail, rows shorter than one vector chunk), each set shape, and plain
// Gaussian data, where the outputs must be bit-identical outright.
func TestSetDotsMatchesCdot(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	gauss := func(k int) []float64 { return gaussVec(rng, k) }
	for n := 1; n <= 40; n++ {
		for shape := 0; shape < 4; shape++ {
			m := 1 + rng.Intn(48)
			checkSetDots(t, gauss, n, m, rowSet(rng, m, shape))
		}
	}
}

// FuzzSetDotsEquivalence fuzzes the fused per-tick adjoint pass against
// cdot row by row: n from 1 to 40, random ascending row sets (empty,
// single-row and full-grid included), dictionaries and residuals mixing
// zeros, denormals and huge magnitudes.
func FuzzSetDotsEquivalence(f *testing.F) {
	for n := 1; n <= 12; n++ {
		f.Add(int64(n), n, uint8(n%4), uint8(3*n))
	}
	f.Add(int64(24), 24, uint8(2), uint8(241))
	f.Add(int64(40), 40, uint8(3), uint8(64))
	f.Fuzz(func(t *testing.T, seed int64, n int, shape, rows uint8) {
		if n < 1 || n > 40 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		m := 1 + int(rows)
		vec := func(k int) []float64 { return kernelVec(rng, k, false) }
		checkSetDots(t, vec, n, m, rowSet(rng, m, int(shape%4)))
	})
}

// checkForwardResid runs forwardResid over the cols of a random
// dictionary on every vector tier and requires the residual to match
// the scalar tier's per-column loop bit for bit (NaNs aside, as for the
// dots).
func checkForwardResid(t *testing.T, rng *rand.Rand, n, m int, cols []int) {
	t.Helper()
	pl := &Plan{n: n, m: m, fhRe: kernelVec(rng, n*m, false), fhIm: kernelVec(rng, n*m, false)}
	srcRe, srcIm := kernelVec(rng, m, false), kernelVec(rng, m, false)
	w := &workspace{hRe: kernelVec(rng, n, false), hIm: kernelVec(rng, n, false)}
	run := func(tier kernelTier) ([]float64, []float64) {
		prev := setKernelTier(tier)
		defer setKernelTier(prev)
		w.residRe, w.resIm = kernelVec(rng, n, true), kernelVec(rng, n, true)
		pl.forwardResid(w, srcRe, srcIm, cols)
		return w.residRe, w.resIm
	}
	wantRe, wantIm := run(tierScalar)
	for _, tier := range vectorTiers() {
		gotRe, gotIm := run(tier)
		for i := 0; i < n; i++ {
			if !bothNaNOrEqualBits(gotRe[i], wantRe[i]) || !bothNaNOrEqualBits(gotIm[i], wantIm[i]) {
				t.Fatalf("tier=%v n=%d m=%d cols=%d element %d: got (%v,%v) want (%v,%v)",
					tier, n, m, len(cols), i, gotRe[i], gotIm[i], wantRe[i], wantIm[i])
			}
		}
	}
}

// TestForwardResidMatchesScalar pins the fused forward residual to the
// scalar per-column loop on every vector tier: every n from 1 to 40 and
// each support shape (empty, one column, every column, a random subset).
func TestForwardResidMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for n := 1; n <= 40; n++ {
		for shape := 0; shape < 4; shape++ {
			m := 1 + rng.Intn(48)
			checkForwardResid(t, rng, n, m, rowSet(rng, m, shape))
		}
	}
}

// FuzzForwardResidEquivalence is the fuzzer-driven variant of
// TestForwardResidMatchesScalar.
func FuzzForwardResidEquivalence(f *testing.F) {
	f.Add(int64(1), 11, uint8(3), uint8(40))
	f.Add(int64(2), 24, uint8(2), uint8(60))
	f.Add(int64(3), 3, uint8(1), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, n int, shape, rows uint8) {
		if n < 1 || n > 40 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		m := 1 + int(rows)
		checkForwardResid(t, rng, n, m, rowSet(rng, m, int(shape%4)))
	})
}

// TestAxpyColMatchesScalar fuzzes the tier-dispatched column
// accumulation against the scalar forwardResid body: elementwise, so
// every element must be bit-identical on every available tier,
// including odd tails and lengths below the vector cutover. Only arm64
// has a vector column kernel; on amd64, where forwardResid runs
// forwardVec4 instead (TestForwardResidMatchesScalar), axpyCol is its
// scalar loop on every tier.
func TestAxpyColMatchesScalar(t *testing.T) {
	tiers := vectorTiers()
	if len(tiers) == 0 {
		t.Skip("no vector tier on this machine")
	}
	refAxpyCol := func(rowRe, rowIm []float64, cr, ci float64, dstRe, dstIm []float64) {
		for i, ar := range rowRe {
			ai := -rowIm[i]
			dstRe[i] += ar*cr - ai*ci
			dstIm[i] += ar*ci + ai*cr
		}
	}
	for _, tier := range tiers {
		t.Run(tier.String(), func(t *testing.T) {
			forceTier(t, tier)
			rng := rand.New(rand.NewSource(43))
			for n := 0; n <= 67; n++ {
				for trial := 0; trial < 10; trial++ {
					rowRe := kernelVec(rng, n, false)
					rowIm := kernelVec(rng, n, false)
					cr, ci := rng.NormFloat64(), rng.NormFloat64()
					dstRe := kernelVec(rng, n, false)
					dstIm := kernelVec(rng, n, false)
					wantRe := append([]float64(nil), dstRe...)
					wantIm := append([]float64(nil), dstIm...)
					refAxpyCol(rowRe, rowIm, cr, ci, wantRe, wantIm)
					axpyCol(rowRe, rowIm, cr, ci, dstRe, dstIm)
					for i := 0; i < n; i++ {
						if math.Float64bits(dstRe[i]) != math.Float64bits(wantRe[i]) ||
							math.Float64bits(dstIm[i]) != math.Float64bits(wantIm[i]) {
							t.Fatalf("n=%d i=%d: got (%v,%v) want (%v,%v)", n, i, dstRe[i], dstIm[i], wantRe[i], wantIm[i])
						}
					}
				}
			}
		})
	}
}

// TestSolveBatchTierEquivalence solves one batch on every available
// vector tier and scalar-forced, and requires byte-identical results
// across all of them — the cross-tier face of SolveBatch's
// batch-equals-sequential contract (and, because avx512 groups 8 tasks
// per lane kernel call while avx2/neon group 4, a lane-width
// independence proof on real solves).
func TestSolveBatchTierEquivalence(t *testing.T) {
	pl, reqs := batchFixture(t)
	solveOn := func(tier kernelTier) []*Result {
		prev := setKernelTier(tier)
		defer setKernelTier(prev)
		batch := make([]SolveRequest, len(reqs))
		for i := range reqs {
			batch[i] = cloneReq(reqs[i])
		}
		if err := pl.SolveBatch(batch); err != nil {
			t.Fatalf("tier %v: %v", tier, err)
		}
		out := make([]*Result, len(batch))
		for i := range batch {
			out[i] = batch[i].Dst
		}
		return out
	}
	want := solveOn(tierScalar)
	for _, tier := range vectorTiers() {
		got := solveOn(tier)
		for i := range want {
			sameResult(t, tier.String(), want[i], got[i])
		}
	}
}

// TestLaneWidthIndependence pins that group partitioning width is a
// throughput knob, not a numerical one: the scalar path partitioned at
// width 4 must reproduce the width-8 partitioning byte for byte (the
// per-task arithmetic never depends on which lane group a task lands
// in).
func TestLaneWidthIndependence(t *testing.T) {
	pl, reqs := batchFixture(t)
	solveAt := func(lanes int) []*Result {
		prev := setKernelTier(tierScalar)
		defer setKernelTier(prev)
		batchLanes = lanes
		dotTile = tileFor(lanes)
		defer func() {
			batchLanes = tierScalar.lanes()
			dotTile = tileFor(tierScalar.lanes())
		}()
		batch := make([]SolveRequest, len(reqs))
		for i := range reqs {
			batch[i] = cloneReq(reqs[i])
		}
		if err := pl.SolveBatch(batch); err != nil {
			t.Fatalf("lanes=%d: %v", lanes, err)
		}
		out := make([]*Result, len(batch))
		for i := range batch {
			out[i] = batch[i].Dst
		}
		return out
	}
	want := solveAt(8)
	got := solveAt(4)
	for i := range want {
		sameResult(t, "lanes4-vs-8", want[i], got[i])
	}
}

// TestForceKernel pins the public tier-forcing semantics: unknown names
// and unavailable tiers error without changing the active tier,
// downgrades succeed, and the returned previous name restores exactly.
func TestForceKernel(t *testing.T) {
	orig := VectorKernel()
	t.Cleanup(func() {
		if _, err := ForceKernel(orig); err != nil {
			t.Fatalf("restoring %q: %v", orig, err)
		}
	})

	if _, err := ForceKernel("avx1024"); err != errUnknownKernel {
		t.Fatalf("unknown name: err=%v want %v", err, errUnknownKernel)
	}
	if got := VectorKernel(); got != orig {
		t.Fatalf("failed force changed tier: %q -> %q", orig, got)
	}

	// Some vector tier is always unavailable: NEON on amd64, AVX-512 on
	// arm64 and scalar-only builds.
	unavailable := "neon"
	if detectTier() == tierNEON || detectTier() == tierScalar {
		unavailable = "avx512"
	}
	if _, err := ForceKernel(unavailable); err != errKernelUnavailable {
		t.Fatalf("unavailable tier %q: err=%v want %v", unavailable, err, errKernelUnavailable)
	}
	if got := VectorKernel(); got != orig {
		t.Fatalf("failed force changed tier: %q -> %q", orig, got)
	}

	prev, err := ForceKernel("scalar")
	if err != nil {
		t.Fatalf("forcing scalar: %v", err)
	}
	if prev != orig {
		t.Fatalf("prev = %q, want %q", prev, orig)
	}
	if VectorKernel() != "scalar" {
		t.Fatalf("scalar force not active: tier=%q", VectorKernel())
	}
	if batchLanes != 8 || dotTile != tileFor(8) {
		t.Fatalf("scalar sizing: lanes=%d tile=%d", batchLanes, dotTile)
	}

	// Downgrade within the amd64 family when the host allows it.
	if detectTier() == tierAVX512 {
		if _, err := ForceKernel("avx2"); err != nil {
			t.Fatalf("avx512 host refusing avx2 downgrade: %v", err)
		}
		if VectorKernel() != "avx2" || batchLanes != 4 {
			t.Fatalf("avx2 force: tier=%q lanes=%d", VectorKernel(), batchLanes)
		}
	}
}

// BenchmarkSetDots times one tick's adjoint pass over the full grid at
// the pipeline's two frequency counts (see solveShapes), reporting the
// cost per dictionary row.
func BenchmarkSetDots(b *testing.B) {
	for _, n := range []int{11, 24} {
		b.Run("n="+itoa(n), func(b *testing.B) {
			const m = 600
			rng := rand.New(rand.NewSource(int64(n)))
			// Gaussian data: kernelVec's denormals would time the
			// microcode slow path instead of the kernel.
			fhRe, fhIm := gaussVec(rng, n*m), gaussVec(rng, n*m)
			rRe, rIm := gaussVec(rng, n), gaussVec(rng, n)
			set := rowSet(rng, m, 2)
			dRe, dIm := make([]float64, m), make([]float64, m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				setDots(fhRe, fhIm, n, set, rRe, rIm, dRe, dIm)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m), "ns/row")
		})
	}
}
