package ndft

import (
	"fmt"
	"math"
	"math/rand"

	"chronos/internal/dsp"
	"chronos/internal/obs"
)

// SolveRequest is one inversion request against a Plan: the measurement
// vector, an optional warm-start profile on the plan's delay grid, an
// optional recycled Result, and the solver options. The request shape is
// shared by Solve (B=1) and SolveBatch, so single and batched callers
// build the same value.
type SolveRequest struct {
	// H is the measurement vector (length = the plan's frequency count).
	H dsp.Vec
	// Warm, when non-nil, is an initial iterate on the plan's delay grid
	// — typically the previous sweep's converged profile. See Solve.
	Warm dsp.Vec
	// Dst, when non-nil, is reused for the result (its Profile and
	// Magnitude backing arrays are recycled), making steady-state solves
	// allocation-free; nil allocates a fresh Result, which SolveBatch
	// writes back into the request so the caller can read it. Requests
	// in one SolveBatch must carry distinct Dsts (aliasing is rejected
	// at validation — two requests cannot share one Result).
	Dst *Result
	InvertOptions
}

// polishGapFrac scales the solve's duality-gap tolerance down for the
// gap-certified polish exit: the polish pass exists to canonicalize the
// stopped iterate (warm and cold trajectories must land on the same
// restricted optimum), so its own certificate must be much tighter than
// the stop that triggered it — 1/16 keeps the canonical point within the
// agreement tolerances the equivalence fixtures pin while still bounding
// the polish far below its 600-iteration budget on broad noisy supports.
const polishGapFrac = 1.0 / 16

// polishGapExit gates the gap-certified polish exit (ROADMAP PR-5
// follow-on b). Package-internal so the regression test can compare the
// certified exit against the historical fixed-budget polish.
var polishGapExit = true

// Task phases: the stages of the sequential Solve flow a task advances
// through. The polish stages are split by what follows them — a main
// polish is still subject to the restricted solve's KKT audit, a
// fallback polish is not.
const (
	taskMain = iota
	taskPolish
	taskCold
	taskColdPolish
)

// solveTask is one request's solver state, advanced in lockstep with its
// batch. Every floating-point operation a task performs is identical, in
// value and order, to the one the same request performs in a sequential
// Solve — batching changes only which dictionary row is resident when
// the operation runs — so batch results are byte-identical to sequential
// ones regardless of batch composition.
type solveTask struct {
	pl   *Plan
	w    *workspace
	res  *Result
	opts InvertOptions

	alpha, corrInf float64
	corrMaxSq      float64
	needCorr       bool
	warm           dsp.Vec
	useGap         bool
	gapStopped     bool
	restricted     bool
	phase          int

	// Telemetry latches: everGap records that any main/cold phase ended
	// on the gap certificate (gapStopped itself is consumed by
	// startPolish), fellBack that the KKT audit forced the cold
	// fallback. Read once per batch by recordBatch; cleared by the
	// full-struct resets in init and the post-batch zeroing.
	everGap  bool
	fellBack bool

	// Current iterate-phase state (one beginIterate per phase).
	set          []int
	budget, iter int
	curAlpha     float64
	decay        float64
	tMom         float64
	checkAt      int
	allowRestart bool

	// Per-tick state consumed by the shared gradient pass.
	srcRe, srcIm []float64
	thr          float64
	cur          int
	// Per-tick sums the gradient pass books for endTick: ‖Δp‖² and the
	// restart inner product ⟨y − p⁺, Δp⟩, each accumulated in set order.
	diffSq, gdot float64

	done bool
}

// batchState is the pooled per-SolveBatch scratch: the task array and
// the per-tick list of tasks awaiting the shared gradient pass.
type batchState struct {
	tasks []solveTask
	grad  []*solveTask
	// wss are the batch's workspaces, owned across calls: cycling B
	// workspaces through the plan pool every batch would overflow the
	// pool's per-P ring and allocate; keeping them attached to the
	// (itself pooled) batchState makes steady-state batches allocation
	// free at any B.
	wss []*workspace
	// Lane-kernel staging: the group's residuals in lane-major layout
	// (resT[i*lw+b] for the active tier's lane width lw = batchLanes),
	// the per-group lane-major −h̃ the residual accumulation starts from
	// (rebuilt only when a group's membership changes), the per-row
	// coefficient lanes, and the per-lane dot outputs. The fixed arrays
	// are sized for the widest tier (maxLanes); only the first
	// batchLanes entries are live.
	resTRe, resTIm []float64
	hTRe, hTIm     []float64
	groups         [][maxLanes]*solveTask
	cr, ci         [maxLanes]float64
	gr, gi         [maxLanes]float64
	// Cache-blocked full-grid walk: per-row accumulator chains carried
	// across element tiles (8×batchLanes doubles per row) and the
	// folded per-row lane dots (gr then gi lanes, 2×batchLanes per
	// row).
	state, gT []float64
}

// Solve runs Algorithm 1 on one request — the B=1 thin wrapper over
// SolveBatch, sharing its entire implementation. req.Warm, when non-nil,
// restricts the iteration to a working set (the warm support dilated by
// warmDilate cells), making each iteration proportional to the support
// size rather than the grid size; a final full-grid KKT audit proves the
// excluded atoms inactive, and on violation (the target moved too far)
// the solver transparently falls back to a cold full-grid solve, so warm
// and cold starts converge to the same fixed points. req.Dst, when
// non-nil, is reused for the result, making steady-state solves
// allocation-free. Solve may be called concurrently on one shared Plan.
func (pl *Plan) Solve(req SolveRequest) (*Result, error) {
	var one [1]SolveRequest
	one[0] = req
	if err := pl.SolveBatch(one[:]); err != nil {
		return nil, err
	}
	return one[0].Dst, nil
}

// SolveBatch runs Algorithm 1 on B requests against one plan, advancing
// all of them in lockstep so the iteration's dominant cost — streaming
// the planar dictionary rows — is paid once per round for the whole
// batch instead of once per request (a cache-blocked matrix–matrix
// product: block over dictionary rows, stride over the B right-hand
// sides). Each request keeps its own α-continuation schedule, duality-gap
// stopping, warm-start working set, polish pass, and KKT audit, and its
// result is byte-identical to the sequential Solve of the same request:
// batching changes only which dictionary row is cache-resident when an
// operation runs, never the operations themselves or their order within
// a request.
//
// All requests are validated before any solving starts — shape checks
// plus a rejection of two requests sharing one non-nil Dst — and on
// error (the returned error names the failing request index) no request
// has been solved. Results are written to each request's Dst, allocating
// one when nil, so callers read reqs[i].Dst after return. Steady-state
// batches with recycled Dsts allocate nothing.
func (pl *Plan) SolveBatch(reqs []SolveRequest) error {
	if len(reqs) == 0 {
		return nil
	}
	wallStart := obs.Tick()
	n, m := pl.n, pl.m
	for i := range reqs {
		if len(reqs[i].H) != n {
			return fmt.Errorf("ndft: request %d: measurement length %d != %d frequencies", i, len(reqs[i].H), n)
		}
		if reqs[i].Warm != nil && len(reqs[i].Warm) != m {
			return fmt.Errorf("ndft: request %d: warm start length %d != %d grid points", i, len(reqs[i].Warm), m)
		}
		if reqs[i].Dst == nil {
			continue
		}
		// Two requests finalizing into one Result would silently
		// overwrite each other; reject the aliasing up front.
		for k := 0; k < i; k++ {
			if reqs[k].Dst == reqs[i].Dst {
				return fmt.Errorf("ndft: request %d: Dst aliases request %d's (each request needs its own Result)", i, k)
			}
		}
	}

	bs := pl.bs.Get().(*batchState)
	if cap(bs.tasks) < len(reqs) {
		bs.tasks = make([]solveTask, len(reqs))
		bs.grad = make([]*solveTask, 0, len(reqs))
	}
	bs.tasks = bs.tasks[:len(reqs)]
	for i := range bs.groups {
		// Task pointers recycle across calls: stale membership snapshots
		// must not pass the lane groups' change detection.
		bs.groups[i] = [maxLanes]*solveTask{}
	}
	for len(bs.wss) < len(reqs) {
		bs.wss = append(bs.wss, pl.getWorkspace())
	}
	for i := range reqs {
		if reqs[i].Dst == nil {
			reqs[i].Dst = &Result{}
		}
		bs.tasks[i].init(pl, &reqs[i], bs.wss[i])
	}

	// The Fᴴh̃ correlation pass is a dense adjoint product per request;
	// batch it over the dictionary rows like the iterations.
	pl.corrPass(bs.tasks)
	for i := range bs.tasks {
		bs.tasks[i].start()
	}

	// Lockstep driver: each round, every unfinished task sets up one
	// iteration (previous-iterate copy, sparse forward residual), the
	// shared gradient pass streams the dictionary once for all of them,
	// and each task finishes its iteration (momentum, continuation,
	// stopping, phase transitions). Tasks leave the round-robin as they
	// finalize; stragglers keep iterating with whoever remains.
	for {
		grad := bs.grad[:0]
		for i := range bs.tasks {
			t := &bs.tasks[i]
			for !t.done && t.iter >= t.budget {
				// Degenerate budget (caller passed MaxIter < 1): consume
				// the phase without running an iteration, as the
				// sequential loop would.
				t.afterIterate(t.budget)
			}
			if t.done {
				continue
			}
			t.beginTick()
			grad = append(grad, t)
		}
		bs.grad = grad
		if len(grad) == 0 {
			break
		}
		pl.gradPass(grad, bs)
		for _, t := range grad {
			t.endTick()
		}
	}

	if obs.Enabled() {
		recordBatch(bs.tasks, wallStart)
	}
	for i := range bs.tasks {
		bs.tasks[i] = solveTask{} // drop caller slices before pooling
	}
	bs.grad = bs.grad[:0]
	pl.bs.Put(bs)
	return nil
}

// init binds a task to its request: workspace, defaulted options, and
// the planar split of the measurement. The request pointer is only read,
// never retained.
func (t *solveTask) init(pl *Plan, req *SolveRequest, w *workspace) {
	*t = solveTask{
		pl:   pl,
		w:    w,
		res:  req.Dst,
		opts: req.InvertOptions.withDefaults(req.H),
		warm: req.Warm,
	}
	split(t.w.hRe, t.w.hIm, req.H)
	t.needCorr = t.opts.Alpha == 0 || !t.opts.PlainISTA
}

// start finishes setup after the batched correlation pass — α scaling,
// warm working-set construction or cold initialization, result reset —
// and enters the main iterate phase.
func (t *solveTask) start() {
	pl, w, m := t.pl, t.w, t.pl.m
	if t.needCorr {
		t.corrInf = math.Sqrt(t.corrMaxSq)
	}
	t.alpha = t.opts.Alpha
	if t.alpha == 0 {
		scale := t.opts.AlphaScale
		if scale == 0 {
			scale = 1
		}
		// Default α: a fraction of the largest correlation between the
		// measurement and any single atom, the standard LASSO scaling
		// (α_max = ‖Fᴴh‖∞ zeroes the whole profile; we default to 10%).
		t.alpha = 0.1 * scale * t.corrInf
	}

	// Initialize the iterate and, for warm starts with a usable support,
	// the restricted working set.
	w.active = w.active[:0]
	warm := t.warm
	idx := pl.allIdx
	if warm != nil {
		split(w.pRe, w.pIm, warm)
		for j := 0; j < m; j++ {
			if w.pRe[j] != 0 || w.pIm[j] != 0 {
				w.active = append(w.active, j)
			}
		}
		if len(w.active) == 0 {
			warm = nil // empty seed: run the ordinary cold start
		} else {
			w.idx = w.idx[:0]
			last := -1
			for _, j := range w.active {
				lo, hi := j-warmDilate, j+warmDilate
				if lo <= last {
					lo = last + 1
				}
				if lo < 0 {
					lo = 0
				}
				if hi > m-1 {
					hi = m - 1
				}
				for k := lo; k <= hi; k++ {
					w.idx = append(w.idx, k)
				}
				last = hi
			}
			if len(w.idx) < m {
				idx = w.idx
				t.restricted = true
			}
		}
	}
	if warm == nil {
		if t.opts.Seed != 0 {
			rng := rand.New(rand.NewSource(t.opts.Seed))
			s := norm2Planar(w.hRe, w.hIm) / float64(m)
			for i := 0; i < m; i++ {
				w.pRe[i], w.pIm[i] = rng.NormFloat64()*s, rng.NormFloat64()*s
				w.active = append(w.active, i)
			}
		} else {
			zero(w.pRe)
			zero(w.pIm)
		}
	}
	copy(w.yRe, w.pRe)
	copy(w.yIm, w.pIm)

	res := t.res
	res.Taus = pl.Taus
	res.Iterations, res.Converged, res.Work = 0, false, 0
	res.GapAtStop, res.NoiseFloor = 0, t.opts.NoiseFloor
	res.Parked = false
	// The gap rule needs a tolerance to stop against: the caller's
	// per-sweep noise estimate or an absolute GapTol. Without either the
	// checks could never pass, so they are skipped entirely and the
	// iterate rule decides alone.
	t.useGap = t.opts.Stop == StopGap && !t.opts.PlainISTA &&
		(t.opts.GapTol > 0 || t.opts.NoiseFloor > 0)

	// α-continuation: start with a large threshold that admits only the
	// strongest atoms and decay toward the target α, steering the iterate
	// into the basin of the sparse global optimum before fine fitting
	// begins — important because the non-uniform band lattice makes the
	// dictionary highly coherent (strong grating lobes). A warm start is
	// already in that basin and begins at the target α directly.
	a0 := t.alpha
	if !t.opts.PlainISTA && warm == nil && t.corrInf > t.alpha {
		a0 = t.corrInf * 0.5
	}
	t.phase = taskMain
	t.beginIterate(idx, a0, t.opts.MaxIter, t.restricted)
}

// beginIterate resets the per-phase iteration state — continuation
// schedule, momentum sequence, gap-check cadence — exactly as the
// sequential iterate() entry does.
func (t *solveTask) beginIterate(set []int, a0 float64, budget int, allowRestart bool) {
	t.set = set
	t.budget = budget
	t.iter = 0
	t.allowRestart = allowRestart
	t.curAlpha = a0
	// The continuation schedule must hand the target α a usable slice
	// of the budget: with a forced tiny α (the sparsity ablation) the
	// default decay could still be ramping when the budget expires,
	// and the Epsilon exit — gated on curAlpha == alpha — could then
	// never fire. Steepen the decay so the ramp spends at most half
	// the budget.
	t.decay = contDecay
	if a0 > t.alpha && t.alpha > 0 && budget > 0 {
		if need := math.Log(t.alpha/a0) / math.Log(t.decay); need > float64(budget)/2 {
			t.decay = math.Exp(2 * math.Log(t.alpha/a0) / float64(budget))
		}
	}
	t.tMom = 1
	t.checkAt = gapEvery
	t.res.Converged = false
}

// beginTick opens one iteration: pick the gradient's source point and
// the shrink threshold. The previous iterate is not copied: the
// gradient pass overwrites each working-set cell of p in place and
// leaves Δp in the cell's delta slot (w.dRe/dIm).
func (t *solveTask) beginTick() {
	w := t.w
	t.iter++
	t.srcRe, t.srcIm = w.pRe, w.pIm
	if !t.opts.PlainISTA {
		t.srcRe, t.srcIm = w.yRe, w.yIm
	}
	// The forward residual resid = F·src − h̃ is owed by the gradient
	// pass (gradPass), which computes it per task — or lane-batched
	// across the group — immediately before the adjoint products.
	t.thr = t.pl.gamma * t.curAlpha
	t.cur = 0
}

// endTick closes the iteration the shared gradient pass just advanced:
// momentum/restart bookkeeping, α-continuation, work accounting, and the
// stopping rules, chaining into the next phase when the iterate ends.
// The gradient pass already booked ‖Δp‖² and the restart inner product,
// so the only walk over the working set left here is the extrapolation
// (FISTA) or support (plain ISTA) pass.
func (t *solveTask) endTick() {
	w, set := t.w, t.set
	diffSq := t.diffSq
	w.active = w.active[:0]
	if t.opts.PlainISTA {
		for _, j := range set {
			if w.pRe[j] != 0 || w.pIm[j] != 0 {
				w.active = append(w.active, j)
			}
		}
	} else {
		// Adaptive (gradient) restart, O'Donoghue & Candès: when
		// the extrapolated step opposes the direction of progress
		// the momentum has overshot — reset it, turning FISTA's
		// oscillatory tail into near-linear convergence. Restarts
		// run only on restricted working-set solves: the grating
		// lobes of the coherent band lattice make the full-grid
		// LASSO optimum a degenerate face (mass can sit on an
		// alias ghost with the same objective), and on the full
		// grid a restarted trajectory may settle on a ghost vertex
		// that the sustained-momentum trajectory avoids. A working
		// set inherited from the previous fix excludes the ghost
		// family entirely, so restarting there is safe — and it is
		// what lets warm solves converge in tens of iterations
		// instead of ringing for hundreds.
		if t.allowRestart && t.gdot > 0 && t.curAlpha == t.alpha {
			t.tMom = 1
		}
		tNext := (1 + math.Sqrt(1+4*t.tMom*t.tMom)) / 2
		beta := (t.tMom - 1) / tNext
		m := t.pl.m
		pRe, pIm, dRe, dIm := w.pRe[:m], w.pIm[:m], w.dRe[:m], w.dIm[:m]
		yRe, yIm := w.yRe[:m], w.yIm[:m]
		active := w.active
		for _, j := range set {
			yr := pRe[j] + beta*dRe[j]
			yi := pIm[j] + beta*dIm[j]
			yRe[j], yIm[j] = yr, yi
			if yr != 0 || yi != 0 {
				active = append(active, j)
			}
		}
		w.active = active
		t.tMom = tNext
		// Decay the continuation threshold toward the target α,
		// jumping ahead when the iterate has already stalled at
		// the current threshold (further same-α iterations are
		// no-ops the Epsilon exit cannot act on yet).
		if t.curAlpha > t.alpha {
			d := t.decay
			if math.Sqrt(diffSq) < t.opts.Epsilon {
				d = contStallDecay
			}
			t.curAlpha *= d
			if t.curAlpha < t.alpha {
				t.curAlpha = t.alpha
			}
		}
	}

	t.res.Work += int64(len(set))
	if math.Sqrt(diffSq) < t.opts.Epsilon && t.curAlpha == t.alpha {
		t.res.Converged = true
		t.afterIterate(t.iter)
		return
	}
	if (t.gapChecks() || t.preemptPolls()) && t.iter >= t.checkAt {
		if t.preemptPolls() && t.opts.Preempt() {
			t.park()
			return
		}
		if t.gapChecks() {
			stop, s := t.gapCheck()
			if stop {
				t.res.Converged = true
				if t.phase == taskMain || t.phase == taskCold {
					// A gap stop inside the polish is its exit, not a
					// trigger for another polish.
					t.gapStopped = true
					t.everGap = true
				}
				t.afterIterate(t.iter)
				return
			}
			if s >= gapDualGate {
				t.checkAt = t.iter + gapFine
			} else {
				t.checkAt = t.iter + gapEvery
			}
		} else {
			// Preempt-only cadence: no gap tolerance to measure, so the
			// poll just rides the coarse check interval.
			t.checkAt = t.iter + gapEvery
		}
	}
	if t.iter >= t.budget {
		t.afterIterate(t.budget)
	}
}

// preemptPolls reports whether the current phase polls the caller's
// preemption hook: only the main and cold-fallback iterates — a polish
// is short, restricted, and about to finish, so parking it would cost
// more than letting it run out.
func (t *solveTask) preemptPolls() bool {
	return t.opts.Preempt != nil && (t.phase == taskMain || t.phase == taskCold)
}

// park stops a preempted solve at the current iterate: the result
// carries the in-progress profile as a resume seed (Parked set,
// Converged false) and skips the KKT audit, cold fallback, and polish —
// a parked iterate is not an answer, so there is nothing to certify.
// The phase's iterations are booked so Work/Iterations telemetry stays
// an honest account of the cost paid before yielding.
func (t *solveTask) park() {
	t.res.Iterations += t.iter
	t.res.Converged = false
	t.res.Parked = true
	t.restricted = false
	t.finishResid()
	t.finalize()
}

// gapChecks reports whether the current phase runs duality-gap checks:
// the main and fallback iterates whenever a tolerance source exists, and
// — under the gap-certified polish exit — the polish pass too, against
// its polishGapFrac-tightened tolerance.
func (t *solveTask) gapChecks() bool {
	if !t.useGap {
		return false
	}
	if t.phase == taskPolish || t.phase == taskColdPolish {
		return polishGapExit
	}
	return true
}

// gapCheck measures the LASSO duality gap of the current iterate over
// the grid cells in the phase's working set and reports whether the
// solve may stop: the scaled residual θ = min(1, α/‖Fᴴr‖∞)·r is dual
// feasible (on the restricted set; the excluded cells are audited by the
// KKT pass), so
//
//	gap = ½‖r‖² + α‖p‖₁ + ½‖θ‖² + Re⟨θ, h̃⟩
//
// bounds the objective suboptimality. The tolerance is the noise
// energy ½‖w‖² (scaled by GapScale) from the caller's per-sweep
// estimate: once the objective is certified within the energy the
// noise contributes, the remaining iterations fit noise, not paths.
// A check costs about one iteration over the same set, paid once per
// gapEvery. GapAtStop refreshes on every check, so even
// iteration-capped solves report their last certified gap.
func (t *solveTask) gapCheck() (bool, float64) {
	pl, w, set, n := t.pl, t.w, t.set, t.pl.n
	// Residual at the iterate p: the iteration loop's residual is
	// taken at the extrapolation point y, which is not the point the
	// gap certifies. Both scratch residuals are recomputed next
	// iteration, so reusing them here is safe. The support scratch is
	// gsupp, not supp: during a polish the working set itself aliases
	// supp.
	w.gsupp = w.gsupp[:0]
	var l1 float64
	for _, j := range set {
		if w.pRe[j] != 0 || w.pIm[j] != 0 {
			w.gsupp = append(w.gsupp, j)
			l1 += math.Hypot(w.pRe[j], w.pIm[j])
		}
	}
	pl.forwardResid(w, w.pRe, w.pIm, w.gsupp)
	var resSq, rh float64
	for i := 0; i < n; i++ {
		resSq += w.residRe[i]*w.residRe[i] + w.resIm[i]*w.resIm[i]
		rh += w.residRe[i]*w.hRe[i] + w.resIm[i]*w.hIm[i]
	}
	// The delta slots are free: endTick consumed Δp in the extrapolation
	// before calling the check, and the next tick rewrites them.
	setDots(pl.fhRe, pl.fhIm, n, set, w.residRe, w.resIm, w.dRe, w.dIm)
	var maxSq float64
	for _, j := range set {
		gr, gi := w.dRe[j], w.dIm[j]
		// float64 pins which square a fusing target (arm64) rounds; see
		// step.
		if sq := float64(gi*gi) + gr*gr; sq > maxSq {
			maxSq = sq
		}
	}
	t.res.Work += int64(len(set) + len(w.gsupp))
	gInf := math.Sqrt(maxSq)
	s := 1.0
	if gInf > t.alpha && t.alpha > 0 {
		s = t.alpha / gInf
	}
	gap := 0.5*resSq + t.alpha*l1 + 0.5*s*s*resSq + s*rh
	if gap < 0 {
		gap = 0 // rounding on an essentially optimal iterate
	}
	t.res.GapAtStop = gap
	tol := t.opts.GapTol
	if tol == 0 {
		tol = 0.5 * t.opts.GapScale * t.opts.NoiseFloor * t.opts.NoiseFloor
	}
	if t.phase == taskPolish || t.phase == taskColdPolish {
		tol *= polishGapFrac
	}
	return s >= gapDualGate && gap <= tol, s
}

// afterIterate books the finished iterate phase and advances the task:
// main/fallback iterates chain into the polish when gap-stopped, then
// into the residual/KKT epilogue.
func (t *solveTask) afterIterate(consumed int) {
	t.res.Iterations += consumed
	switch t.phase {
	case taskMain, taskCold:
		if t.startPolish() {
			return
		}
	case taskPolish, taskColdPolish:
		// The solve converged by its gap certificate whether or not the
		// polish met the tight tolerance inside its budget.
		t.res.Converged = true
	}
	t.finish()
}

// startPolish canonicalizes a gap-stopped iterate: a restricted solve at
// the tight iterate tolerance over the stopped support (dilated by
// polishDilate cells), costing O(support) per iteration. The gap stop
// decides *when* the dense work may end; the polish pins *where* the
// iterate lands — any two trajectories that stop with the same
// support converge to the same restricted optimum, which is what
// keeps warm-started and cold fixes in agreement under early
// stopping, and sharpens the support amplitudes the downstream
// dominance tests read. Reports whether a polish phase was entered.
func (t *solveTask) startPolish() bool {
	if !t.gapStopped {
		return false
	}
	t.gapStopped = false
	w, m := t.w, t.pl.m
	w.supp = w.supp[:0]
	last := -1
	for j := 0; j < m; j++ {
		if w.pRe[j] == 0 && w.pIm[j] == 0 {
			continue
		}
		lo, hi := j-polishDilate, j+polishDilate
		if lo <= last {
			lo = last + 1
		}
		if lo < 0 {
			lo = 0
		}
		if hi > m-1 {
			hi = m - 1
		}
		for k := lo; k <= hi; k++ {
			w.supp = append(w.supp, k)
		}
		last = hi
	}
	if len(w.supp) == 0 || len(w.supp) >= m {
		return false
	}
	// Fresh momentum sequence seeded at p (y ≡ p is zero outside the
	// polish set, since the set contains the whole support).
	copy(w.yRe, w.pRe)
	copy(w.yIm, w.pIm)
	w.active = w.active[:0]
	for _, j := range w.supp {
		if w.pRe[j] != 0 || w.pIm[j] != 0 {
			w.active = append(w.active, j)
		}
	}
	if t.phase == taskCold {
		t.phase = taskColdPolish
	} else {
		t.phase = taskPolish
	}
	t.beginIterate(w.supp, t.alpha, polishBudget, true)
	return true
}

// finish runs the post-iterate epilogue: the final residual, the KKT
// audit of a restricted solve (falling back to a cold full-grid solve on
// violation, so warm starting can trade iterations but never the
// answer), and result materialization.
func (t *solveTask) finish() {
	pl, w, m := t.pl, t.w, t.pl.m
	t.finishResid()
	if t.restricted {
		t.restricted = false
		t.res.Work += int64(m) // the KKT audit is one dense adjoint pass
		if pl.kktViolated(w, t.alpha) {
			// The optimum left the working set (the target moved farther
			// than warmDilate cells between solves): discard the
			// restricted answer and run the cold full-grid solve.
			t.fellBack = true
			zero(w.pRe)
			zero(w.pIm)
			copy(w.yRe, w.pRe)
			copy(w.yIm, w.pIm)
			w.active = w.active[:0]
			a0 := t.alpha
			if !t.opts.PlainISTA && t.corrInf > t.alpha {
				a0 = t.corrInf * 0.5
			}
			t.phase = taskCold
			t.beginIterate(pl.allIdx, a0, t.opts.MaxIter, false)
			return
		}
	}
	t.finalize()
}

// finishResid recomputes resid = F·p − h̃ at the current iterate.
func (t *solveTask) finishResid() {
	w, m := t.w, t.pl.m
	w.active = w.active[:0]
	for j := 0; j < m; j++ {
		if w.pRe[j] != 0 || w.pIm[j] != 0 {
			w.active = append(w.active, j)
		}
	}
	t.pl.forwardResid(w, w.pRe, w.pIm, w.active)
}

// finalize materializes the Result and releases the workspace.
func (t *solveTask) finalize() {
	w, res, n, m := t.w, t.res, t.pl.n, t.pl.m
	var resSq float64
	for i := 0; i < n; i++ {
		resSq += w.residRe[i]*w.residRe[i] + w.resIm[i]*w.resIm[i]
	}
	res.Residual = math.Sqrt(resSq)

	res.Profile = growVec(res.Profile, m)
	res.Magnitude = growFloats(res.Magnitude, m)
	for j := 0; j < m; j++ {
		res.Profile[j] = complex(w.pRe[j], w.pIm[j])
		res.Magnitude[j] = math.Sqrt(w.pRe[j]*w.pRe[j] + w.pIm[j]*w.pIm[j])
	}
	t.w = nil // the workspace stays owned by the batchState
	t.done = true
}

// corrPass computes ‖Fᴴh̃‖∞ for every task that needs it (the default α
// scaling and the cold continuation ramp), batched over the dictionary
// rows so one row pass serves the whole batch.
func (pl *Plan) corrPass(tasks []solveTask) {
	n, m := pl.n, pl.m
	for j := 0; j < m; j++ {
		aRe, aIm := pl.fhRe[j*n:(j+1)*n], pl.fhIm[j*n:(j+1)*n]
		for i := range tasks {
			t := &tasks[i]
			if !t.needCorr {
				continue
			}
			cr, ci := adjDot(aRe, aIm, t.w.hRe, t.w.hIm)
			if sq := cr*cr + ci*ci; sq > t.corrMaxSq {
				t.corrMaxSq = sq
			}
		}
	}
}

// gradPass is the batch's shared gradient step: for every task,
// p ← SPARSIFY(src − γ·(Fᴴ·resid), γα), fused per grid cell. Tasks are
// partitioned into lane groups of the active tier's width (batchLanes);
// within a group the pass
// walks the union of the members' next rows in ascending order (the
// working sets are ascending), so each dictionary row is streamed once
// per round for the whole group — the cache-blocked matrix–matrix
// product, with the B right-hand sides striding the SIMD lanes. The
// per-task arithmetic is identical on every path (vector lane, scalar
// group, single-task fast path), which is what makes batch results
// byte-identical to sequential ones.
func (pl *Plan) gradPass(tasks []*solveTask, bs *batchState) {
	if len(tasks) == 1 {
		pl.gradTask(tasks[0])
		return
	}
	vector := activeTier != tierScalar
	if vector && pl.fullLockstep(tasks) {
		pl.gradFullLanes(tasks, bs)
		return
	}
	lw := batchLanes
	for g := 0; g < len(tasks); g += lw {
		end := g + lw
		if end > len(tasks) {
			end = len(tasks)
		}
		group := tasks[g:end]
		if vector && len(group) > 1 {
			pl.gradGroupLanes(group, g/lw, bs)
		} else if len(group) == 1 {
			pl.gradTask(group[0])
		} else {
			pl.gradGroupScalar(group)
		}
	}
}

// fullLockstep reports whether every task is about to walk the whole
// grid from the top — the cold-batch service case, where the adjoint
// pass of all lane groups fuses into one cache-blocked matrix–matrix
// product.
func (pl *Plan) fullLockstep(tasks []*solveTask) bool {
	for _, t := range tasks {
		if t.cur != 0 || len(t.set) != pl.m {
			return false
		}
	}
	return true
}

// laneStage prepares one lane group's forward residual in lane-major
// layout: the buffer starts as a copy of the members' (negated,
// lane-transposed) measurements — rebuilt only when the group's
// membership changes — and then walks the ascending union of the
// members' source supports, each dictionary column streamed once while
// the tier's axpy kernel scatters coef·column into exactly the lanes
// whose task carries it. Masked stores leave the other lanes untouched,
// and the ascending walk visits every task's support in its own
// (ascending) order, so each lane's accumulation chain is the scalar
// forwardResid's, bit for bit.
func (pl *Plan) laneStage(tasks []*solveTask, gi int, bs *batchState, resTRe, resTIm []float64) {
	n, m := pl.n, pl.m
	lw := batchLanes
	stride := n * lw
	for len(bs.groups) <= gi {
		bs.groups = append(bs.groups, [maxLanes]*solveTask{})
	}
	if len(bs.hTRe) < (gi+1)*stride {
		hTRe := make([]float64, (gi+1)*stride)
		hTIm := make([]float64, (gi+1)*stride)
		copy(hTRe, bs.hTRe)
		copy(hTIm, bs.hTIm)
		bs.hTRe, bs.hTIm = hTRe, hTIm
	}
	hTRe := bs.hTRe[gi*stride : (gi+1)*stride]
	hTIm := bs.hTIm[gi*stride : (gi+1)*stride]
	mem := &bs.groups[gi]
	changed := false
	for b := 0; b < lw; b++ {
		var tb *solveTask
		if b < len(tasks) {
			tb = tasks[b]
		}
		if mem[b] != tb {
			mem[b], changed = tb, true
		}
	}
	if changed {
		// Membership shifts only when a task finishes; in steady state
		// the per-tick residual start is a straight copy.
		for b := 0; b < lw; b++ {
			if b < len(tasks) {
				w := tasks[b].w
				for i := 0; i < n; i++ {
					hTRe[i*lw+b] = -w.hRe[i]
					hTIm[i*lw+b] = -w.hIm[i]
				}
			} else {
				for i := 0; i < n; i++ {
					hTRe[i*lw+b] = 0
					hTIm[i*lw+b] = 0
				}
			}
		}
	}
	copy(resTRe, hTRe)
	copy(resTIm, hTIm)

	var pos [maxLanes]int
	for {
		j := m
		for b, t := range tasks {
			if a := t.w.active; pos[b] < len(a) && a[pos[b]] < j {
				j = a[pos[b]]
			}
		}
		if j == m {
			return
		}
		var mask uint64
		for b, t := range tasks {
			if a := t.w.active; pos[b] < len(a) && a[pos[b]] == j {
				pos[b]++
				mask |= 1 << b
				bs.cr[b], bs.ci[b] = t.srcRe[j], t.srcIm[j]
			}
		}
		kernAxpy(&pl.fhRe[j*n], &pl.fhIm[j*n], &bs.cr[0], &bs.ci[0], &resTRe[0], &resTIm[0], n, mask)
	}
}

// gradFullLanes is the batch's cache-blocked matrix–matrix product: with
// every task walking the full grid in lockstep, the adjoint pass blocks
// the dictionary rows over L1-resident element tiles of the lane-major
// residuals, the B right-hand sides striding the SIMD lanes of every
// group — so each dictionary row slice is loaded once per tick for ALL
// groups, not once per group. Each row's accumulator chains are carried
// across tiles in exact reference order (the tier's chunked dot
// kernel), keeping every task's dot bit-identical to the scalar path.
func (pl *Plan) gradFullLanes(tasks []*solveTask, bs *batchState) {
	n, m := pl.n, pl.m
	lw := batchLanes
	stride := n * lw
	ng := (len(tasks) + lw - 1) / lw
	if cap(bs.resTRe) < ng*stride {
		bs.resTRe = make([]float64, ng*stride)
		bs.resTIm = make([]float64, ng*stride)
	}
	resTRe, resTIm := bs.resTRe[:ng*stride], bs.resTIm[:ng*stride]
	for g := 0; g < ng; g++ {
		end := (g + 1) * lw
		if end > len(tasks) {
			end = len(tasks)
		}
		pl.laneStage(tasks[g*lw:end], g, bs,
			resTRe[g*stride:(g+1)*stride], resTIm[g*stride:(g+1)*stride])
	}

	if cap(bs.state) < ng*m*8*lw {
		bs.state = make([]float64, ng*m*8*lw)
	}
	if cap(bs.gT) < ng*m*2*lw {
		bs.gT = make([]float64, ng*m*2*lw)
	}
	state, gT := bs.state, bs.gT
	// All groups' residual tiles must share L1 with the row slice and
	// the accumulator stream, so the element tile shrinks as groups are
	// added (kept a multiple of 4 to preserve chain phase).
	tile := dotTile / ng
	if tile < 32 {
		tile = 32
	}
	tile &^= 3
	for i0 := 0; i0 < n; i0 += tile {
		tl := tile
		if n-i0 < tl {
			tl = n - i0
		}
		var mode uint64
		if i0 == 0 {
			mode |= 1
		}
		if i0+tl == n {
			mode |= 2
		}
		for j := 0; j < m; j++ {
			for g := 0; g < ng; g++ {
				// State and output interleave the groups by row
				// ((j·ng+g)-major) so the accumulator traffic is one
				// sequential stream however many groups run.
				kernDotChunk(&pl.fhRe[j*n+i0], &pl.fhIm[j*n+i0],
					&resTRe[g*stride+i0*lw], &resTIm[g*stride+i0*lw], tl,
					&state[(j*ng+g)*8*lw], &gT[(j*ng+g)*2*lw], mode, n*8)
			}
		}
	}

	for i, t := range tasks {
		g, b := i/lw, i%lw
		w := t.w
		for j := 0; j < m; j++ {
			w.dRe[j] = gT[(j*ng+g)*2*lw+b]
			w.dIm[j] = gT[(j*ng+g)*2*lw+lw+b]
		}
		t.step()
		t.cur = len(t.set)
	}
}

// gradGroupLanes runs one lane group's gradient step through the
// vectorized kernels, one solver task per SIMD lane: laneStage
// accumulates the members' forward residuals in a lane-major buffer,
// then the adjoint pass walks the ascending union of the members'
// working sets, each dictionary row streamed once while the tier's dot
// kernel computes every member's dot in its own lane with the reference
// scalar chain arithmetic (bit-identical per task). Lanes whose task
// does not need the row compute a discarded dot — cheaper than masking.
// Each member's dots land in its delta slots; the soft-threshold step
// then runs per task (step).
func (pl *Plan) gradGroupLanes(tasks []*solveTask, gi int, bs *batchState) {
	n, m := pl.n, pl.m
	stride := n * batchLanes
	if cap(bs.resTRe) < stride {
		bs.resTRe = make([]float64, stride)
		bs.resTIm = make([]float64, stride)
	}
	resTRe, resTIm := bs.resTRe[:stride], bs.resTIm[:stride]
	pl.laneStage(tasks, gi, bs, resTRe, resTIm)

	for {
		// The next dictionary row any member still needs; restricted
		// tasks skip the rows between their working-set cells.
		j := m
		for _, t := range tasks {
			if t.cur < len(t.set) && t.set[t.cur] < j {
				j = t.set[t.cur]
			}
		}
		if j == m {
			break
		}
		kernDot(&pl.fhRe[j*n], &pl.fhIm[j*n], &resTRe[0], &resTIm[0], n, &bs.gr[0], &bs.gi[0])
		for b, t := range tasks {
			if t.cur >= len(t.set) || t.set[t.cur] != j {
				continue
			}
			t.cur++
			t.w.dRe[j], t.w.dIm[j] = bs.gr[b], bs.gi[b]
		}
	}
	for _, t := range tasks {
		t.step()
	}
}

// gradTask is the single-task gradient step — the reference path every
// other gradPass path must reproduce: the sparse forward residual, the
// adjoint dots of the whole working set in one setDots call (one kernel
// call per tick on the amd64 vector tiers), then the fused shrink pass.
func (pl *Plan) gradTask(t *solveTask) {
	n := pl.n
	w := t.w
	// resid = F·src − h̃, accumulated over src's support only: the
	// soft-thresholded iterate is sparse, so the forward product
	// touches a few dozen dictionary columns, not the whole grid.
	pl.forwardResid(w, t.srcRe, t.srcIm, w.active)
	setDots(pl.fhRe, pl.fhIm, n, t.set, w.residRe, w.resIm, w.dRe, w.dIm)
	t.step()
}

// gradGroupScalar is the scalar fallback for a lane group when the
// vector kernel is unavailable: the same row-union walk as the lane
// path and the same adjDot per task as setDots, so results are
// identical on every architecture.
func (pl *Plan) gradGroupScalar(tasks []*solveTask) {
	n, m := pl.n, pl.m
	for _, t := range tasks {
		pl.forwardResid(t.w, t.srcRe, t.srcIm, t.w.active)
	}
	for {
		// The next dictionary row any task still needs; restricted tasks
		// skip the rows between their working-set cells.
		j := m
		for _, t := range tasks {
			if t.cur < len(t.set) && t.set[t.cur] < j {
				j = t.set[t.cur]
			}
		}
		if j == m {
			break
		}
		aRe, aIm := pl.fhRe[j*n:(j+1)*n], pl.fhIm[j*n:(j+1)*n]
		for _, t := range tasks {
			if t.cur >= len(t.set) || t.set[t.cur] != j {
				continue
			}
			t.cur++
			w := t.w
			w.dRe[j], w.dIm[j] = adjDot(aRe, aIm, w.residRe[:n], w.resIm[:n])
		}
	}
	for _, t := range tasks {
		t.step()
	}
}

// step is the tick's fused elementwise pass, shared by every gradient
// path. On entry each working-set cell's delta slot holds its adjoint
// dot (gr, gi); step takes the gradient step from the source point,
// soft-thresholds it into p, and leaves Δp = p⁺ − p in the slot, booking
// ‖Δp‖² and the restart inner product ⟨y − p⁺, Δp⟩ in set order as it
// goes — the sums endTick's restart and stopping tests read. The
// shrinkage test compares squared magnitudes so the (dominant) zeroed
// taps never pay for a square root; a NaN gradient fails the test and
// yields a NaN coefficient.
//
// The float64 conversions fix the rounding on targets that fuse
// multiply-adds (arm64): a conversion rounds its product, so only the
// other product of a sum may fuse. Which product the compiler fuses in
// a plain x*x + y*y depends on value numbering across the function, not
// on the text, so each sum names the product it rounds: the product
// the compiler rounded before these sums moved here, so fusing targets
// keep their results. ‖Δp‖² came from two loops that rounded different
// squares (di² on the FISTA path, dr² on the plain-ISTA one), so the
// plain flag picks the form. The shrunk coefficients are rounded before
// Δp is taken. On targets without fusion (amd64) the conversions are
// no-ops and each sum is the same IEEE addition in either operand order.
func (t *solveTask) step() {
	w, m := t.w, t.pl.m
	gamma := t.pl.gamma
	thr := t.thr
	thrSq := thr * thr
	srcRe, srcIm := t.srcRe[:m], t.srcIm[:m]
	pRe, pIm := w.pRe[:m], w.pIm[:m]
	dRe, dIm := w.dRe[:m], w.dIm[:m]
	plain := t.opts.PlainISTA
	var diffSq, gdot float64
	for _, j := range t.set {
		sr, si := srcRe[j], srcIm[j]
		pr := sr - gamma*dRe[j]
		pi := si - gamma*dIm[j]
		var nr, ni float64
		if sq := float64(pr*pr) + pi*pi; sq <= thrSq { // "<=" also zeroes sq==thrSq==0, avoiding 0/0 below
			nr, ni = 0, 0
		} else {
			a := math.Sqrt(sq)
			sc := (a - thr) / a
			nr, ni = float64(pr*sc), float64(pi*sc)
		}
		dr, di := nr-pRe[j], ni-pIm[j]
		pRe[j], pIm[j] = nr, ni
		dRe[j], dIm[j] = dr, di
		if plain {
			diffSq += float64(dr*dr) + di*di
		} else {
			diffSq += float64(di*di) + dr*dr
		}
		gdot += float64((si-ni)*di) + (sr-nr)*dr
	}
	t.diffSq, t.gdot = diffSq, gdot
}

// norm2Planar is ‖h‖₂ over the planar split — the random-initialization
// scale the sequential path computed from the complex vector.
func norm2Planar(re, im []float64) float64 {
	var s float64
	for i := range re {
		s += re[i]*re[i] + im[i]*im[i]
	}
	return math.Sqrt(s)
}
