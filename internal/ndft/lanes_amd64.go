//go:build amd64 && !ndft_noasm

package ndft

// dot8avx512 computes, for eight independent lanes b, the planar complex
// dot product of the shared adjoint row against lane b's transposed
// residual (resT[i*8+b]), writing gr/gi per lane. Each lane performs the
// reference scalar chain arithmetic exactly (the fixed-K cdot contract;
// see lanes_amd64.s), which is what keeps batched solves byte-identical
// to sequential ones.
//
//go:noescape
func dot8avx512(rowRe, rowIm, resTRe, resTIm *float64, n int, grOut, giOut *float64)

// dotChunk8avx512 advances one row's eight lane dots across one element
// tile, carrying the eight accumulator chains in state (8×8 doubles per
// row). mode bit 0 zeroes the chains (first tile), bit 1 folds them and
// writes out (gr lanes, then gi lanes — 16 doubles). stride is the
// dictionary row pitch in bytes, used to prefetch the next row's slice.
// See lanes_amd64.s.
//
//go:noescape
func dotChunk8avx512(rowRe, rowIm, resTRe, resTIm *float64, k int, state, out *float64, mode uint64, stride int)

// axpy8avx512 accumulates, for every lane b whose mask bit is set, the
// scaled dictionary column coef_b·col_j into lane b of the transposed
// residual (resT[i*8+b] over i), with merge-masked stores so the other
// lanes' bits never move. Each active lane performs the scalar
// forwardResid chain arithmetic exactly (see lanes_amd64.s).
//
//go:noescape
func axpy8avx512(rowRe, rowIm, coefRe, coefIm, resTRe, resTIm *float64, n int, mask uint64)

// The 4-lane AVX2 ports of the three batch kernels (ymm registers, no
// opmask — axpy4avx2 emulates the merge-masked store with VMASKMOVPD
// against an expanded lane mask), plus the single-solve kernels shared
// by both amd64 vector tiers: dotVec4 runs the four cdot accumulator
// chains across ymm lanes. See lanes_avx2_amd64.s.
//
//go:noescape
func dot4avx2(rowRe, rowIm, resTRe, resTIm *float64, n int, grOut, giOut *float64)

//go:noescape
func dotChunk4avx2(rowRe, rowIm, resTRe, resTIm *float64, k int, state, out *float64, mode uint64, stride int)

//go:noescape
func axpy4avx2(rowRe, rowIm, coefRe, coefIm, resTRe, resTIm *float64, n int, mask *uint64)

//go:noescape
func dotVec4(aRe, aIm, xRe, xIm *float64, k4 int, part *float64)

// setDotsVec4 is the fused per-tick adjoint pass of a single solve, also
// shared by both amd64 vector tiers: every working-set row's full
// fixed-K dot (chains, tail, fold) in one call, written to the per-cell
// slots dRe[j], dIm[j]. See lanes_avx2_amd64.s.
//
//go:noescape
func setDotsVec4(fhRe, fhIm *float64, n int, set *int, nset int, rRe, rIm, dRe, dIm *float64)

// forwardVec4 is the fused forward residual of a single solve, shared
// by both amd64 vector tiers: r = F·src − h̃ over the support columns in
// one call, each element accumulated in column order as the scalar
// forwardResid does. See lanes_avx2_amd64.s.
//
//go:noescape
func forwardVec4(fhRe, fhIm *float64, n int, cols *int, ncols int, srcRe, srcIm, hRe, hIm, rRe, rIm *float64)

func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// detectTier resolves the best amd64 kernel tier the CPU and OS
// support: AVX-512F with full zmm+opmask state, else AVX2 with ymm
// state, else the scalar contract path.
func detectTier() kernelTier {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return tierScalar
	}
	_, _, c1, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	if c1&osxsave == 0 {
		return tierScalar
	}
	lo, _ := xgetbv0()
	_, b7, _, _ := cpuidex(7, 0)
	// XCR0: SSE+AVX state (bits 1-2) and opmask/zmm state (bits 5-7)
	// must all be OS-enabled before zmm registers are usable.
	const avx512f = 1 << 16
	if lo&0xe6 == 0xe6 && b7&avx512f != 0 {
		return tierAVX512
	}
	// AVX2 needs only the SSE+AVX state bits and the leaf-7 AVX2 flag.
	const avx2 = 1 << 5
	if lo&0x6 == 0x6 && b7&avx2 != 0 {
		return tierAVX2
	}
	return tierScalar
}

// kernDot / kernDotChunk / kernAxpy dispatch one batch-kernel call to
// the active tier's implementation. The lane count (batchLanes) and the
// lane-major layouts the callers stage are already tier-sized; both
// implementations honor the same fixed-K chain contract, so the tier
// changes throughput only. Never called on the scalar tier.
func kernDot(rowRe, rowIm, resTRe, resTIm *float64, n int, grOut, giOut *float64) {
	if activeTier == tierAVX512 {
		dot8avx512(rowRe, rowIm, resTRe, resTIm, n, grOut, giOut)
	} else {
		dot4avx2(rowRe, rowIm, resTRe, resTIm, n, grOut, giOut)
	}
}

func kernDotChunk(rowRe, rowIm, resTRe, resTIm *float64, k int, state, out *float64, mode uint64, stride int) {
	if activeTier == tierAVX512 {
		dotChunk8avx512(rowRe, rowIm, resTRe, resTIm, k, state, out, mode, stride)
	} else {
		dotChunk4avx2(rowRe, rowIm, resTRe, resTIm, k, state, out, mode, stride)
	}
}

func kernAxpy(rowRe, rowIm, coefRe, coefIm, resTRe, resTIm *float64, n int, mask uint64) {
	if activeTier == tierAVX512 {
		axpy8avx512(rowRe, rowIm, coefRe, coefIm, resTRe, resTIm, n, mask)
	} else {
		axpy4avx2(rowRe, rowIm, coefRe, coefIm, resTRe, resTIm, n, &axpyMask[mask&15][0])
	}
}

// kernAdjDot is the single-solve adjoint kernel: the ymm form serves
// both amd64 vector tiers (the adjoint chains are four wide by
// contract, so zmm registers would buy nothing). Never called on the
// scalar tier.
func kernAdjDot(aRe, aIm, xRe, xIm *float64, k4 int, part *float64) {
	dotVec4(aRe, aIm, xRe, xIm, k4, part)
}

// kernAxpyCol is never reached here: forwardResid runs forwardVec4 on
// both vector tiers, so axpyCol keeps only its scalar loop on amd64.
func kernAxpyCol(rowRe, rowIm *float64, cr, ci float64, dstRe, dstIm *float64, n4 int) {
	panic("ndft: per-column kernel not built; forwardResid uses forwardVec4")
}

// hasTickKernels reports that this build carries the fused per-tick
// kernels: setDots and forwardResid run them on every vector tier.
const hasTickKernels = true

func kernSetDots(fhRe, fhIm *float64, n int, set []int, rRe, rIm, dRe, dIm *float64) {
	setDotsVec4(fhRe, fhIm, n, &set[0], len(set), rRe, rIm, dRe, dIm)
}

func kernForward(fhRe, fhIm *float64, n int, cols []int, srcRe, srcIm, hRe, hIm, rRe, rIm *float64) {
	forwardVec4(fhRe, fhIm, n, &cols[0], len(cols), srcRe, srcIm, hRe, hIm, rRe, rIm)
}
