//go:build arm64 && !ndft_noasm

package ndft

// The 4-lane NEON ports of the batch kernels (two 2×float64 q-registers
// paired per 4-lane vector) plus the single-solve kernels. Every lane
// performs the reference scalar accumulator-chain arithmetic exactly —
// the NEON bodies mirror the AVX2 ones instruction for instruction
// (separate multiply and add/subtract, never fused multiply-add, which
// would change rounding). See lanes_arm64.s.
//
//go:noescape
func dot4neon(rowRe, rowIm, resTRe, resTIm *float64, n int, grOut, giOut *float64)

//go:noescape
func dotChunk4neon(rowRe, rowIm, resTRe, resTIm *float64, k int, state, out *float64, mode uint64, stride int)

//go:noescape
func axpy4neon(rowRe, rowIm, coefRe, coefIm, resTRe, resTIm *float64, n int, mask *uint64)

//go:noescape
func dotVecNeon(aRe, aIm, xRe, xIm *float64, k4 int, part *float64)

//go:noescape
func axpyColNeon(rowRe, rowIm *float64, cr, ci float64, dstRe, dstIm *float64, n4 int)

// detectTier resolves to the NEON tier unconditionally: ASIMD with
// double-precision vectors is an architectural requirement of AArch64,
// so there is nothing to probe (the CHRONOS_NDFT_KERNEL clamp and the
// ndft_noasm build tag remain the ways to force the scalar path).
func detectTier() kernelTier { return tierNEON }

func kernDot(rowRe, rowIm, resTRe, resTIm *float64, n int, grOut, giOut *float64) {
	dot4neon(rowRe, rowIm, resTRe, resTIm, n, grOut, giOut)
}

func kernDotChunk(rowRe, rowIm, resTRe, resTIm *float64, k int, state, out *float64, mode uint64, stride int) {
	dotChunk4neon(rowRe, rowIm, resTRe, resTIm, k, state, out, mode, stride)
}

func kernAxpy(rowRe, rowIm, coefRe, coefIm, resTRe, resTIm *float64, n int, mask uint64) {
	axpy4neon(rowRe, rowIm, coefRe, coefIm, resTRe, resTIm, n, &axpyMask[mask&15][0])
}

func kernAdjDot(aRe, aIm, xRe, xIm *float64, k4 int, part *float64) {
	dotVecNeon(aRe, aIm, xRe, xIm, k4, part)
}

func kernAxpyCol(rowRe, rowIm *float64, cr, ci float64, dstRe, dstIm *float64, n4 int) {
	axpyColNeon(rowRe, rowIm, cr, ci, dstRe, dstIm, n4)
}

// hasTickKernels is false: setDots keeps the per-row adjDot loop and
// forwardResid the per-column axpyCol loop here.
const hasTickKernels = false

func kernSetDots(fhRe, fhIm *float64, n int, set []int, rRe, rIm, dRe, dIm *float64) {
	panic("ndft: fused tick kernel not built")
}

func kernForward(fhRe, fhIm *float64, n int, cols []int, srcRe, srcIm, hRe, hIm, rRe, rIm *float64) {
	panic("ndft: fused tick kernel not built")
}
