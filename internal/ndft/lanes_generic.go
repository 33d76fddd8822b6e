//go:build (!amd64 && !arm64) || ndft_noasm

package ndft

// detectTier resolves to the scalar contract path: either the
// architecture has no vector kernels or the ndft_noasm build tag forced
// them off. Batched solves share the scalar kernel with sequential ones
// (identical results, per-session throughput).
func detectTier() kernelTier { return tierScalar }

// The kernel entry points are never reached on the scalar tier (every
// dispatch site gates on activeTier first); the stubs keep the package
// compiling on any architecture.

func kernDot(rowRe, rowIm, resTRe, resTIm *float64, n int, grOut, giOut *float64) {
	panic("ndft: vector kernel called on scalar tier")
}

func kernDotChunk(rowRe, rowIm, resTRe, resTIm *float64, k int, state, out *float64, mode uint64, stride int) {
	panic("ndft: vector kernel called on scalar tier")
}

func kernAxpy(rowRe, rowIm, coefRe, coefIm, resTRe, resTIm *float64, n int, mask uint64) {
	panic("ndft: vector kernel called on scalar tier")
}

func kernAdjDot(aRe, aIm, xRe, xIm *float64, k4 int, part *float64) {
	panic("ndft: vector kernel called on scalar tier")
}

func kernAxpyCol(rowRe, rowIm *float64, cr, ci float64, dstRe, dstIm *float64, n4 int) {
	panic("ndft: vector kernel called on scalar tier")
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
