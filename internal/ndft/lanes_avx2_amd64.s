//go:build !ndft_noasm

// AVX2 (ymm) 4-lane ports of the batch kernels, plus the single-solve
// kernels shared by both amd64 vector tiers. The bodies mirror the
// AVX-512 kernels instruction for instruction at half the lane width:
// the same fixed-K adjoint-dot contract (four accumulator chains,
// element i mod 4, tail to chain 0, pinned (s0+s1)+(s2+s3) fold),
// separate multiply and add/subtract — no FMA, which would change
// rounding. AVX2 has no opmask registers, so axpy4avx2 emulates the
// AVX-512 merge-masked store with VMASKMOVPD against a 4-qword
// all-ones/zero lane mask (masked-out lanes' memory does not move).

#include "textflag.h"

// func dot4avx2(rowRe, rowIm, resTRe, resTIm *float64, n int, grOut, giOut *float64)
//
// rowRe/rowIm: one planar adjoint row (n doubles each), shared by lanes.
// resTRe/resTIm: lane-transposed residuals, resT[i*4+b] = lane b element i.
// grOut/giOut: 4 doubles each, the folded lane dot products.
TEXT ·dot4avx2(SB), NOSPLIT, $0-56
	MOVQ rowRe+0(FP), SI
	MOVQ rowIm+8(FP), DI
	MOVQ resTRe+16(FP), R8
	MOVQ resTIm+24(FP), R9
	MOVQ n+32(FP), CX

	// Y0..Y3 = gr0..gr3, Y4..Y7 = gi0..gi3 chains (per lane).
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	XORQ AX, AX // i

loop4:
	MOVQ CX, DX
	SUBQ AX, DX
	CMPQ DX, $4
	JLT  tail

	MOVQ AX, BX
	SHLQ $5, BX // i*4 lanes*8 bytes

	// Element i -> chain 0: gr0 += ar*br - ai*bi; gi0 += ar*bi + ai*br
	VBROADCASTSD (SI)(AX*8), Y8   // ar
	VBROADCASTSD (DI)(AX*8), Y9   // ai
	VMOVUPD      (R8)(BX*1), Y10  // br lanes
	VMOVUPD      (R9)(BX*1), Y11  // bi lanes
	VMULPD       Y10, Y8, Y12     // ar*br
	VMULPD       Y11, Y9, Y13     // ai*bi
	VSUBPD       Y13, Y12, Y12    // ar*br - ai*bi
	VADDPD       Y12, Y0, Y0
	VMULPD       Y11, Y8, Y12     // ar*bi
	VMULPD       Y10, Y9, Y13     // ai*br
	VADDPD       Y13, Y12, Y12    // ar*bi + ai*br
	VADDPD       Y12, Y4, Y4

	// Element i+1 -> chain 1.
	VBROADCASTSD 8(SI)(AX*8), Y8
	VBROADCASTSD 8(DI)(AX*8), Y9
	VMOVUPD      32(R8)(BX*1), Y10
	VMOVUPD      32(R9)(BX*1), Y11
	VMULPD       Y10, Y8, Y12
	VMULPD       Y11, Y9, Y13
	VSUBPD       Y13, Y12, Y12
	VADDPD       Y12, Y1, Y1
	VMULPD       Y11, Y8, Y12
	VMULPD       Y10, Y9, Y13
	VADDPD       Y13, Y12, Y12
	VADDPD       Y12, Y5, Y5

	// Element i+2 -> chain 2.
	VBROADCASTSD 16(SI)(AX*8), Y8
	VBROADCASTSD 16(DI)(AX*8), Y9
	VMOVUPD      64(R8)(BX*1), Y10
	VMOVUPD      64(R9)(BX*1), Y11
	VMULPD       Y10, Y8, Y12
	VMULPD       Y11, Y9, Y13
	VSUBPD       Y13, Y12, Y12
	VADDPD       Y12, Y2, Y2
	VMULPD       Y11, Y8, Y12
	VMULPD       Y10, Y9, Y13
	VADDPD       Y13, Y12, Y12
	VADDPD       Y12, Y6, Y6

	// Element i+3 -> chain 3.
	VBROADCASTSD 24(SI)(AX*8), Y8
	VBROADCASTSD 24(DI)(AX*8), Y9
	VMOVUPD      96(R8)(BX*1), Y10
	VMOVUPD      96(R9)(BX*1), Y11
	VMULPD       Y10, Y8, Y12
	VMULPD       Y11, Y9, Y13
	VSUBPD       Y13, Y12, Y12
	VADDPD       Y12, Y3, Y3
	VMULPD       Y11, Y8, Y12
	VMULPD       Y10, Y9, Y13
	VADDPD       Y13, Y12, Y12
	VADDPD       Y12, Y7, Y7

	ADDQ $4, AX
	JMP  loop4

tail:
	// Remaining k mod 4 elements feed chain 0 sequentially (the cdot
	// tail loop).
	CMPQ AX, CX
	JGE  done

	MOVQ AX, BX
	SHLQ $5, BX
	VBROADCASTSD (SI)(AX*8), Y8
	VBROADCASTSD (DI)(AX*8), Y9
	VMOVUPD      (R8)(BX*1), Y10
	VMOVUPD      (R9)(BX*1), Y11
	VMULPD       Y10, Y8, Y12
	VMULPD       Y11, Y9, Y13
	VSUBPD       Y13, Y12, Y12
	VADDPD       Y12, Y0, Y0
	VMULPD       Y11, Y8, Y12
	VMULPD       Y10, Y9, Y13
	VADDPD       Y13, Y12, Y12
	VADDPD       Y12, Y4, Y4

	INCQ AX
	JMP  tail

done:
	// Pinned fold (s0+s1)+(s2+s3).
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VADDPD Y5, Y4, Y4
	VADDPD Y7, Y6, Y6
	VADDPD Y6, Y4, Y4
	MOVQ   grOut+40(FP), R10
	MOVQ   giOut+48(FP), R11
	VMOVUPD Y0, (R10)
	VMOVUPD Y4, (R11)
	VZEROUPPER
	RET

// func axpy4avx2(rowRe, rowIm, coefRe, coefIm, resTRe, resTIm *float64, n int, mask *uint64)
//
// Lane-masked forward-residual accumulation, the AVX2 port of
// axpy8avx512: mask points at 4 qwords (all-ones for active lanes, zero
// for inactive — kernels.go's axpyMask table) and VMASKMOVPD stores
// only the active lanes, so masked-out lanes' memory never moves. Each
// active lane performs the scalar forwardResid chain arithmetic exactly
// (the sign-folded dstRe += ar*cr + rowIm*ci form; see axpy8avx512).
TEXT ·axpy4avx2(SB), NOSPLIT, $0-64
	MOVQ rowRe+0(FP), SI
	MOVQ rowIm+8(FP), DI
	MOVQ coefRe+16(FP), AX
	MOVQ coefIm+24(FP), BX
	MOVQ resTRe+32(FP), R8
	MOVQ resTIm+40(FP), R9
	MOVQ n+48(FP), CX
	MOVQ mask+56(FP), DX

	VMOVUPD (DX), Y1 // lane mask (all-ones/zero qwords)
	VMOVUPD (AX), Y2 // cr lanes
	VMOVUPD (BX), Y3 // ci lanes

	XORQ AX, AX // i
	XORQ BX, BX // i*32 byte offset

axloop:
	CMPQ AX, CX
	JGE  axdone

	VBROADCASTSD (SI)(AX*8), Y4 // ar
	VBROADCASTSD (DI)(AX*8), Y5 // rowIm[i]

	// dstRe += ar*cr + rowIm*ci
	VMULPD     Y2, Y4, Y6
	VMULPD     Y3, Y5, Y7
	VADDPD     Y7, Y6, Y6
	VMOVUPD    (R8)(BX*1), Y8
	VADDPD     Y6, Y8, Y8
	VMASKMOVPD Y8, Y1, (R8)(BX*1)

	// dstIm += ar*ci − rowIm*cr
	VMULPD     Y3, Y4, Y6
	VMULPD     Y2, Y5, Y7
	VSUBPD     Y7, Y6, Y6
	VMOVUPD    (R9)(BX*1), Y8
	VADDPD     Y6, Y8, Y8
	VMASKMOVPD Y8, Y1, (R9)(BX*1)

	INCQ AX
	ADDQ $32, BX
	JMP  axloop

axdone:
	VZEROUPPER
	RET

// func dotChunk4avx2(rowRe, rowIm, resTRe, resTIm *float64, k int, state, out *float64, mode uint64, stride int)
//
// The AVX2 port of dotChunk8avx512: the same eight accumulator chains
// carried across element tiles in a 32-double per-row state. mode bit 0
// starts the row (zero chains), bit 1 ends it (fold and write the
// 8-double gr|gi lane outputs). Tiles start at multiples of 4, so chain
// phase matches the scalar reference exactly.
TEXT ·dotChunk4avx2(SB), NOSPLIT, $0-72
	MOVQ rowRe+0(FP), SI
	MOVQ rowIm+8(FP), DI
	MOVQ resTRe+16(FP), R8
	MOVQ resTIm+24(FP), R9
	MOVQ k+32(FP), CX
	MOVQ state+40(FP), R10
	MOVQ mode+56(FP), DX
	MOVQ stride+64(FP), R12
	LEAQ (SI)(R12*1), R13 // next row re (prefetch target)
	LEAQ (DI)(R12*1), R14 // next row im

	TESTQ $1, DX
	JZ    ckload
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	JMP    ckbody

ckload:
	VMOVUPD (R10), Y0
	VMOVUPD 32(R10), Y1
	VMOVUPD 64(R10), Y2
	VMOVUPD 96(R10), Y3
	VMOVUPD 128(R10), Y4
	VMOVUPD 160(R10), Y5
	VMOVUPD 192(R10), Y6
	VMOVUPD 224(R10), Y7

ckbody:
	XORQ AX, AX

ckloop4:
	MOVQ CX, BX
	SUBQ AX, BX
	CMPQ BX, $4
	JLT  cktail

	PREFETCHT0 (R13)(AX*8)
	PREFETCHT0 (R14)(AX*8)

	MOVQ AX, BX
	SHLQ $5, BX

	VBROADCASTSD (SI)(AX*8), Y8
	VBROADCASTSD (DI)(AX*8), Y9
	VMOVUPD      (R8)(BX*1), Y10
	VMOVUPD      (R9)(BX*1), Y11
	VMULPD       Y10, Y8, Y12
	VMULPD       Y11, Y9, Y13
	VSUBPD       Y13, Y12, Y12
	VADDPD       Y12, Y0, Y0
	VMULPD       Y11, Y8, Y12
	VMULPD       Y10, Y9, Y13
	VADDPD       Y13, Y12, Y12
	VADDPD       Y12, Y4, Y4

	VBROADCASTSD 8(SI)(AX*8), Y8
	VBROADCASTSD 8(DI)(AX*8), Y9
	VMOVUPD      32(R8)(BX*1), Y10
	VMOVUPD      32(R9)(BX*1), Y11
	VMULPD       Y10, Y8, Y12
	VMULPD       Y11, Y9, Y13
	VSUBPD       Y13, Y12, Y12
	VADDPD       Y12, Y1, Y1
	VMULPD       Y11, Y8, Y12
	VMULPD       Y10, Y9, Y13
	VADDPD       Y13, Y12, Y12
	VADDPD       Y12, Y5, Y5

	VBROADCASTSD 16(SI)(AX*8), Y8
	VBROADCASTSD 16(DI)(AX*8), Y9
	VMOVUPD      64(R8)(BX*1), Y10
	VMOVUPD      64(R9)(BX*1), Y11
	VMULPD       Y10, Y8, Y12
	VMULPD       Y11, Y9, Y13
	VSUBPD       Y13, Y12, Y12
	VADDPD       Y12, Y2, Y2
	VMULPD       Y11, Y8, Y12
	VMULPD       Y10, Y9, Y13
	VADDPD       Y13, Y12, Y12
	VADDPD       Y12, Y6, Y6

	VBROADCASTSD 24(SI)(AX*8), Y8
	VBROADCASTSD 24(DI)(AX*8), Y9
	VMOVUPD      96(R8)(BX*1), Y10
	VMOVUPD      96(R9)(BX*1), Y11
	VMULPD       Y10, Y8, Y12
	VMULPD       Y11, Y9, Y13
	VSUBPD       Y13, Y12, Y12
	VADDPD       Y12, Y3, Y3
	VMULPD       Y11, Y8, Y12
	VMULPD       Y10, Y9, Y13
	VADDPD       Y13, Y12, Y12
	VADDPD       Y12, Y7, Y7

	ADDQ $4, AX
	JMP  ckloop4

cktail:
	CMPQ AX, CX
	JGE  ckdone

	MOVQ AX, BX
	SHLQ $5, BX
	VBROADCASTSD (SI)(AX*8), Y8
	VBROADCASTSD (DI)(AX*8), Y9
	VMOVUPD      (R8)(BX*1), Y10
	VMOVUPD      (R9)(BX*1), Y11
	VMULPD       Y10, Y8, Y12
	VMULPD       Y11, Y9, Y13
	VSUBPD       Y13, Y12, Y12
	VADDPD       Y12, Y0, Y0
	VMULPD       Y11, Y8, Y12
	VMULPD       Y10, Y9, Y13
	VADDPD       Y13, Y12, Y12
	VADDPD       Y12, Y4, Y4

	INCQ AX
	JMP  cktail

ckdone:
	TESTQ $2, DX
	JNZ   ckreduce
	VMOVUPD Y0, (R10)
	VMOVUPD Y1, 32(R10)
	VMOVUPD Y2, 64(R10)
	VMOVUPD Y3, 96(R10)
	VMOVUPD Y4, 128(R10)
	VMOVUPD Y5, 160(R10)
	VMOVUPD Y6, 192(R10)
	VMOVUPD Y7, 224(R10)
	VZEROUPPER
	RET

ckreduce:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VADDPD Y5, Y4, Y4
	VADDPD Y7, Y6, Y6
	VADDPD Y6, Y4, Y4
	MOVQ   out+48(FP), R11
	VMOVUPD Y0, (R11)
	VMOVUPD Y4, 32(R11)
	VZEROUPPER
	RET

// func dotVec4(aRe, aIm, xRe, xIm *float64, k4 int, part *float64)
//
// The single-solve adjoint dot's vector body, shared by the avx512 and
// avx2 tiers: the four cdot accumulator chains run across the four ymm
// lanes (lane c = chain c, element 4i+c), each lane performing the
// scalar chain arithmetic exactly. Runs the k4 = k&^3 main-loop
// elements only; the Go wrapper (adjDot) adds the tail into chain 0 and
// applies the pinned fold. part receives the 8 raw partial sums
// (sr0..sr3, si0..si3).
TEXT ·dotVec4(SB), NOSPLIT, $0-48
	MOVQ aRe+0(FP), SI
	MOVQ aIm+8(FP), DI
	MOVQ xRe+16(FP), R8
	MOVQ xIm+24(FP), R9
	MOVQ k4+32(FP), CX

	VXORPD Y0, Y0, Y0 // sr chains
	VXORPD Y1, Y1, Y1 // si chains

	XORQ AX, AX // byte offset

	SHLQ $3, CX // k4*8 bytes
	JMP  vcheck

vloop:
	VMOVUPD (SI)(AX*1), Y2 // ar
	VMOVUPD (DI)(AX*1), Y3 // ai
	VMOVUPD (R8)(AX*1), Y4 // br
	VMOVUPD (R9)(AX*1), Y5 // bi

	VMULPD Y4, Y2, Y6 // ar*br
	VMULPD Y5, Y3, Y7 // ai*bi
	VSUBPD Y7, Y6, Y6 // ar*br - ai*bi
	VADDPD Y6, Y0, Y0

	VMULPD Y5, Y2, Y6 // ar*bi
	VMULPD Y4, Y3, Y7 // ai*br
	VADDPD Y7, Y6, Y6 // ar*bi + ai*br
	VADDPD Y6, Y1, Y1

	ADDQ $32, AX

vcheck:
	CMPQ AX, CX
	JLT  vloop

	MOVQ    part+40(FP), R10
	VMOVUPD Y0, (R10)
	VMOVUPD Y1, 32(R10)
	VZEROUPPER
	RET

// func setDotsVec4(fhRe, fhIm *float64, n int, set *int, nset int, rRe, rIm, dRe, dIm *float64)
//
// The fused per-tick adjoint pass of a single solve, shared by the
// avx512 and avx2 tiers: for every working-set row j = set[0..nset),
// the adjoint dot of dictionary row j (n doubles at fhRe/fhIm + j·n)
// against the residual rRe/rIm, written to dRe[j], dIm[j]. Each row is
// the whole fixed-K contract in one place, so one call per tick
// replaces a Go→asm call, a partials buffer and a scalar tail per row:
//
//   - the four cdot chains run across the ymm lanes over the k4 = n&^3
//     main-loop elements (lane c = chain c, element 4i+c);
//   - the chains are regrouped by component pair — (s0re, s0im),
//     (s1re, s1im), (s2re, s2im), (s3re, s3im) — so the n mod 4 tail and
//     the fold each run on both components at once;
//   - each tail element adds (ar·br − ai·bi, ar·bi + ai·br) into chain 0
//     in order, the pair formed by one VADDSUBPD of [ar·br, ar·bi] and
//     [ai·bi, ai·br] (the residual's tail pairs are loaded once per call);
//   - the pinned fold is (s0+s1)+(s2+s3) on the pairs.
//
// Every operation is the scalar reference's, operand for operand up to
// commutation, so each row is bit-identical to cdot. Rows go two at a
// time, sharing the residual loads and overlapping their add chains; an
// odd last row is paired with itself and stored once.
TEXT ·setDotsVec4(SB), NOSPLIT, $0-72
	MOVQ fhRe+0(FP), SI
	MOVQ fhIm+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ set+24(FP), R12
	MOVQ nset+32(FP), R13
	MOVQ rRe+40(FP), R8
	MOVQ rIm+48(FP), R9

	SHLQ $3, CX            // n*8: row pitch and tail end, in bytes
	MOVQ CX, DX
	ANDQ $-32, DX          // k4*8: main-loop end, in bytes
	LEAQ (R12)(R13*8), R13 // set end

	// Tail residual pairs P_k = (br, bi) in X8/X10/X12 and Q_k = (bi, br)
	// in X9/X11/X13, for the k < n mod 4 tail elements.
	CMPQ      DX, CX
	JGE       sdrows
	VMOVSD    (R8)(DX*1), X8
	VMOVHPD   (R9)(DX*1), X8, X8
	VPERMILPD $1, X8, X9
	LEAQ      8(DX), R14
	CMPQ      R14, CX
	JGE       sdrows
	VMOVSD    8(R8)(DX*1), X10
	VMOVHPD   8(R9)(DX*1), X10, X10
	VPERMILPD $1, X10, X11
	LEAQ      16(DX), R14
	CMPQ      R14, CX
	JGE       sdrows
	VMOVSD    16(R8)(DX*1), X12
	VMOVHPD   16(R9)(DX*1), X12, X12
	VPERMILPD $1, X12, X13

sdrows:
	JMP sdnext

sdpair:
	// Row A at AX/BX (re/im), row B at R10/R11; B = A for an odd last row.
	MOVQ  (R12), AX
	IMULQ CX, AX
	LEAQ  (DI)(AX*1), BX
	ADDQ  SI, AX
	LEAQ  8(R12), R14
	CMPQ  R14, R13
	JLT   sdtwo
	MOVQ  AX, R10
	MOVQ  BX, R11
	JMP   sdmain

sdtwo:
	MOVQ  8(R12), R10
	IMULQ CX, R10
	LEAQ  (DI)(R10*1), R11
	ADDQ  SI, R10

sdmain:
	VXORPD Y0, Y0, Y0 // A sr chains
	VXORPD Y1, Y1, Y1 // A si chains
	VXORPD Y2, Y2, Y2 // B sr chains
	VXORPD Y3, Y3, Y3 // B si chains
	XORQ   R14, R14   // byte offset
	JMP    sdcheck

sdloop:
	VMOVUPD (R8)(R14*1), Y4 // br
	VMOVUPD (R9)(R14*1), Y5 // bi

	VMOVUPD (AX)(R14*1), Y6  // ar (A)
	VMOVUPD (BX)(R14*1), Y7  // ai (A)
	VMULPD  Y4, Y6, Y14      // ar*br
	VMULPD  Y5, Y7, Y15      // ai*bi
	VSUBPD  Y15, Y14, Y14    // ar*br - ai*bi
	VADDPD  Y14, Y0, Y0
	VMULPD  Y5, Y6, Y14      // ar*bi
	VMULPD  Y4, Y7, Y15      // ai*br
	VADDPD  Y15, Y14, Y14    // ar*bi + ai*br
	VADDPD  Y14, Y1, Y1

	VMOVUPD (R10)(R14*1), Y6 // ar (B)
	VMOVUPD (R11)(R14*1), Y7 // ai (B)
	VMULPD  Y4, Y6, Y14
	VMULPD  Y5, Y7, Y15
	VSUBPD  Y15, Y14, Y14
	VADDPD  Y14, Y2, Y2
	VMULPD  Y5, Y6, Y14
	VMULPD  Y4, Y7, Y15
	VADDPD  Y15, Y14, Y14
	VADDPD  Y14, Y3, Y3

	ADDQ $32, R14

sdcheck:
	CMPQ R14, DX
	JLT  sdloop

	// Regroup into component pairs. A: X4 = (s0re, s0im), X5 = s1 pair,
	// X6 = s2+s3 pair. B: X0, X1, X2 likewise.
	VUNPCKLPD    Y1, Y0, Y4 // (r0, i0, r2, i2)
	VUNPCKHPD    Y1, Y0, Y5 // (r1, i1, r3, i3)
	VEXTRACTF128 $1, Y4, X6
	VEXTRACTF128 $1, Y5, X7
	VADDPD       X7, X6, X6 // s2 + s3
	VUNPCKLPD    Y3, Y2, Y0
	VUNPCKHPD    Y3, Y2, Y1
	VEXTRACTF128 $1, Y0, X2
	VEXTRACTF128 $1, Y1, X3
	VADDPD       X3, X2, X2

	// Tail: chain 0 += (ar*br - ai*bi, ar*bi + ai*br), element by element.
	CMPQ      DX, CX
	JGE       sdfold
	VMOVDDUP  (AX)(DX*1), X3  // (ar, ar)
	VMOVDDUP  (BX)(DX*1), X7  // (ai, ai)
	VMULPD    X8, X3, X3      // (ar*br, ar*bi)
	VMULPD    X9, X7, X7      // (ai*bi, ai*br)
	VADDSUBPD X7, X3, X3      // (ar*br - ai*bi, ar*bi + ai*br)
	VADDPD    X3, X4, X4
	VMOVDDUP  (R10)(DX*1), X14
	VMOVDDUP  (R11)(DX*1), X15
	VMULPD    X8, X14, X14
	VMULPD    X9, X15, X15
	VADDSUBPD X15, X14, X14
	VADDPD    X14, X0, X0
	LEAQ      8(DX), R14
	CMPQ      R14, CX
	JGE       sdfold
	VMOVDDUP  8(AX)(DX*1), X3
	VMOVDDUP  8(BX)(DX*1), X7
	VMULPD    X10, X3, X3
	VMULPD    X11, X7, X7
	VADDSUBPD X7, X3, X3
	VADDPD    X3, X4, X4
	VMOVDDUP  8(R10)(DX*1), X14
	VMOVDDUP  8(R11)(DX*1), X15
	VMULPD    X10, X14, X14
	VMULPD    X11, X15, X15
	VADDSUBPD X15, X14, X14
	VADDPD    X14, X0, X0
	LEAQ      16(DX), R14
	CMPQ      R14, CX
	JGE       sdfold
	VMOVDDUP  16(AX)(DX*1), X3
	VMOVDDUP  16(BX)(DX*1), X7
	VMULPD    X12, X3, X3
	VMULPD    X13, X7, X7
	VADDSUBPD X7, X3, X3
	VADDPD    X3, X4, X4
	VMOVDDUP  16(R10)(DX*1), X14
	VMOVDDUP  16(R11)(DX*1), X15
	VMULPD    X12, X14, X14
	VMULPD    X13, X15, X15
	VADDSUBPD X15, X14, X14
	VADDPD    X14, X0, X0

sdfold:
	// Pinned fold (s0+s1)+(s2+s3): X4 = (grA, giA), X0 = (grB, giB).
	VADDPD X5, X4, X4
	VADDPD X6, X4, X4
	VADDPD X1, X0, X0
	VADDPD X2, X0, X0

	MOVQ    dRe+56(FP), R10
	MOVQ    dIm+64(FP), R11
	MOVQ    (R12), AX
	VMOVSD  X4, (R10)(AX*8)
	VMOVHPD X4, (R11)(AX*8)
	LEAQ    8(R12), R14
	CMPQ    R14, R13
	JGE     sdlast
	MOVQ    8(R12), AX
	VMOVSD  X0, (R10)(AX*8)
	VMOVHPD X0, (R11)(AX*8)

sdlast:
	ADDQ $16, R12

sdnext:
	CMPQ R12, R13
	JLT  sdpair

	VZEROUPPER
	RET

// func forwardVec4(fhRe, fhIm *float64, n int, cols *int, ncols int, srcRe, srcIm, hRe, hIm, rRe, rIm *float64)
//
// The fused forward residual of a single solve, shared by the avx512
// and avx2 tiers: r = F·src − h̃ over the support cols[0..ncols), in one
// call per tick. Each element's accumulation starts from −h (an exact
// sign flip) and adds the support columns' terms in cols order — the
// per-element order of the scalar forwardResid, which walks columns in
// the outer loop — in the sign-folded axpyCol form (rRe += ar*cr +
// rowIm*ci, rIm += ar*ci − rowIm*cr; exact, see axpy8avx512). The
// accumulators stay in registers across the columns: ymm lanes over
// the n&^3 main elements, scalar ops over the n mod 4 tail.
TEXT ·forwardVec4(SB), NOSPLIT, $0-88
	MOVQ fhRe+0(FP), SI
	MOVQ fhIm+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ cols+24(FP), R12
	MOVQ ncols+32(FP), R13
	MOVQ srcRe+40(FP), R8
	MOVQ srcIm+48(FP), R9
	MOVQ hRe+56(FP), R10
	MOVQ hIm+64(FP), R11

	SHLQ $3, CX            // n*8: row pitch and element end, in bytes
	MOVQ CX, DX
	ANDQ $-32, DX          // n4*8: vector end, in bytes
	LEAQ (R12)(R13*8), R13 // cols end

	// Y15 = sign-bit mask in every lane.
	VPCMPEQQ Y15, Y15, Y15
	VPSLLQ   $63, Y15, Y15

	XORQ BX, BX // element offset, bytes
	JMP  fvcheck

fvchunk:
	VMOVUPD (R10)(BX*1), Y0
	VXORPD  Y15, Y0, Y0     // rRe = -hRe
	VMOVUPD (R11)(BX*1), Y1
	VXORPD  Y15, Y1, Y1     // rIm = -hIm
	MOVQ    R12, R14
	JMP     fvccheck

fvcol:
	MOVQ         (R14), AX     // j
	VBROADCASTSD (R8)(AX*8), Y2 // cr
	VBROADCASTSD (R9)(AX*8), Y3 // ci
	IMULQ        CX, AX
	ADDQ         BX, AX         // j*n*8 + i*8
	VMOVUPD      (SI)(AX*1), Y4 // ar
	VMOVUPD      (DI)(AX*1), Y5 // rowIm

	// rRe += ar*cr + rowIm*ci
	VMULPD Y2, Y4, Y6
	VMULPD Y3, Y5, Y7
	VADDPD Y7, Y6, Y6
	VADDPD Y6, Y0, Y0

	// rIm += ar*ci − rowIm*cr
	VMULPD Y3, Y4, Y6
	VMULPD Y2, Y5, Y7
	VSUBPD Y7, Y6, Y6
	VADDPD Y6, Y1, Y1

	ADDQ $8, R14

fvccheck:
	CMPQ R14, R13
	JLT  fvcol

	MOVQ    rRe+72(FP), AX
	VMOVUPD Y0, (AX)(BX*1)
	MOVQ    rIm+80(FP), AX
	VMOVUPD Y1, (AX)(BX*1)
	ADDQ    $32, BX

fvcheck:
	CMPQ BX, DX
	JLT  fvchunk
	JMP  fvtcheck

fvtail:
	VMOVSD (R10)(BX*1), X0
	VXORPD X15, X0, X0
	VMOVSD (R11)(BX*1), X1
	VXORPD X15, X1, X1
	MOVQ   R12, R14
	JMP    fvtccheck

fvtcol:
	MOVQ   (R14), AX
	VMOVSD (R8)(AX*8), X2 // cr
	VMOVSD (R9)(AX*8), X3 // ci
	IMULQ  CX, AX
	ADDQ   BX, AX
	VMOVSD (SI)(AX*1), X4 // ar
	VMOVSD (DI)(AX*1), X5 // rowIm

	VMULSD X2, X4, X6
	VMULSD X3, X5, X7
	VADDSD X7, X6, X6
	VADDSD X6, X0, X0

	VMULSD X3, X4, X6
	VMULSD X2, X5, X7
	VSUBSD X7, X6, X6
	VADDSD X6, X1, X1

	ADDQ $8, R14

fvtccheck:
	CMPQ R14, R13
	JLT  fvtcol

	MOVQ   rRe+72(FP), AX
	VMOVSD X0, (AX)(BX*1)
	MOVQ   rIm+80(FP), AX
	VMOVSD X1, (AX)(BX*1)
	ADDQ   $8, BX

fvtcheck:
	CMPQ BX, CX
	JLT  fvtail

	VZEROUPPER
	RET
