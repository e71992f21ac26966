//go:build amd64 && !purego

#include "textflag.h"

// SSE2 kernels for Train. Each lane of a packed instruction does the
// IEEE operation the Go twin in kernels.go does for one element, and the
// scalar (…SD) tails do the same for a last odd element, so the results
// are the twins', bit for bit:
//   - a sum keeps its order: lanes hold different sums, never parts of one;
//   - an operation keeps its operands in the twin's order (the first
//     operand is the destination register), since x86 returns the first
//     operand's NaN when both are NaN;
//   - nothing is fused: SSE2 has no fused multiply-add.
// UNPCKLPD copies a loaded scalar to both lanes (SSE3's MOVDDUP would do
// it in one instruction, but GOAMD64=v1 guarantees only SSE2), and XORPS
// only clears a register to +0.

// BCAST loads the float64 at p into both lanes of r.
#define BCAST(p, r) MOVSD p, r; UNPCKLPD r, r

// MAC adds w·b to acc, w being the pair at p and b a broadcast, through
// the temporary t.
#define MAC(p, b, t, acc) MOVUPD p, t; MULPD b, t; ADDPD t, acc

// func affineTKernel(w, b, x, out []float64)
//
// Sums 16 output units per pass over x, in eight accumulators, then
// takes what is left in passes of 8, 6, 4, 2 and 1 units.
//
// SI: the current block's first weight column, BX: its biases, DI: its
// outputs, R8: units left, R9: bytes per input row of w, DX/CX: x and
// its length. Inside a pass R10 walks the rows, R11 the inputs and R12
// counts them down.
TEXT ·affineTKernel(SB), NOSPLIT, $0-96
	MOVQ w_base+0(FP), SI
	MOVQ b_base+24(FP), BX
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), CX
	MOVQ out_base+72(FP), DI
	MOVQ out_len+80(FP), R8
	MOVQ R8, R9
	SHLQ $3, R9

blk16:
	CMPQ R8, $16
	JLT  blk8
	MOVUPD 0(BX), X0
	MOVUPD 16(BX), X1
	MOVUPD 32(BX), X2
	MOVUPD 48(BX), X3
	MOVUPD 64(BX), X4
	MOVUPD 80(BX), X5
	MOVUPD 96(BX), X6
	MOVUPD 112(BX), X7
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ CX, R12
	TESTQ R12, R12
	JZ   store16

loop16:
	BCAST((R11), X8)
	MAC(0(R10), X8, X9, X0)
	MAC(16(R10), X8, X10, X1)
	MAC(32(R10), X8, X11, X2)
	MAC(48(R10), X8, X12, X3)
	MAC(64(R10), X8, X13, X4)
	MAC(80(R10), X8, X14, X5)
	MAC(96(R10), X8, X15, X6)
	MAC(112(R10), X8, X9, X7)
	ADDQ R9, R10
	ADDQ $8, R11
	DECQ R12
	JNZ  loop16

store16:
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	MOVUPD X4, 64(DI)
	MOVUPD X5, 80(DI)
	MOVUPD X6, 96(DI)
	MOVUPD X7, 112(DI)
	ADDQ $128, SI
	ADDQ $128, BX
	ADDQ $128, DI
	SUBQ $16, R8
	JMP  blk16

blk8:
	CMPQ R8, $8
	JLT  blk6
	MOVUPD 0(BX), X0
	MOVUPD 16(BX), X1
	MOVUPD 32(BX), X2
	MOVUPD 48(BX), X3
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ CX, R12
	TESTQ R12, R12
	JZ   store8

loop8:
	BCAST((R11), X8)
	MAC(0(R10), X8, X9, X0)
	MAC(16(R10), X8, X10, X1)
	MAC(32(R10), X8, X11, X2)
	MAC(48(R10), X8, X12, X3)
	ADDQ R9, R10
	ADDQ $8, R11
	DECQ R12
	JNZ  loop8

store8:
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	ADDQ $64, SI
	ADDQ $64, BX
	ADDQ $64, DI
	SUBQ $8, R8

blk6:
	CMPQ R8, $6
	JLT  blk4
	MOVUPD 0(BX), X0
	MOVUPD 16(BX), X1
	MOVUPD 32(BX), X2
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ CX, R12
	TESTQ R12, R12
	JZ   store6

loop6:
	BCAST((R11), X8)
	MAC(0(R10), X8, X9, X0)
	MAC(16(R10), X8, X10, X1)
	MAC(32(R10), X8, X11, X2)
	ADDQ R9, R10
	ADDQ $8, R11
	DECQ R12
	JNZ  loop6

store6:
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	ADDQ $48, SI
	ADDQ $48, BX
	ADDQ $48, DI
	SUBQ $6, R8

blk4:
	CMPQ R8, $4
	JLT  blk2
	MOVUPD 0(BX), X0
	MOVUPD 16(BX), X1
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ CX, R12
	TESTQ R12, R12
	JZ   store4

loop4:
	BCAST((R11), X8)
	MAC(0(R10), X8, X9, X0)
	MAC(16(R10), X8, X10, X1)
	ADDQ R9, R10
	ADDQ $8, R11
	DECQ R12
	JNZ  loop4

store4:
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	ADDQ $32, SI
	ADDQ $32, BX
	ADDQ $32, DI
	SUBQ $4, R8

blk2:
	CMPQ R8, $2
	JLT  blk1
	MOVUPD 0(BX), X0
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ CX, R12
	TESTQ R12, R12
	JZ   store2

loop2:
	BCAST((R11), X8)
	MAC(0(R10), X8, X9, X0)
	ADDQ R9, R10
	ADDQ $8, R11
	DECQ R12
	JNZ  loop2

store2:
	MOVUPD X0, 0(DI)
	ADDQ $16, SI
	ADDQ $16, BX
	ADDQ $16, DI
	SUBQ $2, R8

blk1:
	TESTQ R8, R8
	JZ   done
	MOVSD 0(BX), X0
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ CX, R12
	TESTQ R12, R12
	JZ   store1

loop1:
	MOVSD (R10), X9
	MULSD (R11), X9
	ADDSD X9, X0
	ADDQ R9, R10
	ADDQ $8, R11
	DECQ R12
	JNZ  loop1

store1:
	MOVSD X0, 0(DI)

done:
	RET

// BACKOUT adds d·a to the gradient pair at g and d·w, w being the weight
// pair at p, to acc; d is a broadcast and a a pair of activations. t and
// u are temporaries.
#define BACKOUT(d, a, g, p, t, u, acc) MOVAPD d, t; MULPD a, t; MOVUPD g, u; ADDPD t, u; MOVUPD u, g; MOVAPD d, t; MOVUPD p, u; MULPD u, t; ADDPD t, acc

// func backOutputKernel(d, hidden, w, gW, dHidden []float64)
//
// Takes the hidden units 4 at a time, then 2, then 1. For each block it
// keeps the dHidden sums, started from +0, and the activations in
// registers and walks the output units in order.
//
// SI: the block's activations, DI: its dHidden sums, BX/R13: its column
// in w and gW, R8: units left, R9: bytes per row of w, DX/CX: d and its
// length. Inside a block R10/R11 walk the rows of w and gW, R12 walks d
// and AX counts it down.
TEXT ·backOutputKernel(SB), NOSPLIT, $0-120
	MOVQ d_base+0(FP), DX
	MOVQ d_len+8(FP), CX
	MOVQ hidden_base+24(FP), SI
	MOVQ hidden_len+32(FP), R8
	MOVQ w_base+48(FP), BX
	MOVQ gW_base+72(FP), R13
	MOVQ dHidden_base+96(FP), DI
	MOVQ R8, R9
	SHLQ $3, R9

bo4:
	CMPQ R8, $4
	JLT  bo2
	XORPS X0, X0
	XORPS X1, X1
	MOVUPD 0(SI), X2
	MOVUPD 16(SI), X3
	MOVQ BX, R10
	MOVQ R13, R11
	MOVQ DX, R12
	MOVQ CX, AX
	TESTQ AX, AX
	JZ   bo4store

bo4loop:
	BCAST((R12), X4)
	BACKOUT(X4, X2, 0(R11), 0(R10), X5, X6, X0)
	BACKOUT(X4, X3, 16(R11), 16(R10), X7, X8, X1)
	ADDQ R9, R10
	ADDQ R9, R11
	ADDQ $8, R12
	DECQ AX
	JNZ  bo4loop

bo4store:
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, BX
	ADDQ $32, R13
	SUBQ $4, R8
	JMP  bo4

bo2:
	CMPQ R8, $2
	JLT  bo1
	XORPS X0, X0
	MOVUPD 0(SI), X2
	MOVQ BX, R10
	MOVQ R13, R11
	MOVQ DX, R12
	MOVQ CX, AX
	TESTQ AX, AX
	JZ   bo2store

bo2loop:
	BCAST((R12), X4)
	BACKOUT(X4, X2, 0(R11), 0(R10), X5, X6, X0)
	ADDQ R9, R10
	ADDQ R9, R11
	ADDQ $8, R12
	DECQ AX
	JNZ  bo2loop

bo2store:
	MOVUPD X0, 0(DI)
	ADDQ $16, SI
	ADDQ $16, DI
	ADDQ $16, BX
	ADDQ $16, R13
	SUBQ $2, R8

bo1:
	TESTQ R8, R8
	JZ   bodone
	XORPS X0, X0
	MOVSD 0(SI), X2
	MOVQ BX, R10
	MOVQ R13, R11
	MOVQ DX, R12
	MOVQ CX, AX
	TESTQ AX, AX
	JZ   bo1store

bo1loop:
	MOVSD (R12), X4
	MOVAPD X4, X5
	MULSD X2, X5
	MOVSD (R11), X6
	ADDSD X5, X6
	MOVSD X6, (R11)
	MULSD (R10), X4
	ADDSD X4, X0
	ADDQ R9, R10
	ADDQ R9, R11
	ADDQ $8, R12
	DECQ AX
	JNZ  bo1loop

bo1store:
	MOVSD X0, 0(DI)

bodone:
	RET

// AXPY adds d·x to the gradient pair at g through the temporaries t and
// u; d is a broadcast and x a pair of inputs.
#define AXPY(d, x, g, t, u) MOVAPD d, t; MULPD x, t; MOVUPD g, u; ADDPD t, u; MOVUPD u, g

// UNIT adds dHidden[h] to gB[h] and leaves it broadcast in d, h being the
// index in r, then points r at h's gradient row.
#define UNIT(r, d, t) MOVSD (BX)(r*8), d; MOVSD (DI)(r*8), t; ADDSD d, t; MOVSD t, (DI)(r*8); UNPCKLPD d, d; IMULQ R10, r; ADDQ R9, r

// func backHiddenKernel(active []int, dHidden, x, gB, gW []float64) bool
//
// Takes the listed units two at a time, so that each load of the inputs
// serves both rows, then a last odd unit; a row goes 4 inputs at a time,
// then 2, then 1. It reports false, having stopped, at a listed index
// outside dHidden.
//
// SI walks active and CX counts it down; BX: dHidden, DI: gB, R9: gW,
// DX/R8: x and its length, R10: bytes per row of gW. Inside a pass
// R11/R13 walk the two gradient rows, R12 the inputs and AX counts them
// down.
TEXT ·backHiddenKernel(SB), NOSPLIT, $0-121
	MOVQ active_base+0(FP), SI
	MOVQ active_len+8(FP), CX
	MOVQ dHidden_base+24(FP), BX
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), R8
	MOVQ gB_base+72(FP), DI
	MOVQ gW_base+96(FP), R9
	MOVQ R8, R10
	SHLQ $3, R10

bhpair:
	CMPQ CX, $2
	JLT  bhone
	MOVQ 0(SI), R11
	MOVQ 8(SI), R13
	CMPQ R11, dHidden_len+32(FP)
	JAE  bhbad
	CMPQ R13, dHidden_len+32(FP)
	JAE  bhbad
	UNIT(R11, X0, X1)
	UNIT(R13, X6, X7)
	MOVQ DX, R12
	MOVQ R8, AX

bhpair4:
	CMPQ AX, $4
	JLT  bhpair2
	MOVUPD 0(R12), X2
	MOVUPD 16(R12), X3
	AXPY(X0, X2, 0(R11), X4, X5)
	AXPY(X0, X3, 16(R11), X8, X9)
	AXPY(X6, X2, 0(R13), X10, X11)
	AXPY(X6, X3, 16(R13), X12, X13)
	ADDQ $32, R11
	ADDQ $32, R13
	ADDQ $32, R12
	SUBQ $4, AX
	JMP  bhpair4

bhpair2:
	CMPQ AX, $2
	JLT  bhpair1
	MOVUPD 0(R12), X2
	AXPY(X0, X2, 0(R11), X4, X5)
	AXPY(X6, X2, 0(R13), X10, X11)
	ADDQ $16, R11
	ADDQ $16, R13
	ADDQ $16, R12
	SUBQ $2, AX

bhpair1:
	TESTQ AX, AX
	JZ   bhpairnext
	MOVSD 0(R12), X2
	MOVAPD X0, X4
	MULSD X2, X4
	MOVSD 0(R11), X5
	ADDSD X4, X5
	MOVSD X5, 0(R11)
	MOVAPD X6, X10
	MULSD X2, X10
	MOVSD 0(R13), X11
	ADDSD X10, X11
	MOVSD X11, 0(R13)

bhpairnext:
	ADDQ $16, SI
	SUBQ $2, CX
	JMP  bhpair

bhone:
	TESTQ CX, CX
	JZ   bhdone
	MOVQ 0(SI), R11
	CMPQ R11, dHidden_len+32(FP)
	JAE  bhbad
	UNIT(R11, X0, X1)
	MOVQ DX, R12
	MOVQ R8, AX

bhone4:
	CMPQ AX, $4
	JLT  bhone2
	MOVUPD 0(R12), X2
	MOVUPD 16(R12), X3
	AXPY(X0, X2, 0(R11), X4, X5)
	AXPY(X0, X3, 16(R11), X8, X9)
	ADDQ $32, R11
	ADDQ $32, R12
	SUBQ $4, AX
	JMP  bhone4

bhone2:
	CMPQ AX, $2
	JLT  bhone1
	MOVUPD 0(R12), X2
	AXPY(X0, X2, 0(R11), X4, X5)
	ADDQ $16, R11
	ADDQ $16, R12
	SUBQ $2, AX

bhone1:
	TESTQ AX, AX
	JZ   bhdone
	MOVSD 0(R12), X2
	MOVAPD X0, X4
	MULSD X2, X4
	MOVSD 0(R11), X5
	ADDSD X4, X5
	MOVSD X5, 0(R11)

bhdone:
	MOVB $1, ret+120(FP)
	RET

bhbad:
	MOVB $0, ret+120(FP)
	RET

// func adamKernel(params, g, m, v []float64, k *adamConsts, decay bool)
//
// Steps two parameters per pass, then a last odd one with the same
// sequence in scalar instructions. The constants stay broadcast in
// X5, X6 and X8–X15 for the whole call.
//
// SI: params, BX: g, DX: m, DI: v, CX: parameters left, R11: decay.
TEXT ·adamKernel(SB), NOSPLIT, $0-105
	MOVQ params_base+0(FP), SI
	MOVQ params_len+8(FP), CX
	MOVQ g_base+24(FP), BX
	MOVQ m_base+48(FP), DX
	MOVQ v_base+72(FP), DI
	MOVQ k+96(FP), AX
	MOVBQZX decay+104(FP), R11
	BCAST(0(AX), X8)   // inv
	BCAST(8(AX), X9)   // l2
	BCAST(16(AX), X10) // beta1
	BCAST(24(AX), X11) // 1−beta1
	BCAST(32(AX), X12) // beta2
	BCAST(40(AX), X13) // 1−beta2
	BCAST(48(AX), X14) // c1
	BCAST(56(AX), X15) // c2
	BCAST(64(AX), X5)  // lr
	BCAST(72(AX), X6)  // eps

adam2:
	CMPQ CX, $2
	JLT  adam1
	MOVUPD (SI), X2    // p
	MOVUPD (BX), X0
	MULPD X8, X0       // grad = g·inv
	TESTQ R11, R11
	JZ   adam2m
	MOVAPD X9, X1
	MULPD X2, X1
	ADDPD X1, X0       // grad += l2·p

adam2m:
	MOVAPD X10, X1
	MOVUPD (DX), X3
	MULPD X3, X1
	MOVAPD X11, X3
	MULPD X0, X3
	ADDPD X3, X1
	MOVUPD X1, (DX)    // m = beta1·m + (1−beta1)·grad
	MOVAPD X12, X3
	MOVUPD (DI), X4
	MULPD X4, X3
	MOVAPD X13, X4
	MULPD X0, X4
	MULPD X0, X4
	ADDPD X4, X3
	MOVUPD X3, (DI)    // v = beta2·v + (1−beta2)·grad·grad
	DIVPD X14, X1      // mHat = m/c1
	DIVPD X15, X3      // vHat = v/c2
	SQRTPD X3, X3
	ADDPD X6, X3       // √vHat + eps
	MOVAPD X5, X4
	MULPD X1, X4
	DIVPD X3, X4       // lr·mHat / (√vHat + eps)
	SUBPD X4, X2
	MOVUPD X2, (SI)
	ADDQ $16, SI
	ADDQ $16, BX
	ADDQ $16, DX
	ADDQ $16, DI
	SUBQ $2, CX
	JMP  adam2

adam1:
	TESTQ CX, CX
	JZ   adamdone
	MOVSD (SI), X2
	MOVSD (BX), X0
	MULSD X8, X0
	TESTQ R11, R11
	JZ   adam1m
	MOVAPD X9, X1
	MULSD X2, X1
	ADDSD X1, X0

adam1m:
	MOVAPD X10, X1
	MOVSD (DX), X3
	MULSD X3, X1
	MOVAPD X11, X3
	MULSD X0, X3
	ADDSD X3, X1
	MOVSD X1, (DX)
	MOVAPD X12, X3
	MOVSD (DI), X4
	MULSD X4, X3
	MOVAPD X13, X4
	MULSD X0, X4
	MULSD X0, X4
	ADDSD X4, X3
	MOVSD X3, (DI)
	DIVSD X14, X1
	DIVSD X15, X3
	SQRTSD X3, X3
	ADDSD X6, X3
	MOVAPD X5, X4
	MULSD X1, X4
	DIVSD X3, X4
	SUBSD X4, X2
	MOVSD X2, (SI)

adamdone:
	RET
