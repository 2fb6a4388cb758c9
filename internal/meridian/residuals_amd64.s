#include "textflag.h"

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $1, AX
	XORL CX, CX
	CPUID
	// ECX bit 27 (OSXSAVE) and bit 28 (AVX).
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	// XCR0 bit 1 (XMM state) and bit 2 (YMM state).
	ANDL $6, AX
	CMPL AX, $6
	JNE  done
	MOVB $1, ret+0(FP)

done:
	RET

// func residualsAVX(v *[64][16]float64, dim int, basis []float64, out *[16]float64)
//
// Y0–Y3 carry lanes 0–3, 4–7, 8–11 and 12–15. A row of v is 128 bytes.
// Every lane's dot product and sum of squares is its own serial chain
// started from +0, as the Go kernel's are: no reassociation, no FMA.
TEXT ·residualsAVX(SB), NOSPLIT, $0-48
	MOVQ v+0(FP), SI
	MOVQ dim+8(FP), CX
	MOVQ basis_base+16(FP), DI
	MOVQ basis_len+24(FP), DX
	MOVQ out+40(FP), R9
	MOVQ CX, R10
	SHLQ $3, R10          // R10: bytes per basis row
	LEAQ (DI)(DX*8), R8   // R8: end of basis
	MOVQ CX, R11
	SHLQ $7, R11
	ADDQ SI, R11          // R11: end of v's first dim rows

row:
	CMPQ DI, R8
	JAE  norms

	// p = Σ v[i]*b[i], left to right.
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, AX
	MOVQ   DI, BX

dot:
	CMPQ         AX, R11
	JAE          project
	VBROADCASTSD (BX), Y4
	VMULPD       (AX), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(AX), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(AX), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(AX), Y4, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $128, AX
	ADDQ         $8, BX
	JMP          dot

	// v[j] -= p*b[j].
project:
	MOVQ SI, AX
	MOVQ DI, BX

sub:
	CMPQ         AX, R11
	JAE          nextrow
	VBROADCASTSD (BX), Y4
	VMULPD       Y0, Y4, Y5
	VMOVUPD      (AX), Y9
	VSUBPD       Y5, Y9, Y9
	VMOVUPD      Y9, (AX)
	VMULPD       Y1, Y4, Y6
	VMOVUPD      32(AX), Y10
	VSUBPD       Y6, Y10, Y10
	VMOVUPD      Y10, 32(AX)
	VMULPD       Y2, Y4, Y7
	VMOVUPD      64(AX), Y11
	VSUBPD       Y7, Y11, Y11
	VMOVUPD      Y11, 64(AX)
	VMULPD       Y3, Y4, Y8
	VMOVUPD      96(AX), Y12
	VSUBPD       Y8, Y12, Y12
	VMOVUPD      Y12, 96(AX)
	ADDQ         $128, AX
	ADDQ         $8, BX
	JMP          sub

nextrow:
	ADDQ R10, DI
	JMP  row

	// out = sqrt(Σ v[i]*v[i]), left to right.
norms:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, AX

sq:
	CMPQ    AX, R11
	JAE     store
	VMOVUPD (AX), Y4
	VMULPD  Y4, Y4, Y4
	VADDPD  Y4, Y0, Y0
	VMOVUPD 32(AX), Y5
	VMULPD  Y5, Y5, Y5
	VADDPD  Y5, Y1, Y1
	VMOVUPD 64(AX), Y6
	VMULPD  Y6, Y6, Y6
	VADDPD  Y6, Y2, Y2
	VMOVUPD 96(AX), Y7
	VMULPD  Y7, Y7, Y7
	VADDPD  Y7, Y3, Y3
	ADDQ    $128, AX
	JMP     sq

store:
	VSQRTPD Y0, Y0
	VSQRTPD Y1, Y1
	VSQRTPD Y2, Y2
	VSQRTPD Y3, Y3
	VMOVUPD Y0, (R9)
	VMOVUPD Y1, 32(R9)
	VMOVUPD Y2, 64(R9)
	VMOVUPD Y3, 96(R9)
	VZEROUPPER
	RET
