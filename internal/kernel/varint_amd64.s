//go:build amd64 && !purego

#include "textflag.h"

// func putDeltaVarintsBMI2(dst *byte, cur *float64, prev *uint64, n int) (nb, nv int)
//
// Encodes cur[i] as the LEB128 varint of u = zigzag(bits(cur[i]) -
// prev[i]) and sets prev[i] = bits(cur[i]), for i = 0, 1, ... until n or
// the first u >= 2^56, which is left for the caller (neither written nor
// stored to prev). Per value: LZCNT gives the length class, one PDEP
// spreads u's eight 7-bit groups into the low bits of eight bytes, the
// varintCont entry adds the continuation bits, and one 8-byte store
// writes the varint plus zero padding that the next store overwrites;
// the cursor advances by the varintLen entry.
TEXT ·putDeltaVarintsBMI2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ cur+8(FP), SI
	MOVQ prev+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ DI, R8                   // write cursor
	XORQ BX, BX                   // value index
	MOVQ $0x7f7f7f7f7f7f7f7f, R9  // PDEP mask: seven payload bits per byte
	MOVQ $0x00ffffffffffffff, R10 // largest u with an 8-byte varint
	LEAQ ·varintCont(SB), R11
	LEAQ ·varintLen(SB), R12

loop:
	MOVQ   (SI)(BX*8), AX  // p = bits(cur[i])
	MOVQ   AX, R13
	SUBQ   (DX)(BX*8), R13 // d = p - prev[i]
	MOVQ   R13, R14
	SARQ   $63, R14
	SHLQ   $1, R13
	XORQ   R14, R13        // u = d<<1 ^ d>>63
	CMPQ   R13, R10
	JA     done            // u >= 2^56: the caller writes it
	MOVQ   AX, (DX)(BX*8)  // prev[i] = p
	LZCNTQ R13, R14
	PDEPQ  R9, R13, AX
	ORQ    (R11)(R14*8), AX
	MOVQ   AX, (R8)
	ADDQ   (R12)(R14*8), R8
	INCQ   BX
	CMPQ   BX, CX
	JB     loop

done:
	SUBQ DI, R8
	MOVQ R8, nb+32(FP)
	MOVQ BX, nv+40(FP)
	RET
