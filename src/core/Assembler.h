//===- Assembler.h - Minimal in-process x86-64 encoder --------------------===//
//
// Just enough of an assembler for the baseline JIT (DESIGN.md §11): 64-bit
// GPR moves/arithmetic, the SSE2 scalar float subset the bytecode ISA needs,
// the SSE2 packed subset its f32/f64 vector lane ops need, setcc/cmovcc,
// and rel32 labels with end-of-function fixup. Code is appended to an
// in-memory byte vector; CodeBuffer owns making it executable. No external
// dependencies.
//
// Addressing discipline: every memory operand is [base + disp32]. The
// encoder handles the rsp/r12 SIB quirk and the rbp/r13 disp quirk by
// always emitting the disp32 form — a few bytes larger, one code path.
//
//===----------------------------------------------------------------------===//

#ifndef TERRACPP_CORE_ASSEMBLER_H
#define TERRACPP_CORE_ASSEMBLER_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace terracpp {
namespace x64 {

enum Reg : uint8_t {
  RAX = 0, RCX, RDX, RBX, RSP, RBP, RSI, RDI,
  R8, R9, R10, R11, R12, R13, R14, R15,
};

enum Xmm : uint8_t {
  XMM0 = 0, XMM1, XMM2, XMM3, XMM4, XMM5, XMM6, XMM7,
};

/// Condition codes, numbered as the hardware tttn field (setcc = 0F 90+cc).
enum class CC : uint8_t {
  O = 0x0, NO = 0x1, B = 0x2, AE = 0x3, E = 0x4, NE = 0x5, BE = 0x6, A = 0x7,
  S = 0x8, NS = 0x9, P = 0xA, NP = 0xB, L = 0xC, GE = 0xD, LE = 0xE, G = 0xF,
};

class Assembler {
public:
  using Label = uint32_t;

  Label newLabel();
  void bind(Label L);
  /// Patches every rel32 fixup. False if a referenced label was never bound.
  bool finalize();

  const std::vector<uint8_t> &code() const { return Buf; }
  size_t size() const { return Buf.size(); }

  // 64-bit GPR moves.
  void movRR(Reg D, Reg S);
  void movRI(Reg D, int64_t Imm);      ///< mov/movabs, shortest form.
  void loadRM(Reg D, Reg Base, int32_t Disp);   ///< mov r64, [base+disp]
  void storeMR(Reg Base, int32_t Disp, Reg S);  ///< mov [base+disp], r64
  void storeMI32(Reg Base, int32_t Disp, int32_t Imm); ///< mov qword, imm32
  void load32RM(Reg D, Reg Base, int32_t Disp); ///< zero-extends
  void movzx8RM(Reg D, Reg Base, int32_t Disp);
  void movzx16RM(Reg D, Reg Base, int32_t Disp);
  void movsx8RM(Reg D, Reg Base, int32_t Disp);
  void movsx16RM(Reg D, Reg Base, int32_t Disp);
  void movsx32RM(Reg D, Reg Base, int32_t Disp);
  void store8MR(Reg Base, int32_t Disp, Reg S);
  void store16MR(Reg Base, int32_t Disp, Reg S);
  void store32MR(Reg Base, int32_t Disp, Reg S);
  void movzx8RR(Reg D, Reg S);  ///< movzx r64, r8
  void movzx16RR(Reg D, Reg S); ///< movzx r64, r16
  void movsx8RR(Reg D, Reg S);  ///< movsx r64, r8
  void movsx16RR(Reg D, Reg S);
  void movsx32RR(Reg D, Reg S); ///< movsxd
  void mov32RR(Reg D, Reg S);   ///< 32-bit mov: zero-extends to 64.

  // 64-bit arithmetic.
  void addRR(Reg D, Reg S);
  void subRR(Reg D, Reg S);
  void imulRR(Reg D, Reg S);
  void imulRRI(Reg D, Reg S, int32_t Imm);
  void negR(Reg D);
  void cmpRR(Reg A, Reg B);
  void testRR(Reg A, Reg B);
  void test32RR(Reg A, Reg B);
  void xorRR(Reg D, Reg S);
  void xor32RR(Reg D, Reg S);
  void xor32RI(Reg D, int32_t Imm);
  void and32RR(Reg D, Reg S);
  void or32RR(Reg D, Reg S);
  void addRI(Reg D, int32_t Imm);
  void subRI(Reg D, int32_t Imm);
  void andRI8(Reg D, int8_t Imm);
  void shlRCl(Reg D); ///< shl r64, cl
  void shrRCl(Reg D); ///< shr r64, cl (logical)
  void sarRCl(Reg D); ///< sar r64, cl (arithmetic)
  void cqo();
  void cdqe();
  void idivR(Reg S);
  void divR(Reg S);
  void leaRM(Reg D, Reg Base, int32_t Disp);
  void setcc(CC C, Reg D8);    ///< sets the low byte only
  void cmovcc(CC C, Reg D, Reg S); ///< 64-bit
  void cmovcc32(CC C, Reg D, Reg S);

  // Control flow.
  void jmp(Label L);
  void jcc(CC C, Label L);
  void callR(Reg S);
  void push(Reg S);
  void pop(Reg D);
  void ret();
  void repStosq();

  // SSE2 scalar.
  void movsdXM(Xmm D, Reg Base, int32_t Disp);
  void movsdMX(Reg Base, int32_t Disp, Xmm S);
  void movqXR(Xmm D, Reg S);
  void movqRX(Reg D, Xmm S);
  void addsd(Xmm D, Xmm S);
  void subsd(Xmm D, Xmm S);
  void mulsd(Xmm D, Xmm S);
  void divsd(Xmm D, Xmm S);
  void minsd(Xmm D, Xmm S);
  void maxsd(Xmm D, Xmm S);
  void addss(Xmm D, Xmm S);
  void subss(Xmm D, Xmm S);
  void mulss(Xmm D, Xmm S);
  void divss(Xmm D, Xmm S);
  void minss(Xmm D, Xmm S);
  void maxss(Xmm D, Xmm S);
  void ucomisd(Xmm A, Xmm B);
  void ucomiss(Xmm A, Xmm B);
  void cvttsd2si32(Reg D, Xmm S);
  void cvttsd2si64(Reg D, Xmm S);
  void cvttss2si32(Reg D, Xmm S);
  void cvttss2si64(Reg D, Xmm S);
  void cvtsi2sd(Xmm D, Reg S); ///< from int64
  void cvtsi2ss(Xmm D, Reg S); ///< from int64
  void cvtsd2ss(Xmm D, Xmm S);
  void cvtss2sd(Xmm D, Xmm S);
  void xorpd(Xmm D, Xmm S);

  // SSE2 packed: 4 floats or 2 doubles per register; unaligned moves.
  void movupsXM(Xmm D, Reg Base, int32_t Disp);
  void movupsMX(Reg Base, int32_t Disp, Xmm S);
  void movssXM(Xmm D, Reg Base, int32_t Disp);
  void movssMX(Reg Base, int32_t Disp, Xmm S);
  void addps(Xmm D, Xmm S);
  void subps(Xmm D, Xmm S);
  void mulps(Xmm D, Xmm S);
  void divps(Xmm D, Xmm S);
  void minps(Xmm D, Xmm S);
  void maxps(Xmm D, Xmm S);
  void addpd(Xmm D, Xmm S);
  void subpd(Xmm D, Xmm S);
  void mulpd(Xmm D, Xmm S);
  void divpd(Xmm D, Xmm S);
  void minpd(Xmm D, Xmm S);
  void maxpd(Xmm D, Xmm S);
  void shufps(Xmm D, Xmm S, uint8_t Imm);
  void movlhps(Xmm D, Xmm S); ///< D.high64 = S.low64

private:
  void byte(uint8_t B) { Buf.push_back(B); }
  void word32(int32_t V);
  void word64(int64_t V);
  void rex(bool W, uint8_t R, uint8_t X, uint8_t B, bool Force = false);
  void modrm(uint8_t Mod, uint8_t RegOp, uint8_t Rm);
  /// [Base + Disp32] operand for opcode register field \p RegOp (low 3 bits).
  void mem(uint8_t RegOp, Reg Base, int32_t Disp);
  void rel32To(Label L);
  void sse(uint8_t Prefix, uint8_t Op, uint8_t RegOp, uint8_t Rm, bool W);
  /// SSE op with a [Base + Disp32] memory operand.
  void sseMem(uint8_t Prefix, uint8_t Op, uint8_t RegOp, Reg Base,
              int32_t Disp);

  std::vector<uint8_t> Buf;
  std::vector<int64_t> Labels;                      ///< -1 = unbound.
  std::vector<std::pair<size_t, Label>> Fixups;     ///< rel32 position.
};

} // namespace x64
} // namespace terracpp

#endif // TERRACPP_CORE_ASSEMBLER_H
