//===- TerraBytecode.cpp - AST -> register bytecode compiler --------------===//
//
// Compiles a typechecked, midend-run Terra function into the tier-0 format
// described in TerraBytecode.h. The compiler mirrors the tree-walking
// evaluator's semantics exactly (canonical int64/double forms, wrap-on-store
// re-canonicalization, short-circuit and/or, exclusive for-loop limits,
// parallel assignment); any construct it does not model makes compile()
// return null and the caller fall back to the tree-walker.
//
//===----------------------------------------------------------------------===//

#include "core/TerraBytecode.h"

#include "analysis/Interval.h"
#include "core/TerraAST.h"
#include "core/TerraType.h"

#include <cstring>
#include <iterator>
#include <map>
#include <set>
#include <sstream>

using namespace terracpp;
using namespace terracpp::bytecode;

namespace {

bool isScalarTy(const Type *T) {
  if (!T)
    return false;
  if (T->isPointer() || T->isFunction())
    return true;
  if (const auto *P = dyn_cast<PrimType>(T))
    return P->primKind() != PrimType::Void;
  return false;
}

bool isSignedPK(PrimType::PrimKind PK) {
  return PK >= PrimType::Int8 && PK <= PrimType::Int64;
}

bool isFloatPK(PrimType::PrimKind PK) {
  return PK == PrimType::Float32 || PK == PrimType::Float64;
}

RetKind retKindOf(const Type *T) {
  if (T->isPointer() || T->isFunction())
    return RetKind::Ptr;
  switch (cast<PrimType>(T)->primKind()) {
  case PrimType::Bool:
    return RetKind::Bool;
  case PrimType::Int8:
    return RetKind::I8;
  case PrimType::Int16:
    return RetKind::I16;
  case PrimType::Int32:
    return RetKind::I32;
  case PrimType::Int64:
    return RetKind::I64;
  case PrimType::UInt8:
    return RetKind::U8;
  case PrimType::UInt16:
    return RetKind::U16;
  case PrimType::UInt32:
    return RetKind::U32;
  case PrimType::UInt64:
    return RetKind::U64;
  case PrimType::Float32:
    return RetKind::F32;
  case PrimType::Float64:
    return RetKind::F64;
  case PrimType::Void:
    return RetKind::None;
  }
  return RetKind::None;
}

/// True when \p E computes a new vector value with a lane op (as opposed to
/// naming one in memory, or returning one from a call).
bool isVecOp(const TerraExpr *E) {
  if (!E->Ty || !E->Ty->isVector())
    return false;
  switch (E->kind()) {
  case TerraNode::NK_BinOp:
    return true;
  case TerraNode::NK_UnOp:
    return cast<UnOpExpr>(E)->Op == UnOpKind::Neg;
  case TerraNode::NK_Cast:
    return cast<CastExpr>(E)->Operand->Ty != E->Ty;
  case TerraNode::NK_Intrinsic:
    return cast<IntrinsicExpr>(E)->IK == IntrinsicKind::Min ||
           cast<IntrinsicExpr>(E)->IK == IntrinsicKind::Max;
  default:
    return false;
  }
}

/// Lane kind and count of vector type \p T; false unless the lanes are an
/// arithmetic primitive (bool vectors have no lane ops).
bool vecShapeOf(const Type *T, VecShape &S) {
  const auto *VT = dyn_cast<VectorType>(T);
  if (!VT || !VT->element()->isArithmetic() || VT->length() > 0xFFFF)
    return false;
  S.Kind = static_cast<uint8_t>(cast<PrimType>(VT->element())->primKind());
  S.Lanes = static_cast<uint16_t>(VT->length());
  return true;
}

//===----------------------------------------------------------------------===//
// Pre-pass: find locals, address-taken roots, and unsupported constructs
//===----------------------------------------------------------------------===//

struct Prepass {
  std::vector<std::pair<const TerraSymbol *, Type *>> Decls;
  std::set<const TerraSymbol *> AddrTaken;
  BailReason Bailed = BailReason::None;

  void bail(BailReason Why = BailReason::Other) {
    if (Bailed == BailReason::None)
      Bailed = Why;
  }

  void declare(const TerraSymbol *S) {
    if (!S || !S->DeclaredType) {
      bail();
      return;
    }
    Decls.push_back({S, S->DeclaredType});
  }

  /// &lvalue pins the root variable of the lvalue chain to the frame.
  void markAddrRoot(const TerraExpr *E) {
    while (E) {
      if (const auto *S = dyn_cast<SelectExpr>(E)) {
        E = S->Base;
        continue;
      }
      if (const auto *X = dyn_cast<IndexExpr>(E)) {
        if (X->Base->Ty && X->Base->Ty->isPointer())
          return; // Address lives behind a pointer, not in a local.
        E = X->Base;
        continue;
      }
      if (const auto *C = dyn_cast<CastExpr>(E)) {
        E = C->Operand;
        continue;
      }
      if (const auto *U = dyn_cast<UnOpExpr>(E)) {
        if (U->Op == UnOpKind::Deref)
          return;
        return;
      }
      if (const auto *V = dyn_cast<VarExpr>(E)) {
        AddrTaken.insert(V->Sym);
        return;
      }
      return; // GlobalRef and friends: storage is already memory.
    }
  }

  void walkExpr(const TerraExpr *E) {
    if (!E || Bailed != BailReason::None)
      return;
    switch (E->kind()) {
    case TerraNode::NK_Lit:
    case TerraNode::NK_Var:
    case TerraNode::NK_FuncLit:
    case TerraNode::NK_GlobalRef:
      return;
    case TerraNode::NK_Select:
      walkExpr(cast<SelectExpr>(E)->Base);
      return;
    case TerraNode::NK_Apply: {
      const auto *A = cast<ApplyExpr>(E);
      if (!isa<FuncLitExpr>(A->Callee)) {
        bail(BailReason::IndirectCall); // Tree-walker territory.
        return;
      }
      if (A->NumArgs > MaxCallArgs) {
        bail(BailReason::WideCall);
        return;
      }
      for (unsigned I = 0; I != A->NumArgs; ++I)
        walkExpr(A->Args[I]);
      return;
    }
    case TerraNode::NK_BinOp: {
      const auto *B = cast<BinOpExpr>(E);
      walkExpr(B->LHS);
      walkExpr(B->RHS);
      return;
    }
    case TerraNode::NK_UnOp: {
      const auto *U = cast<UnOpExpr>(E);
      if (U->Op == UnOpKind::AddrOf)
        markAddrRoot(U->Operand);
      walkExpr(U->Operand);
      return;
    }
    case TerraNode::NK_Index: {
      const auto *X = cast<IndexExpr>(E);
      walkExpr(X->Base);
      walkExpr(X->Idx);
      return;
    }
    case TerraNode::NK_Constructor: {
      const auto *C = cast<ConstructorExpr>(E);
      for (unsigned I = 0; I != C->NumInits; ++I)
        walkExpr(C->Inits[I]);
      return;
    }
    case TerraNode::NK_Cast:
      walkExpr(cast<CastExpr>(E)->Operand);
      return;
    case TerraNode::NK_Intrinsic: {
      const auto *N = cast<IntrinsicExpr>(E);
      for (unsigned I = 0; I != N->NumArgs; ++I)
        walkExpr(N->Args[I]);
      return;
    }
    default:
      bail(); // MethodCall, Escape: never in typechecked trees we accept.
      return;
    }
  }

  void walkStmt(const TerraStmt *S) {
    if (!S || Bailed != BailReason::None)
      return;
    switch (S->kind()) {
    case TerraNode::NK_Block: {
      const auto *B = cast<BlockStmt>(S);
      for (unsigned I = 0; I != B->NumStmts; ++I)
        walkStmt(B->Stmts[I]);
      return;
    }
    case TerraNode::NK_VarDecl: {
      const auto *D = cast<VarDeclStmt>(S);
      for (unsigned I = 0; I != D->NumNames; ++I)
        declare(D->Names[I].Sym);
      for (unsigned I = 0; I != D->NumInits; ++I)
        walkExpr(D->Inits[I]);
      return;
    }
    case TerraNode::NK_Assign: {
      const auto *A = cast<AssignStmt>(S);
      for (unsigned I = 0; I != A->NumRHS; ++I)
        walkExpr(A->RHS[I]);
      for (unsigned I = 0; I != A->NumLHS; ++I)
        walkExpr(A->LHS[I]);
      return;
    }
    case TerraNode::NK_If: {
      const auto *I2 = cast<IfStmt>(S);
      for (unsigned K = 0; K != I2->NumClauses; ++K) {
        walkExpr(I2->Conds[K]);
        walkStmt(I2->Blocks[K]);
      }
      walkStmt(I2->ElseBlock);
      return;
    }
    case TerraNode::NK_While: {
      const auto *W = cast<WhileStmt>(S);
      walkExpr(W->Cond);
      walkStmt(W->Body);
      return;
    }
    case TerraNode::NK_ForNum: {
      const auto *Fo = cast<ForNumStmt>(S);
      declare(Fo->Var.Sym);
      // The loop protocol runs on canonical int64; a non-integral loop
      // variable would need the tree-walker's double round-trip.
      if (Fo->Var.Sym && Fo->Var.Sym->DeclaredType) {
        const auto *P = dyn_cast<PrimType>(Fo->Var.Sym->DeclaredType);
        if (!P || !P->isIntegralPrim())
          bail();
      }
      walkExpr(Fo->Lo);
      walkExpr(Fo->Hi);
      walkExpr(Fo->Step);
      walkStmt(Fo->Body);
      return;
    }
    case TerraNode::NK_Return:
      walkExpr(cast<ReturnStmt>(S)->Val);
      return;
    case TerraNode::NK_Break:
      return;
    case TerraNode::NK_ExprStmt:
      walkExpr(cast<ExprStmt>(S)->E);
      return;
    default:
      bail();
      return;
    }
  }
};

//===----------------------------------------------------------------------===//
// Compiler
//===----------------------------------------------------------------------===//

struct LocalInfo {
  bool InFrame = false;
  uint16_t Reg = 0;
  uint32_t FrameOff = 0;
  Type *Ty = nullptr;
};

class BCCompiler {
public:
  BCCompiler(TerraContext &Ctx, const TerraFunction *F) : Ctx(Ctx), Src(F) {}

  std::shared_ptr<const Function> run();
  BailReason bailReason() const { return Why; }

private:
  TerraContext &Ctx;
  const TerraFunction *Src;
  Function Out;
  bool Bailed = false;
  BailReason Why = BailReason::None;

  std::map<const TerraSymbol *, LocalInfo> Locals;
  uint16_t PersistentRegs = 0;
  uint16_t RegTop = 0, RegMax = 0;
  uint32_t FrameTop = 0, FrameMax = 0;
  std::vector<std::vector<size_t>> BreakStack;

  int bail(BailReason R = BailReason::Other) {
    if (!Bailed)
      Why = R;
    Bailed = true;
    return -1;
  }

  size_t emit(Op O, uint16_t A = 0, uint16_t B = 0, uint16_t C = 0,
              int64_t Imm = 0) {
    Out.Code.push_back({O, A, B, C, Imm});
    return Out.Code.size() - 1;
  }
  size_t here() const { return Out.Code.size(); }
  void patch(size_t At, size_t Target) {
    Out.Code[At].Imm = static_cast<int64_t>(Target);
  }

  int tempReg() {
    if (RegTop >= 4096)
      return bail();
    uint16_t R = RegTop++;
    if (RegTop > RegMax)
      RegMax = RegTop;
    return R;
  }
  uint32_t allocScratch(uint64_t Size, uint32_t Align = 16) {
    FrameTop = (FrameTop + Align - 1) & ~(Align - 1);
    uint32_t Off = FrameTop;
    FrameTop += static_cast<uint32_t>(Size);
    if (FrameTop > FrameMax)
      FrameMax = FrameTop;
    if (FrameMax > (1u << 22))
      bail();
    return Off;
  }

  struct Mark {
    uint16_t Regs;
    uint32_t Frame;
  };
  Mark mark() const { return {RegTop, FrameTop}; }
  void release(Mark M) {
    RegTop = M.Regs;
    FrameTop = M.Frame;
  }

  int64_t trapIdx(const std::string &Msg, SourceLoc Loc) {
    Out.Traps.push_back({Msg, Loc});
    return static_cast<int64_t>(Out.Traps.size() - 1);
  }

  // Interval-analysis facts (TerraFunction::RangeFacts): a proven fact lets
  // the compiler skip the runtime guard in front of a division or shift.
  bool provenNonZeroDivisor(const BinOpExpr *B) const {
    return Src->RangeFacts && Src->RangeFacts->NonZeroDivisor.count(B);
  }
  bool provenInRangeShift(const BinOpExpr *B) const {
    return Src->RangeFacts && Src->RangeFacts->InRangeShift.count(B);
  }

  // Typed memory access.
  bool emitLoad(int Dst, const Type *Ty, int Addr, int64_t Off);
  bool emitStore(const Type *Ty, int Addr, int64_t Off, int Val);
  /// Re-canonicalizes the int64 in Src into Dst per PK (storeFromInt+load).
  void emitWrapTo(PrimType::PrimKind PK, int Dst, int Src);

  int compileScalar(const TerraExpr *E);
  bool compileScalarInto(const TerraExpr *E, int Dst);
  int compileAddr(const TerraExpr *E);
  int compileAggValue(const TerraExpr *E);
  bool compileAggInto(const TerraExpr *E, int DstAddr, const Type *Ty);
  int compileCall(const ApplyExpr *A);
  int compileBinOp(const BinOpExpr *B, const TerraExpr *E);
  int compileCast(const CastExpr *C);
  /// Converts the canonical scalar in \p Srv from \p From to \p To.
  int convertScalar(int Srv, Type *From, Type *To);
  /// Emits the lane op computing vector expression \p E (isVecOp) into the
  /// vector at address register \p DstAddr.
  bool compileVecOpInto(const TerraExpr *E, int DstAddr);
  /// Address of vector operand \p E, copied to scratch when evaluating the
  /// sibling operand \p Later could write through an lvalue \p E names.
  int compileVecOperand(const TerraExpr *E, const TerraExpr *Later);
  bool storeToLValue(const TerraExpr *L, int Val);
  bool compileStmt(const TerraStmt *S);
  bool compileBlock(const BlockStmt *B);
};

bool BCCompiler::emitLoad(int Dst, const Type *Ty, int Addr, int64_t Off) {
  if (Dst < 0 || Addr < 0)
    return false;
  Op O;
  if (Ty->isPointer() || Ty->isFunction()) {
    O = Op::LdP;
  } else {
    const auto *P = dyn_cast<PrimType>(Ty);
    if (!P)
      return bail() >= 0;
    switch (P->primKind()) {
    case PrimType::Bool:
    case PrimType::UInt8:
      O = Op::LdU8;
      break;
    case PrimType::Int8:
      O = Op::LdI8;
      break;
    case PrimType::Int16:
      O = Op::LdI16;
      break;
    case PrimType::UInt16:
      O = Op::LdU16;
      break;
    case PrimType::Int32:
      O = Op::LdI32;
      break;
    case PrimType::UInt32:
      O = Op::LdU32;
      break;
    case PrimType::Int64:
      O = Op::LdI64;
      break;
    case PrimType::UInt64:
      O = Op::LdU64;
      break;
    case PrimType::Float32:
      O = Op::LdF32;
      break;
    case PrimType::Float64:
      O = Op::LdF64;
      break;
    default:
      return bail() >= 0;
    }
  }
  emit(O, static_cast<uint16_t>(Dst), static_cast<uint16_t>(Addr), 0, Off);
  return true;
}

bool BCCompiler::emitStore(const Type *Ty, int Addr, int64_t Off, int Val) {
  if (Addr < 0 || Val < 0)
    return false;
  Op O;
  if (Ty->isPointer() || Ty->isFunction()) {
    O = Op::StP;
  } else {
    const auto *P = dyn_cast<PrimType>(Ty);
    if (!P)
      return bail() >= 0;
    switch (P->primKind()) {
    case PrimType::Bool:
    case PrimType::Int8:
    case PrimType::UInt8:
      O = Op::StI8;
      break;
    case PrimType::Int16:
    case PrimType::UInt16:
      O = Op::StI16;
      break;
    case PrimType::Int32:
    case PrimType::UInt32:
      O = Op::StI32;
      break;
    case PrimType::Int64:
    case PrimType::UInt64:
      O = Op::StI64;
      break;
    case PrimType::Float32:
      O = Op::StF32;
      break;
    case PrimType::Float64:
      O = Op::StF64;
      break;
    default:
      return bail() >= 0;
    }
  }
  emit(O, static_cast<uint16_t>(Addr), static_cast<uint16_t>(Val), 0, Off);
  return true;
}

void BCCompiler::emitWrapTo(PrimType::PrimKind PK, int Dst, int Src) {
  if (Dst < 0 || Src < 0)
    return;
  uint16_t D = static_cast<uint16_t>(Dst), S = static_cast<uint16_t>(Src);
  switch (PK) {
  case PrimType::Int8:
    emit(Op::WrapI8, D, S);
    return;
  case PrimType::Int16:
    emit(Op::WrapI16, D, S);
    return;
  case PrimType::Int32:
    emit(Op::WrapI32, D, S);
    return;
  case PrimType::UInt8:
    emit(Op::WrapU8, D, S);
    return;
  case PrimType::UInt16:
    emit(Op::WrapU16, D, S);
    return;
  case PrimType::UInt32:
    emit(Op::WrapU32, D, S);
    return;
  case PrimType::Bool:
    emit(Op::WrapBool, D, S);
    return;
  default: // 64-bit kinds are already canonical.
    if (D != S)
      emit(Op::Mov, D, S);
    return;
  }
}

//===----------------------------------------------------------------------===//
// Addresses (lvalues)
//===----------------------------------------------------------------------===//

int BCCompiler::compileAddr(const TerraExpr *E) {
  if (Bailed)
    return -1;
  switch (E->kind()) {
  case TerraNode::NK_Var: {
    const auto *V = cast<VarExpr>(E);
    auto It = Locals.find(V->Sym);
    if (It == Locals.end() || !It->second.InFrame)
      return bail();
    int Dst = tempReg();
    if (Dst < 0)
      return -1;
    emit(Op::FrameAddr, static_cast<uint16_t>(Dst), 0, 0, It->second.FrameOff);
    return Dst;
  }
  case TerraNode::NK_GlobalRef: {
    TerraGlobal *G = cast<GlobalRefExpr>(E)->Global;
    if (!G || !G->Storage)
      return bail();
    int Dst = tempReg();
    if (Dst < 0)
      return -1;
    emit(Op::ConstP, static_cast<uint16_t>(Dst), 0, 0,
         static_cast<int64_t>(reinterpret_cast<uintptr_t>(G->Storage)));
    return Dst;
  }
  case TerraNode::NK_UnOp: {
    const auto *U = cast<UnOpExpr>(E);
    if (U->Op != UnOpKind::Deref)
      return bail();
    int P = compileScalar(U->Operand);
    if (P < 0)
      return -1;
    emit(Op::TrapIfNull, static_cast<uint16_t>(P), 0, 0,
         trapIdx("null pointer dereference", E->loc()));
    return P;
  }
  case TerraNode::NK_Index: {
    const auto *X = cast<IndexExpr>(E);
    // Tree-walker order: index first, then base address.
    int Idx = compileScalar(X->Idx);
    if (Idx < 0)
      return -1;
    int Base = X->Base->Ty->isPointer() ? compileScalar(X->Base)
                                        : compileAddr(X->Base);
    if (Base < 0)
      return -1;
    int Dst = tempReg();
    if (Dst < 0)
      return -1;
    emit(Op::PtrAdd, static_cast<uint16_t>(Dst), static_cast<uint16_t>(Base),
         static_cast<uint16_t>(Idx), static_cast<int64_t>(E->Ty->size()));
    return Dst;
  }
  case TerraNode::NK_Select: {
    const auto *S = cast<SelectExpr>(E);
    int Base = compileAddr(S->Base);
    if (Base < 0)
      return -1;
    const auto *ST = dyn_cast<StructType>(S->Base->Ty);
    if (!ST || S->FieldIndex < 0)
      return bail();
    uint64_t Off = ST->fields()[S->FieldIndex].Offset;
    if (Off == 0)
      return Base;
    int Dst = tempReg();
    if (Dst < 0)
      return -1;
    emit(Op::PtrAddImm, static_cast<uint16_t>(Dst),
         static_cast<uint16_t>(Base), 0, static_cast<int64_t>(Off));
    return Dst;
  }
  default:
    return bail();
  }
}

//===----------------------------------------------------------------------===//
// Aggregate values
//===----------------------------------------------------------------------===//

int BCCompiler::compileAggValue(const TerraExpr *E) {
  if (Bailed)
    return -1;
  if (isVecOp(E)) {
    uint32_t Off = allocScratch(E->Ty->size());
    int A = tempReg();
    if (A < 0 || Bailed)
      return -1;
    emit(Op::FrameAddr, static_cast<uint16_t>(A), 0, 0, Off);
    return compileVecOpInto(E, A) ? A : -1;
  }
  switch (E->kind()) {
  case TerraNode::NK_Constructor: {
    uint32_t Off = allocScratch(E->Ty->size());
    int A = tempReg();
    if (A < 0 || Bailed)
      return -1;
    emit(Op::FrameAddr, static_cast<uint16_t>(A), 0, 0, Off);
    if (!compileAggInto(E, A, E->Ty))
      return -1;
    return A;
  }
  case TerraNode::NK_Apply:
    return compileCall(cast<ApplyExpr>(E));
  case TerraNode::NK_Cast: {
    const auto *C = cast<CastExpr>(E);
    if (C->Operand->Ty == C->Ty)
      return compileAggValue(C->Operand);
    return bail();
  }
  case TerraNode::NK_UnOp: {
    const auto *U = cast<UnOpExpr>(E);
    if (U->Op != UnOpKind::Deref)
      return bail();
    return compileAddr(E);
  }
  default:
    return compileAddr(E); // Var/Global/Select/Index lvalues.
  }
}

bool BCCompiler::compileAggInto(const TerraExpr *E, int DstAddr,
                                const Type *Ty) {
  if (DstAddr < 0 || Bailed)
    return false;
  if (isVecOp(E))
    return compileVecOpInto(E, DstAddr);
  if (const auto *C = dyn_cast<ConstructorExpr>(E)) {
    const auto *ST = dyn_cast<StructType>(C->Ty);
    if (!ST)
      return bail() >= 0;
    emit(Op::MemZero, static_cast<uint16_t>(DstAddr), 0, 0,
         static_cast<int64_t>(ST->size()));
    for (unsigned I = 0; I != C->NumInits; ++I) {
      int Idx = static_cast<int>(I);
      if (C->FieldNames && C->FieldNames[I])
        Idx = ST->fieldIndex(*C->FieldNames[I]);
      if (Idx < 0 || static_cast<size_t>(Idx) >= ST->fields().size())
        return bail() >= 0;
      uint64_t FOff = ST->fields()[Idx].Offset;
      const TerraExpr *Init = C->Inits[I];
      Mark M = mark();
      if (isScalarTy(Init->Ty)) {
        int V = compileScalar(Init);
        if (!emitStore(Init->Ty, DstAddr, static_cast<int64_t>(FOff), V))
          return false;
      } else {
        int FA = tempReg();
        if (FA < 0)
          return false;
        emit(Op::PtrAddImm, static_cast<uint16_t>(FA),
             static_cast<uint16_t>(DstAddr), 0, static_cast<int64_t>(FOff));
        if (!compileAggInto(Init, FA, Init->Ty))
          return false;
      }
      release(M);
    }
    return true;
  }
  int Srv = compileAggValue(E);
  if (Srv < 0)
    return false;
  emit(Op::MemCpy, static_cast<uint16_t>(DstAddr),
       static_cast<uint16_t>(Srv), 0, static_cast<int64_t>(Ty->size()));
  return true;
}

//===----------------------------------------------------------------------===//
// Vectors
//===----------------------------------------------------------------------===//

int BCCompiler::compileVecOperand(const TerraExpr *E, const TerraExpr *Later) {
  int A = compileAggValue(E);
  if (A < 0 || isVecOp(E) || !hasCall(Later))
    return A;
  // The tree-walker reads the operand before the call runs.
  uint32_t Off = allocScratch(E->Ty->size());
  int T = tempReg();
  if (T < 0 || Bailed)
    return -1;
  emit(Op::FrameAddr, static_cast<uint16_t>(T), 0, 0, Off);
  emit(Op::MemCpy, static_cast<uint16_t>(T), static_cast<uint16_t>(A), 0,
       static_cast<int64_t>(E->Ty->size()));
  return T;
}

bool BCCompiler::compileVecOpInto(const TerraExpr *E, int DstAddr) {
  VecShape S;
  if (!vecShapeOf(E->Ty, S))
    return bail(BailReason::Vector) >= 0;
  uint16_t D = static_cast<uint16_t>(DstAddr);
  if (const auto *C = dyn_cast<CastExpr>(E)) {
    Type *From = C->Operand->Ty;
    if (From->isVector()) {
      VecShape FS;
      if (!vecShapeOf(From, FS) || FS.Lanes != S.Lanes)
        return bail(BailReason::Vector) >= 0;
      int Src = compileAggValue(C->Operand);
      if (Src < 0)
        return false;
      S.SrcKind = FS.Kind;
      emit(Op::VCast, D, static_cast<uint16_t>(Src), 0, S.pack());
      return true;
    }
    // Broadcast: convert the scalar to the lane type once, then splat.
    int V = compileScalar(C->Operand);
    if (V < 0)
      return false;
    int L = convertScalar(V, From, cast<VectorType>(E->Ty)->element());
    if (L < 0)
      return false;
    emit(Op::VSplat, D, static_cast<uint16_t>(L), 0, S.pack());
    return true;
  }
  if (const auto *U = dyn_cast<UnOpExpr>(E)) {
    int Src = compileAggValue(U->Operand);
    if (Src < 0)
      return false;
    emit(Op::VNeg, D, static_cast<uint16_t>(Src), 0, S.pack());
    return true;
  }
  const TerraExpr *L, *R;
  Op O;
  bool IntLanes = !isFloatPK(static_cast<PrimType::PrimKind>(S.Kind));
  if (const auto *N = dyn_cast<IntrinsicExpr>(E)) {
    if (N->NumArgs != 2)
      return bail(BailReason::Vector) >= 0;
    L = N->Args[0];
    R = N->Args[1];
    O = N->IK == IntrinsicKind::Min ? Op::VMin : Op::VMax;
  } else {
    const auto *B = cast<BinOpExpr>(E);
    L = B->LHS;
    R = B->RHS;
    switch (B->Op) {
    case BinOpKind::Add:
      O = Op::VAdd;
      break;
    case BinOpKind::Sub:
      O = Op::VSub;
      break;
    case BinOpKind::Mul:
      O = Op::VMul;
      break;
    case BinOpKind::Div:
      O = Op::VDiv;
      if (IntLanes)
        S.Trap = static_cast<uint32_t>(
            trapIdx("integer division by zero", E->loc()));
      break;
    case BinOpKind::Mod:
      if (!IntLanes)
        return bail(BailReason::Vector) >= 0;
      O = Op::VMod;
      S.Trap =
          static_cast<uint32_t>(trapIdx("integer modulo by zero", E->loc()));
      break;
    default:
      return bail(BailReason::Vector) >= 0;
    }
  }
  if (L->Ty != E->Ty || R->Ty != E->Ty)
    return bail(BailReason::Vector) >= 0;
  int LA = compileVecOperand(L, R);
  int RA = LA < 0 ? -1 : compileAggValue(R);
  if (RA < 0)
    return false;
  emit(O, D, static_cast<uint16_t>(LA), static_cast<uint16_t>(RA), S.pack());
  return true;
}

//===----------------------------------------------------------------------===//
// Calls
//===----------------------------------------------------------------------===//

int BCCompiler::compileCall(const ApplyExpr *A) {
  const auto *FL = dyn_cast<FuncLitExpr>(A->Callee);
  if (!FL || !FL->Fn || A->NumArgs > MaxCallArgs)
    return bail();
  CallSite CS;
  CS.Callee = FL->Fn;
  CS.Loc = A->loc();
  for (unsigned I = 0; I != A->NumArgs; ++I) {
    const TerraExpr *Arg = A->Args[I];
    if (!Arg->Ty)
      return bail();
    int R = isScalarTy(Arg->Ty) ? compileScalar(Arg) : compileAggValue(Arg);
    if (R < 0)
      return -1;
    CS.Args.push_back({static_cast<uint16_t>(R), !isScalarTy(Arg->Ty)});
    CS.ArgTypes.push_back(Arg->Ty);
  }
  Type *RT = A->Ty;
  CS.RetTy = RT;
  int Dst = -2;
  bool AggRet = false;
  if (RT && !RT->isVoid()) {
    uint64_t Sz = RT->size();
    CS.RetFrameOff = allocScratch(Sz < 8 ? 8 : Sz);
    if (isScalarTy(RT)) {
      Dst = tempReg();
      if (Dst < 0)
        return -1;
      CS.DstReg = static_cast<uint16_t>(Dst);
      CS.RetLoad = retKindOf(RT);
    } else {
      AggRet = true;
    }
  }
  if (Bailed)
    return -1;
  Out.Calls.push_back(std::move(CS));
  emit(Op::Call, 0, 0, 0, static_cast<int64_t>(Out.Calls.size() - 1));
  if (AggRet) {
    int Addr = tempReg();
    if (Addr < 0)
      return -1;
    emit(Op::FrameAddr, static_cast<uint16_t>(Addr), 0, 0,
         Out.Calls.back().RetFrameOff);
    return Addr;
  }
  return Dst;
}

//===----------------------------------------------------------------------===//
// Binary operators
//===----------------------------------------------------------------------===//

int BCCompiler::compileBinOp(const BinOpExpr *B, const TerraExpr *E) {
  Type *OpTy = B->LHS->Ty;
  if (!OpTy || !B->RHS->Ty)
    return bail();

  // Short-circuit boolean and/or.
  if ((B->Op == BinOpKind::And || B->Op == BinOpKind::Or) && OpTy->isBool()) {
    int Dst = tempReg();
    if (Dst < 0 || !compileScalarInto(B->LHS, Dst))
      return -1;
    size_t J = emit(B->Op == BinOpKind::And ? Op::JmpIfFalse : Op::JmpIfTrue,
                    static_cast<uint16_t>(Dst), 0, 0, -1);
    if (!compileScalarInto(B->RHS, Dst))
      return -1;
    patch(J, here());
    return Dst;
  }

  // Pointer arithmetic and comparison.
  if (OpTy->isPointer() || B->RHS->Ty->isPointer()) {
    int L = compileScalar(B->LHS);
    int R = compileScalar(B->RHS);
    if (L < 0 || R < 0)
      return -1;
    int Dst = tempReg();
    if (Dst < 0)
      return -1;
    uint16_t D = static_cast<uint16_t>(Dst), UL = static_cast<uint16_t>(L),
             UR = static_cast<uint16_t>(R);
    if (OpTy->isPointer() && B->RHS->Ty->isPointer()) {
      switch (B->Op) {
      case BinOpKind::Sub:
        emit(Op::PtrDiff, D, UL, UR,
             static_cast<int64_t>(cast<PointerType>(OpTy)->pointee()->size()));
        return Dst;
      case BinOpKind::Eq:
        emit(Op::EqI, D, UL, UR);
        return Dst;
      case BinOpKind::Ne:
        emit(Op::NeI, D, UL, UR);
        return Dst;
      default:
        return bail();
      }
    }
    // ptr +/- int (typechecker normalized the int side to int64).
    if (!E->Ty->isPointer())
      return bail();
    int64_t ES =
        static_cast<int64_t>(cast<PointerType>(E->Ty)->pointee()->size());
    uint16_t Ptr = OpTy->isPointer() ? UL : UR;
    uint16_t Off = OpTy->isPointer() ? UR : UL;
    switch (B->Op) {
    case BinOpKind::Add:
      emit(Op::PtrAdd, D, Ptr, Off, ES);
      return Dst;
    case BinOpKind::Sub:
      emit(Op::PtrSub, D, Ptr, Off, ES);
      return Dst;
    default:
      return bail();
    }
  }

  const auto *P = dyn_cast<PrimType>(OpTy);
  if (!P)
    return bail();
  PrimType::PrimKind PK = P->primKind();
  int L = compileScalar(B->LHS);
  int R = compileScalar(B->RHS);
  if (L < 0 || R < 0)
    return -1;
  int Dst = tempReg();
  if (Dst < 0)
    return -1;
  uint16_t D = static_cast<uint16_t>(Dst), UL = static_cast<uint16_t>(L),
           UR = static_cast<uint16_t>(R);

  if (isFloatPK(PK)) {
    bool F32 = PK == PrimType::Float32;
    switch (B->Op) {
    case BinOpKind::Add:
      emit(F32 ? Op::AddF32 : Op::AddF, D, UL, UR);
      return Dst;
    case BinOpKind::Sub:
      emit(F32 ? Op::SubF32 : Op::SubF, D, UL, UR);
      return Dst;
    case BinOpKind::Mul:
      emit(F32 ? Op::MulF32 : Op::MulF, D, UL, UR);
      return Dst;
    case BinOpKind::Div:
      emit(F32 ? Op::DivF32 : Op::DivF, D, UL, UR);
      return Dst;
    case BinOpKind::Lt:
      emit(F32 ? Op::LtF32 : Op::LtF, D, UL, UR);
      return Dst;
    case BinOpKind::Le:
      emit(F32 ? Op::LeF32 : Op::LeF, D, UL, UR);
      return Dst;
    case BinOpKind::Gt:
      emit(F32 ? Op::GtF32 : Op::GtF, D, UL, UR);
      return Dst;
    case BinOpKind::Ge:
      emit(F32 ? Op::GeF32 : Op::GeF, D, UL, UR);
      return Dst;
    case BinOpKind::Eq:
      emit(F32 ? Op::EqF32 : Op::EqF, D, UL, UR);
      return Dst;
    case BinOpKind::Ne:
      emit(F32 ? Op::NeF32 : Op::NeF, D, UL, UR);
      return Dst;
    default:
      return bail();
    }
  }
  if (PK == PrimType::Bool) {
    switch (B->Op) {
    case BinOpKind::Eq:
      emit(Op::EqI, D, UL, UR);
      return Dst;
    case BinOpKind::Ne:
      emit(Op::NeI, D, UL, UR);
      return Dst;
    default:
      return bail();
    }
  }

  bool Signed = isSignedPK(PK);
  switch (B->Op) {
  case BinOpKind::Add:
    emit(Op::AddI, D, UL, UR);
    emitWrapTo(PK, Dst, Dst);
    return Dst;
  case BinOpKind::Sub:
    emit(Op::SubI, D, UL, UR);
    emitWrapTo(PK, Dst, Dst);
    return Dst;
  case BinOpKind::Mul:
    emit(Op::MulI, D, UL, UR);
    emitWrapTo(PK, Dst, Dst);
    return Dst;
  case BinOpKind::Div:
    if (!provenNonZeroDivisor(B))
      emit(Op::TrapIfZero, UR, 0, 0,
           trapIdx("integer division by zero", E->loc()));
    emit(Signed ? Op::DivI : Op::DivU, D, UL, UR);
    emitWrapTo(PK, Dst, Dst);
    return Dst;
  case BinOpKind::Mod:
    if (!provenNonZeroDivisor(B))
      emit(Op::TrapIfZero, UR, 0, 0,
           trapIdx("integer modulo by zero", E->loc()));
    emit(Signed ? Op::ModI : Op::ModU, D, UL, UR);
    emitWrapTo(PK, Dst, Dst);
    return Dst;
  case BinOpKind::Shl:
  case BinOpKind::Shr:
    if (!provenInRangeShift(B))
      emit(Op::TrapIfShiftGE, UR, static_cast<uint16_t>(P->size() * 8), 0,
           trapIdx("shift amount out of range", E->loc()));
    if (B->Op == BinOpKind::Shl)
      emit(Op::ShlI, D, UL, UR);
    else
      emit(Signed ? Op::ShrI : Op::ShrU, D, UL, UR);
    emitWrapTo(PK, Dst, Dst);
    return Dst;
  case BinOpKind::Lt:
    emit(Signed ? Op::LtI : Op::LtU, D, UL, UR);
    return Dst;
  case BinOpKind::Le:
    emit(Signed ? Op::LeI : Op::LeU, D, UL, UR);
    return Dst;
  case BinOpKind::Gt:
    emit(Signed ? Op::GtI : Op::GtU, D, UL, UR);
    return Dst;
  case BinOpKind::Ge:
    emit(Signed ? Op::GeI : Op::GeU, D, UL, UR);
    return Dst;
  case BinOpKind::Eq:
    emit(Op::EqI, D, UL, UR);
    return Dst;
  case BinOpKind::Ne:
    emit(Op::NeI, D, UL, UR);
    return Dst;
  default:
    return bail();
  }
}

//===----------------------------------------------------------------------===//
// Casts
//===----------------------------------------------------------------------===//

int BCCompiler::compileCast(const CastExpr *C) {
  Type *From = C->Operand->Ty;
  Type *To = C->Ty;
  if (!From || !To)
    return bail();
  if (From->isArray() && To->isPointer())
    return compileAddr(C->Operand);
  int Srv = compileScalar(C->Operand);
  if (Srv < 0)
    return -1;
  return convertScalar(Srv, From, To);
}

int BCCompiler::convertScalar(int Srv, Type *From, Type *To) {
  if (From == To)
    return Srv;
  if ((From->isPointer() || From->isFunction()) &&
      (To->isPointer() || To->isFunction()))
    return Srv;
  if (From->isPointer() && To->isIntegral()) {
    int Dst = tempReg();
    if (Dst < 0)
      return -1;
    emitWrapTo(cast<PrimType>(To)->primKind(), Dst, Srv);
    return Dst;
  }
  if (From->isIntegral() && To->isPointer())
    return Srv; // Canonical int64 bits are the pointer.

  const auto *PF = dyn_cast<PrimType>(From);
  const auto *PT = dyn_cast<PrimType>(To);
  if (!PF || !PT)
    return bail();
  PrimType::PrimKind FK = PF->primKind(), TK = PT->primKind();
  uint16_t S = static_cast<uint16_t>(Srv);

  if (PF->isIntegralPrim() || FK == PrimType::Bool) {
    int Dst = tempReg();
    if (Dst < 0)
      return -1;
    uint16_t D = static_cast<uint16_t>(Dst);
    if (TK == PrimType::Float64) {
      emit(Op::I2F, D, S);
      return Dst;
    }
    if (TK == PrimType::Float32) {
      emit(Op::I2F32, D, S);
      return Dst;
    }
    emitWrapTo(TK, Dst, Srv);
    return Dst;
  }
  if (isFloatPK(FK)) {
    // Widen a float source to double first (exact), as loadAsDouble does.
    if (FK == PrimType::Float32) {
      int W = tempReg();
      if (W < 0)
        return -1;
      emit(Op::F32ToF, static_cast<uint16_t>(W), S);
      Srv = W;
      S = static_cast<uint16_t>(W);
      if (TK == PrimType::Float64)
        return Srv;
    }
    int Dst = tempReg();
    if (Dst < 0)
      return -1;
    uint16_t D = static_cast<uint16_t>(Dst);
    switch (TK) {
    case PrimType::Float32:
      emit(Op::FToF32, D, S);
      return Dst;
    case PrimType::Bool:
      emit(Op::F2Bool, D, S);
      return Dst;
    case PrimType::Int8:
      emit(Op::F2I8, D, S);
      return Dst;
    case PrimType::Int16:
      emit(Op::F2I16, D, S);
      return Dst;
    case PrimType::Int32:
      emit(Op::F2I32, D, S);
      return Dst;
    case PrimType::Int64:
      emit(Op::F2I64, D, S);
      return Dst;
    case PrimType::UInt8:
      emit(Op::F2U8, D, S);
      return Dst;
    case PrimType::UInt16:
      emit(Op::F2U16, D, S);
      return Dst;
    case PrimType::UInt32:
      emit(Op::F2U32, D, S);
      return Dst;
    case PrimType::UInt64:
      emit(Op::F2U64, D, S);
      return Dst;
    default:
      return bail();
    }
  }
  return bail();
}

//===----------------------------------------------------------------------===//
// Scalar expressions
//===----------------------------------------------------------------------===//

int BCCompiler::compileScalar(const TerraExpr *E) {
  if (Bailed || !E || !E->Ty)
    return bail();
  switch (E->kind()) {
  case TerraNode::NK_Lit: {
    const auto *L = cast<LitExpr>(E);
    int Dst = tempReg();
    if (Dst < 0)
      return -1;
    uint16_t D = static_cast<uint16_t>(Dst);
    switch (L->LK) {
    case LitExpr::LK_Int: {
      const auto *P = dyn_cast<PrimType>(E->Ty);
      if (!P)
        return bail();
      PrimType::PrimKind PK = P->primKind();
      if (PK == PrimType::Float64) {
        double V = static_cast<double>(L->IntVal);
        int64_t Bits;
        memcpy(&Bits, &V, 8);
        emit(Op::ConstF, D, 0, 0, Bits);
        return Dst;
      }
      if (PK == PrimType::Float32) {
        float V = static_cast<float>(L->IntVal);
        int64_t Bits = 0;
        memcpy(&Bits, &V, 4);
        emit(Op::ConstF32, D, 0, 0, Bits);
        return Dst;
      }
      int64_t V = L->IntVal;
      switch (PK) { // Canonicalize at compile time.
      case PrimType::Bool:
        V = V != 0;
        break;
      case PrimType::Int8:
        V = static_cast<int8_t>(V);
        break;
      case PrimType::Int16:
        V = static_cast<int16_t>(V);
        break;
      case PrimType::Int32:
        V = static_cast<int32_t>(V);
        break;
      case PrimType::UInt8:
        V = static_cast<uint8_t>(V);
        break;
      case PrimType::UInt16:
        V = static_cast<uint16_t>(V);
        break;
      case PrimType::UInt32:
        V = static_cast<uint32_t>(V);
        break;
      default:
        break;
      }
      emit(Op::ConstI, D, 0, 0, V);
      return Dst;
    }
    case LitExpr::LK_Float: {
      const auto *P = dyn_cast<PrimType>(E->Ty);
      if (!P)
        return bail();
      if (P->primKind() == PrimType::Float64) {
        int64_t Bits;
        memcpy(&Bits, &L->FloatVal, 8);
        emit(Op::ConstF, D, 0, 0, Bits);
        return Dst;
      }
      if (P->primKind() == PrimType::Float32) {
        float V = static_cast<float>(L->FloatVal);
        int64_t Bits = 0;
        memcpy(&Bits, &V, 4);
        emit(Op::ConstF32, D, 0, 0, Bits);
        return Dst;
      }
      return bail(); // Float literal under int type: rare; tree handles it.
    }
    case LitExpr::LK_Bool:
      emit(Op::ConstI, D, 0, 0, L->BoolVal ? 1 : 0);
      return Dst;
    case LitExpr::LK_String: {
      const char *Data = Ctx.internStringData(*L->StrVal);
      emit(Op::ConstP, D, 0, 0,
           static_cast<int64_t>(reinterpret_cast<uintptr_t>(Data)));
      return Dst;
    }
    case LitExpr::LK_Pointer:
      emit(Op::ConstP, D, 0, 0,
           static_cast<int64_t>(reinterpret_cast<uintptr_t>(L->PtrVal)));
      return Dst;
    }
    return bail();
  }
  case TerraNode::NK_Var: {
    const auto *V = cast<VarExpr>(E);
    auto It = Locals.find(V->Sym);
    if (It == Locals.end())
      return bail();
    if (!It->second.InFrame)
      return It->second.Reg;
    int A = compileAddr(E);
    int Dst = tempReg();
    if (A < 0 || Dst < 0 || !emitLoad(Dst, E->Ty, A, 0))
      return -1;
    return Dst;
  }
  case TerraNode::NK_GlobalRef:
  case TerraNode::NK_Select: {
    int A = compileAddr(E);
    int Dst = tempReg();
    if (A < 0 || Dst < 0 || !emitLoad(Dst, E->Ty, A, 0))
      return -1;
    return Dst;
  }
  case TerraNode::NK_Index: {
    const auto *X = cast<IndexExpr>(E);
    if (X->Base->IsLValue || X->Base->Ty->isPointer()) {
      int A = compileAddr(E);
      int Dst = tempReg();
      if (A < 0 || Dst < 0 || !emitLoad(Dst, E->Ty, A, 0))
        return -1;
      return Dst;
    }
    // Rvalue aggregate base: evaluate it, then index (tree order).
    int Base = compileAggValue(X->Base);
    if (Base < 0)
      return -1;
    int Idx = compileScalar(X->Idx);
    if (Idx < 0)
      return -1;
    int Addr = tempReg();
    int Dst = tempReg();
    if (Addr < 0 || Dst < 0)
      return -1;
    emit(Op::PtrAdd, static_cast<uint16_t>(Addr),
         static_cast<uint16_t>(Base), static_cast<uint16_t>(Idx),
         static_cast<int64_t>(E->Ty->size()));
    if (!emitLoad(Dst, E->Ty, Addr, 0))
      return -1;
    return Dst;
  }
  case TerraNode::NK_FuncLit: {
    int Dst = tempReg();
    if (Dst < 0)
      return -1;
    // Resolved at execution time: under tiered execution a materialized
    // function value must be a machine address (native code may call the
    // same bits), which cannot be known at bytecode-compile time.
    emit(Op::FnLit, static_cast<uint16_t>(Dst), 0, 0,
         static_cast<int64_t>(
             reinterpret_cast<uintptr_t>(cast<FuncLitExpr>(E)->Fn)));
    return Dst;
  }
  case TerraNode::NK_UnOp: {
    const auto *U = cast<UnOpExpr>(E);
    switch (U->Op) {
    case UnOpKind::AddrOf:
      return compileAddr(U->Operand);
    case UnOpKind::Deref: {
      int P = compileScalar(U->Operand);
      if (P < 0)
        return -1;
      emit(Op::TrapIfNull, static_cast<uint16_t>(P), 0, 0,
           trapIdx("null pointer dereference", E->loc()));
      int Dst = tempReg();
      if (Dst < 0 || !emitLoad(Dst, E->Ty, P, 0))
        return -1;
      return Dst;
    }
    case UnOpKind::Not: {
      int V = compileScalar(U->Operand);
      int Dst = tempReg();
      if (V < 0 || Dst < 0)
        return -1;
      emit(Op::NotB, static_cast<uint16_t>(Dst), static_cast<uint16_t>(V));
      return Dst;
    }
    case UnOpKind::Neg: {
      const auto *P = dyn_cast<PrimType>(E->Ty);
      if (!P)
        return bail();
      int V = compileScalar(U->Operand);
      int Dst = tempReg();
      if (V < 0 || Dst < 0)
        return -1;
      uint16_t D = static_cast<uint16_t>(Dst), S = static_cast<uint16_t>(V);
      if (P->primKind() == PrimType::Float64) {
        emit(Op::NegF, D, S);
      } else if (P->primKind() == PrimType::Float32) {
        emit(Op::NegF32, D, S);
      } else {
        emit(Op::NegI, D, S);
        emitWrapTo(P->primKind(), Dst, Dst);
      }
      return Dst;
    }
    }
    return bail();
  }
  case TerraNode::NK_BinOp:
    return compileBinOp(cast<BinOpExpr>(E), E);
  case TerraNode::NK_Cast:
    return compileCast(cast<CastExpr>(E));
  case TerraNode::NK_Apply: {
    int R = compileCall(cast<ApplyExpr>(E));
    return R == -2 ? bail() : R;
  }
  case TerraNode::NK_Intrinsic: {
    const auto *N = cast<IntrinsicExpr>(E);
    switch (N->IK) {
    case IntrinsicKind::Sizeof: {
      if (!N->TyRef.Resolved)
        return bail();
      int Dst = tempReg();
      if (Dst < 0)
        return -1;
      emit(Op::ConstI, static_cast<uint16_t>(Dst), 0, 0,
           static_cast<int64_t>(N->TyRef.Resolved->size()));
      return Dst;
    }
    case IntrinsicKind::Min:
    case IntrinsicKind::Max: {
      const auto *P = dyn_cast<PrimType>(E->Ty);
      if (!P || N->NumArgs != 2)
        return bail();
      int A = compileScalar(N->Args[0]);
      int B = compileScalar(N->Args[1]);
      int Dst = tempReg();
      if (A < 0 || B < 0 || Dst < 0)
        return -1;
      bool IsMin = N->IK == IntrinsicKind::Min;
      Op O;
      // The tree-walker compares all integer kinds through signed
      // loadAsInt, so unsigned min/max also compare signed here.
      if (P->primKind() == PrimType::Float64)
        O = IsMin ? Op::MinF : Op::MaxF;
      else if (P->primKind() == PrimType::Float32)
        O = IsMin ? Op::MinF32 : Op::MaxF32;
      else
        O = IsMin ? Op::MinI : Op::MaxI;
      emit(O, static_cast<uint16_t>(Dst), static_cast<uint16_t>(A),
           static_cast<uint16_t>(B));
      return Dst;
    }
    case IntrinsicKind::Prefetch:
      // Evaluate the address for effect parity, then ignore (the VM has no
      // meaningful prefetch; the native backend lowers it for real).
      return compileScalar(N->Args[0]);
    }
    return bail();
  }
  default:
    return bail();
  }
}

bool BCCompiler::compileScalarInto(const TerraExpr *E, int Dst) {
  int R = compileScalar(E);
  if (R < 0 || Dst < 0)
    return false;
  if (R != Dst)
    emit(Op::Mov, static_cast<uint16_t>(Dst), static_cast<uint16_t>(R));
  return true;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

bool BCCompiler::storeToLValue(const TerraExpr *L, int Val) {
  if (Val < 0)
    return false;
  if (const auto *V = dyn_cast<VarExpr>(L)) {
    auto It = Locals.find(V->Sym);
    if (It == Locals.end())
      return bail() >= 0;
    if (!It->second.InFrame) {
      if (It->second.Reg != Val)
        emit(Op::Mov, It->second.Reg, static_cast<uint16_t>(Val));
      return true;
    }
  }
  int A = compileAddr(L);
  if (A < 0)
    return false;
  return emitStore(L->Ty, A, 0, Val);
}

bool BCCompiler::compileBlock(const BlockStmt *B) {
  if (!B)
    return !Bailed;
  for (unsigned I = 0; I != B->NumStmts; ++I) {
    Mark M = mark();
    if (!compileStmt(B->Stmts[I]))
      return false;
    release(M);
  }
  return true;
}

bool BCCompiler::compileStmt(const TerraStmt *S) {
  if (Bailed)
    return false;
  switch (S->kind()) {
  case TerraNode::NK_Block:
    return compileBlock(cast<BlockStmt>(S));
  case TerraNode::NK_VarDecl: {
    const auto *D = cast<VarDeclStmt>(S);
    for (unsigned I = 0; I != D->NumNames; ++I) {
      auto It = Locals.find(D->Names[I].Sym);
      if (It == Locals.end())
        return bail() >= 0;
      LocalInfo &L = It->second;
      Mark M = mark();
      if (I < D->NumInits) {
        if (!L.InFrame) {
          if (!compileScalarInto(D->Inits[I], L.Reg))
            return false;
        } else if (isScalarTy(L.Ty)) {
          int V = compileScalar(D->Inits[I]);
          int A = tempReg();
          if (V < 0 || A < 0)
            return false;
          emit(Op::FrameAddr, static_cast<uint16_t>(A), 0, 0, L.FrameOff);
          if (!emitStore(L.Ty, A, 0, V))
            return false;
        } else {
          int A = tempReg();
          if (A < 0)
            return false;
          emit(Op::FrameAddr, static_cast<uint16_t>(A), 0, 0, L.FrameOff);
          if (!compileAggInto(D->Inits[I], A, L.Ty))
            return false;
        }
      } else {
        if (!L.InFrame) {
          emit(Op::ConstI, L.Reg, 0, 0, 0);
        } else {
          int A = tempReg();
          if (A < 0)
            return false;
          emit(Op::FrameAddr, static_cast<uint16_t>(A), 0, 0, L.FrameOff);
          emit(Op::MemZero, static_cast<uint16_t>(A), 0, 0,
               static_cast<int64_t>(L.Ty->size()));
        }
      }
      release(M);
    }
    return true;
  }
  case TerraNode::NK_Assign: {
    const auto *A = cast<AssignStmt>(S);
    if (A->NumLHS != A->NumRHS)
      return bail() >= 0;
    // Parallel semantics: all RHS evaluated into fresh temps before stores.
    struct RV {
      bool Scalar;
      int Reg;
    };
    const TerraExpr *R0 = A->RHS[0];
    if (A->NumLHS == 1 && isVecOp(R0) && isa<VarExpr>(A->LHS[0])) {
      // A lane op into one local vector writes it in place, with no
      // parallel temp: lanes alias only lane-for-lane, and every operand is
      // evaluated before the op stores.
      int Addr = compileAddr(A->LHS[0]);
      return Addr >= 0 && compileVecOpInto(R0, Addr);
    }
    std::vector<RV> Vals;
    for (unsigned I = 0; I != A->NumRHS; ++I) {
      const TerraExpr *R = A->RHS[I];
      if (isScalarTy(R->Ty)) {
        int T = tempReg();
        if (T < 0 || !compileScalarInto(R, T))
          return false;
        Vals.push_back({true, T});
      } else {
        int V = compileAggValue(R);
        if (V < 0)
          return false;
        uint32_t Off = allocScratch(R->Ty->size());
        int T = tempReg();
        if (T < 0)
          return false;
        emit(Op::FrameAddr, static_cast<uint16_t>(T), 0, 0, Off);
        emit(Op::MemCpy, static_cast<uint16_t>(T), static_cast<uint16_t>(V),
             0, static_cast<int64_t>(R->Ty->size()));
        Vals.push_back({false, T});
      }
    }
    for (unsigned I = 0; I != A->NumLHS; ++I) {
      const TerraExpr *L = A->LHS[I];
      if (Vals[I].Scalar) {
        if (!storeToLValue(L, Vals[I].Reg))
          return false;
      } else {
        int Addr = compileAddr(L);
        if (Addr < 0)
          return false;
        emit(Op::MemCpy, static_cast<uint16_t>(Addr),
             static_cast<uint16_t>(Vals[I].Reg), 0,
             static_cast<int64_t>(L->Ty->size()));
      }
    }
    return true;
  }
  case TerraNode::NK_If: {
    const auto *I2 = cast<IfStmt>(S);
    std::vector<size_t> EndJumps;
    for (unsigned K = 0; K != I2->NumClauses; ++K) {
      int C = compileScalar(I2->Conds[K]);
      if (C < 0)
        return false;
      size_t J = emit(Op::JmpIfFalse, static_cast<uint16_t>(C), 0, 0, -1);
      if (!compileBlock(I2->Blocks[K]))
        return false;
      EndJumps.push_back(emit(Op::Jmp, 0, 0, 0, -1));
      patch(J, here());
    }
    if (I2->ElseBlock && !compileBlock(I2->ElseBlock))
      return false;
    for (size_t J : EndJumps)
      patch(J, here());
    return true;
  }
  case TerraNode::NK_While: {
    const auto *W = cast<WhileStmt>(S);
    size_t Head = here();
    int C = compileScalar(W->Cond);
    if (C < 0)
      return false;
    size_t Exit = emit(Op::JmpIfFalse, static_cast<uint16_t>(C), 0, 0, -1);
    BreakStack.emplace_back();
    if (!compileBlock(W->Body))
      return false;
    emit(Op::JmpBack, 0, 0, 0, static_cast<int64_t>(Head));
    patch(Exit, here());
    for (size_t J : BreakStack.back())
      patch(J, here());
    BreakStack.pop_back();
    return true;
  }
  case TerraNode::NK_ForNum: {
    const auto *Fo = cast<ForNumStmt>(S);
    auto It = Locals.find(Fo->Var.Sym);
    if (It == Locals.end())
      return bail() >= 0;
    LocalInfo &L = It->second;
    const auto *P = dyn_cast<PrimType>(L.Ty);
    if (!P || !P->isIntegralPrim())
      return bail() >= 0;
    PrimType::PrimKind PK = P->primKind();

    int IReg = tempReg(), HiReg = tempReg(), StepReg = tempReg(),
        CondReg = tempReg();
    if (CondReg < 0)
      return false;
    // Lo/Hi/Step are typed as the loop variable; their canonical register
    // forms already hold the int64 values loadAsInt would produce.
    if (!compileScalarInto(Fo->Lo, IReg) || !compileScalarInto(Fo->Hi, HiReg))
      return false;
    if (Fo->Step) {
      if (!compileScalarInto(Fo->Step, StepReg))
        return false;
      emit(Op::TrapIfZero, static_cast<uint16_t>(StepReg), 0, 0,
           trapIdx("'for' step is zero", S->loc()));
    } else {
      emit(Op::ConstI, static_cast<uint16_t>(StepReg), 0, 0, 1);
    }

    size_t Head = here();
    emit(Op::ForCond, static_cast<uint16_t>(CondReg),
         static_cast<uint16_t>(IReg), static_cast<uint16_t>(HiReg), StepReg);
    size_t Exit = emit(Op::JmpIfFalse, static_cast<uint16_t>(CondReg), 0, 0,
                       -1);
    // Publish the canonical counter into the loop variable.
    if (!L.InFrame) {
      emitWrapTo(PK, L.Reg, IReg);
    } else {
      Mark M = mark();
      int A = tempReg();
      if (A < 0)
        return false;
      emit(Op::FrameAddr, static_cast<uint16_t>(A), 0, 0, L.FrameOff);
      if (!emitStore(L.Ty, A, 0, IReg))
        return false;
      release(M);
    }
    BreakStack.emplace_back();
    if (!compileBlock(Fo->Body))
      return false;
    // Reload (body may mutate the variable), then advance.
    if (!L.InFrame) {
      emit(Op::AddI, static_cast<uint16_t>(IReg), L.Reg,
           static_cast<uint16_t>(StepReg));
    } else {
      Mark M = mark();
      int A = tempReg(), V = tempReg();
      if (V < 0)
        return false;
      emit(Op::FrameAddr, static_cast<uint16_t>(A), 0, 0, L.FrameOff);
      if (!emitLoad(V, L.Ty, A, 0))
        return false;
      emit(Op::AddI, static_cast<uint16_t>(IReg), static_cast<uint16_t>(V),
           static_cast<uint16_t>(StepReg));
      release(M);
    }
    emit(Op::JmpBack, 0, 0, 0, static_cast<int64_t>(Head));
    patch(Exit, here());
    for (size_t J : BreakStack.back())
      patch(J, here());
    BreakStack.pop_back();
    return true;
  }
  case TerraNode::NK_Return: {
    const auto *R = cast<ReturnStmt>(S);
    Type *RT = Src->FnTy->result();
    if (R->Val && RT && !RT->isVoid()) {
      int V = isScalarTy(RT) ? compileScalar(R->Val)
                             : compileAggValue(R->Val);
      if (V < 0)
        return false;
      emit(Op::RetVal, static_cast<uint16_t>(V));
    } else {
      emit(Op::Ret);
    }
    return true;
  }
  case TerraNode::NK_Break: {
    if (BreakStack.empty())
      return bail() >= 0;
    BreakStack.back().push_back(emit(Op::Jmp, 0, 0, 0, -1));
    return true;
  }
  case TerraNode::NK_ExprStmt: {
    const TerraExpr *E = cast<ExprStmt>(S)->E;
    if (!E->Ty)
      return bail() >= 0;
    if (E->Ty->isVoid()) {
      if (const auto *A = dyn_cast<ApplyExpr>(E))
        return compileCall(A) != -1 && !Bailed;
      if (const auto *N = dyn_cast<IntrinsicExpr>(E))
        if (N->IK == IntrinsicKind::Prefetch && N->NumArgs >= 1)
          return compileScalar(N->Args[0]) >= 0;
      return bail() >= 0;
    }
    if (isScalarTy(E->Ty))
      return compileScalar(E) >= 0;
    return compileAggValue(E) >= 0;
  }
  default:
    return bail() >= 0;
  }
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

std::shared_ptr<const Function> BCCompiler::run() {
  if (!Src->Body || !Src->FnTy || Src->IsExtern || Src->HostClosure) {
    bail();
    return nullptr;
  }
  if (Src->NumParams > MaxCallArgs) {
    bail(BailReason::WideCall);
    return nullptr;
  }

  Prepass Pre;
  for (unsigned I = 0; I != Src->NumParams; ++I)
    Pre.declare(Src->Params[I]);
  Pre.walkStmt(Src->Body);
  if (Pre.Bailed != BailReason::None) {
    bail(Pre.Bailed);
    return nullptr;
  }

  // Assign storage: scalars that never have their address taken live in
  // registers; everything else lives in the byte-addressed frame.
  for (auto &D : Pre.Decls) {
    if (Locals.count(D.first))
      continue;
    LocalInfo L;
    L.Ty = D.second;
    if (isScalarTy(D.second) && !Pre.AddrTaken.count(D.first)) {
      if (PersistentRegs >= 4000) {
        bail();
        return nullptr;
      }
      L.Reg = PersistentRegs++;
    } else {
      L.InFrame = true;
      L.FrameOff = allocScratch(D.second->size());
    }
    Locals[D.first] = L;
  }
  // Everything allocated so far is persistent; scratch goes above it.
  RegTop = RegMax = PersistentRegs;
  uint32_t PersistentFrame = FrameTop;
  FrameMax = FrameTop;

  Out.Src = Src;
  Out.Name = Src->Name;
  for (unsigned I = 0; I != Src->NumParams; ++I) {
    const LocalInfo &L = Locals[Src->Params[I]];
    Function::Param P;
    P.Ty = Src->Params[I]->DeclaredType;
    P.InFrame = L.InFrame;
    P.Reg = L.Reg;
    P.FrameOff = L.FrameOff;
    Out.Params.push_back(P);
  }
  Type *RT = Src->FnTy->result();
  if (RT && !RT->isVoid()) {
    Out.Ret = isScalarTy(RT) ? retKindOf(RT) : RetKind::Agg;
    Out.RetBytes = static_cast<uint32_t>(RT->size());
  }

  (void)PersistentFrame;
  if (!compileBlock(Src->Body) || Bailed)
    return nullptr;
  if (RT && !RT->isVoid()) {
    emit(Op::Trap, 0, 0, 0,
         trapIdx("control reached end of non-void function '" + Src->Name +
                     "'",
                 Src->Body->loc()));
  } else {
    emit(Op::Ret);
  }

  Out.NumRegs = RegMax;
  Out.FrameBytes = FrameMax;
  return std::make_shared<const Function>(std::move(Out));
}

} // namespace

//===----------------------------------------------------------------------===//
// Public API
//===----------------------------------------------------------------------===//

namespace terracpp {
namespace bytecode {

const char *opName(Op O) {
  static const char *Names[] = {
#define TERRACPP_BYTECODE_NAME(N) #N,
      TERRACPP_BYTECODE_OPS(TERRACPP_BYTECODE_NAME)
#undef TERRACPP_BYTECODE_NAME
  };
  unsigned I = static_cast<unsigned>(O);
  return I < NumOps ? Names[I] : "<bad-op>";
}

std::shared_ptr<const Function> compile(TerraContext &Ctx,
                                        const TerraFunction *F,
                                        BailReason *Why) {
  BCCompiler C(Ctx, F);
  std::shared_ptr<const Function> Out = C.run();
  if (Why)
    *Why = Out ? BailReason::None : C.bailReason();
  return Out;
}

std::string disassemble(const Function &F) {
  std::ostringstream OS;
  OS << "function " << F.Name << ": regs=" << F.NumRegs
     << " frame=" << F.FrameBytes << " insns=" << F.Code.size() << "\n";
  for (size_t I = 0; I != F.Code.size(); ++I) {
    const Insn &In = F.Code[I];
    OS << "  " << I << ":\t" << opName(In.Code) << "\tA=" << In.A
       << " B=" << In.B << " C=" << In.C << " Imm=" << In.Imm;
    if (In.Code == Op::Call &&
        static_cast<size_t>(In.Imm) < F.Calls.size()) {
      const CallSite &CS = F.Calls[In.Imm];
      OS << " ; call " << (CS.Callee ? CS.Callee->Name : "?") << "/"
         << CS.Args.size();
    }
    if ((In.Code == Op::Trap || In.Code == Op::TrapIfNull ||
         In.Code == Op::TrapIfZero || In.Code == Op::TrapIfShiftGE) &&
        static_cast<size_t>(In.Imm) < F.Traps.size())
      OS << " ; \"" << F.Traps[In.Imm].first << "\"";
    if (In.Code >= Op::VSplat && In.Code <= Op::VNeg) {
      VecShape S = VecShape::unpack(In.Imm);
      auto Kind = [](uint8_t K) {
        // Spelled as TypeContext names the primitives, in PrimKind order.
        static const char *Names[] = {"void",   "bool",   "int8",  "int16",
                                      "int32",  "int64",  "uint8", "uint16",
                                      "uint32", "uint64", "float", "double"};
        return K < std::size(Names) ? Names[K] : "?";
      };
      OS << " ; vector(" << Kind(S.Kind) << "," << S.Lanes << ")";
      if (In.Code == Op::VCast)
        OS << " from " << Kind(S.SrcKind);
      if ((In.Code == Op::VDiv || In.Code == Op::VMod) &&
          !isFloatPK(static_cast<PrimType::PrimKind>(S.Kind)) &&
          S.Trap < F.Traps.size())
        OS << " \"" << F.Traps[S.Trap].first << "\"";
    }
    OS << "\n";
  }
  return OS.str();
}

} // namespace bytecode
} // namespace terracpp
