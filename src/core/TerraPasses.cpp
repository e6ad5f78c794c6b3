#include "core/TerraPasses.h"

#include "analysis/CFG.h"
#include "analysis/Interval.h"
#include "core/TerraType.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <unordered_map>

using namespace terracpp;

namespace {

bool isBoolLit(const TerraExpr *E, bool &Out) {
  const auto *L = dyn_cast<LitExpr>(E);
  if (!L || L->LK != LitExpr::LK_Bool)
    return false;
  Out = L->BoolVal;
  return true;
}

/// True when \p S contains a break that would bind to an enclosing loop
/// (does not descend into nested loops, whose breaks bind there).
bool containsLoopBreak(const TerraStmt *S) {
  if (!S)
    return false;
  switch (S->kind()) {
  case TerraNode::NK_Break:
    return true;
  case TerraNode::NK_Block: {
    const auto *B = cast<BlockStmt>(S);
    for (unsigned I = 0; I != B->NumStmts; ++I)
      if (containsLoopBreak(B->Stmts[I]))
        return true;
    return false;
  }
  case TerraNode::NK_If: {
    const auto *I = cast<IfStmt>(S);
    for (unsigned K = 0; K != I->NumClauses; ++K)
      if (containsLoopBreak(I->Blocks[K]))
        return true;
    return containsLoopBreak(I->ElseBlock);
  }
  default:
    return false;
  }
}

/// True when control cannot flow past \p S: a return/break, a block
/// containing one, an if whose every branch (including a required else)
/// terminates, or a `while true` with no break. Statements after a
/// terminating one are unreachable and dropped by the folder, which keeps
/// the verifier's unreachable-code check from firing on folded trees.
bool stmtTerminates(const TerraStmt *S) {
  switch (S->kind()) {
  case TerraNode::NK_Return:
  case TerraNode::NK_Break:
    return true;
  case TerraNode::NK_Block: {
    const auto *B = cast<BlockStmt>(S);
    for (unsigned I = 0; I != B->NumStmts; ++I)
      if (stmtTerminates(B->Stmts[I]))
        return true;
    return false;
  }
  case TerraNode::NK_If: {
    const auto *I = cast<IfStmt>(S);
    if (!I->ElseBlock)
      return false;
    for (unsigned K = 0; K != I->NumClauses; ++K)
      if (!stmtTerminates(I->Blocks[K]))
        return false;
    return stmtTerminates(I->ElseBlock);
  }
  case TerraNode::NK_While: {
    const auto *W = cast<WhileStmt>(S);
    bool C;
    return isBoolLit(W->Cond, C) && C && !containsLoopBreak(W->Body);
  }
  default:
    return false;
  }
}

//===----------------------------------------------------------------------===//
// Constant folding
//===----------------------------------------------------------------------===//

// The folder computes what the tiers compute at run time: integers wrap to
// the width and signedness of their type, and float32 rounds after every
// operation. Computing +, -, * and / on float32 values in double and
// rounding once gives the float32 result exactly.

/// \p V as a value of the integral type \p Ty: truncated to its width, then
/// sign- or zero-extended to 64 bits.
int64_t wrapToType(uint64_t V, const Type *Ty) {
  uint64_t Bits = Ty->size() * 8;
  if (Bits >= 64)
    return static_cast<int64_t>(V);
  uint64_t Mask = (uint64_t(1) << Bits) - 1;
  V &= Mask;
  if (Ty->isSigned() && (V >> (Bits - 1)) != 0)
    V |= ~Mask;
  return static_cast<int64_t>(V);
}

bool isF32(const Type *Ty) { return Ty->isFloat() && Ty->size() == 4; }

/// An integer literal of integral type, as the value the tiers load.
bool isIntLit(const TerraExpr *E, int64_t &Out) {
  const auto *L = dyn_cast<LitExpr>(E);
  if (!L || L->LK != LitExpr::LK_Int || !L->Ty || !L->Ty->isIntegral())
    return false;
  Out = wrapToType(static_cast<uint64_t>(L->IntVal), L->Ty);
  return true;
}

/// A literal of floating type (an integer literal may carry one), as the
/// value the tiers load.
bool isFloatLit(const TerraExpr *E, double &Out) {
  const auto *L = dyn_cast<LitExpr>(E);
  if (!L || !L->Ty || !L->Ty->isFloat())
    return false;
  if (L->LK == LitExpr::LK_Float)
    Out = isF32(L->Ty) ? static_cast<float>(L->FloatVal) : L->FloatVal;
  else if (L->LK == LitExpr::LK_Int)
    Out = isF32(L->Ty) ? static_cast<float>(L->IntVal)
                       : static_cast<double>(L->IntVal);
  else
    return false;
  return true;
}

/// Calls \p Visit on each direct subexpression slot of \p E (through a
/// reference when \p E is mutable, so the callback may replace it).
template <typename ExprT, typename Fn>
void forEachOperand(ExprT *E, Fn &&Visit) {
  switch (E->kind()) {
  case TerraNode::NK_Select:
    Visit(cast<SelectExpr>(E)->Base);
    return;
  case TerraNode::NK_Apply: {
    auto *A = cast<ApplyExpr>(E);
    Visit(A->Callee);
    for (unsigned I = 0; I != A->NumArgs; ++I)
      Visit(A->Args[I]);
    return;
  }
  case TerraNode::NK_BinOp:
    Visit(cast<BinOpExpr>(E)->LHS);
    Visit(cast<BinOpExpr>(E)->RHS);
    return;
  case TerraNode::NK_UnOp:
    Visit(cast<UnOpExpr>(E)->Operand);
    return;
  case TerraNode::NK_Index:
    Visit(cast<IndexExpr>(E)->Base);
    Visit(cast<IndexExpr>(E)->Idx);
    return;
  case TerraNode::NK_Constructor: {
    auto *C = cast<ConstructorExpr>(E);
    for (unsigned I = 0; I != C->NumInits; ++I)
      Visit(C->Inits[I]);
    return;
  }
  case TerraNode::NK_Cast:
    Visit(cast<CastExpr>(E)->Operand);
    return;
  case TerraNode::NK_Intrinsic: {
    auto *N = cast<IntrinsicExpr>(E);
    for (unsigned I = 0; I != N->NumArgs; ++I)
      Visit(N->Args[I]);
    return;
  }
  default: // Leaves.
    return;
  }
}

class Folder {
public:
  explicit Folder(TerraContext &Ctx) : Ctx(Ctx) {}

  void foldExpr(TerraExpr *&E);
  void foldStmt(TerraStmt *&S);
  void foldBlock(BlockStmt *B);

private:
  /// A literal of integral type \p Ty holding \p V modulo 2^width.
  LitExpr *makeInt(uint64_t V, Type *Ty, SourceLoc Loc) {
    auto *L = Ctx.make<LitExpr>(Loc);
    L->LK = LitExpr::LK_Int;
    L->IntVal = wrapToType(V, Ty);
    L->LitTy = Ty;
    L->Ty = Ty;
    return L;
  }
  /// A literal of floating type \p Ty holding \p V rounded to \p Ty.
  LitExpr *makeFloat(double V, Type *Ty, SourceLoc Loc) {
    auto *L = Ctx.make<LitExpr>(Loc);
    L->LK = LitExpr::LK_Float;
    L->FloatVal = isF32(Ty) ? static_cast<float>(V) : V;
    L->LitTy = Ty;
    L->Ty = Ty;
    return L;
  }
  LitExpr *makeBool(bool V, Type *Ty, SourceLoc Loc) {
    auto *L = Ctx.make<LitExpr>(Loc);
    L->LK = LitExpr::LK_Bool;
    L->BoolVal = V;
    L->LitTy = Ty;
    L->Ty = Ty;
    return L;
  }

  TerraContext &Ctx;
};

void Folder::foldExpr(TerraExpr *&E) {
  if (!E)
    return;
  switch (E->kind()) {
  case TerraNode::NK_BinOp: {
    auto *B = cast<BinOpExpr>(E);
    foldExpr(B->LHS);
    foldExpr(B->RHS);
    int64_t LI, RI;
    double LF, RF;
    Type *Ty = B->Ty;
    if (!Ty || Ty->isVector())
      return;
    if (isIntLit(B->LHS, LI) && isIntLit(B->RHS, RI)) {
      // Arithmetic wraps in uint64_t, then to Ty (makeInt).
      auto LU = static_cast<uint64_t>(LI), RU = static_cast<uint64_t>(RI);
      bool Signed = B->LHS->Ty->isSigned();
      // Order unsigned operands as unsigned, whatever their 64-bit pattern.
      int Cmp = Signed ? (LI > RI) - (LI < RI) : (LU > RU) - (LU < RU);
      switch (B->Op) {
      case BinOpKind::Add:
        if (Ty->isIntegral())
          E = makeInt(LU + RU, Ty, E->loc());
        return;
      case BinOpKind::Sub:
        if (Ty->isIntegral())
          E = makeInt(LU - RU, Ty, E->loc());
        return;
      case BinOpKind::Mul:
        if (Ty->isIntegral())
          E = makeInt(LU * RU, Ty, E->loc());
        return;
      case BinOpKind::Div:
      case BinOpKind::Mod:
        // x / 0 traps at run time; so may a signed MIN / -1.
        if (!Ty->isIntegral() || RI == 0 || (Signed && RI == -1))
          return;
        if (B->Op == BinOpKind::Div)
          E = makeInt(Signed ? static_cast<uint64_t>(LI / RI) : LU / RU, Ty,
                      E->loc());
        else
          E = makeInt(Signed ? static_cast<uint64_t>(LI % RI) : LU % RU, Ty,
                      E->loc());
        return;
      case BinOpKind::Lt:
        E = makeBool(Cmp < 0, Ty, E->loc());
        return;
      case BinOpKind::Le:
        E = makeBool(Cmp <= 0, Ty, E->loc());
        return;
      case BinOpKind::Gt:
        E = makeBool(Cmp > 0, Ty, E->loc());
        return;
      case BinOpKind::Ge:
        E = makeBool(Cmp >= 0, Ty, E->loc());
        return;
      case BinOpKind::Eq:
        E = makeBool(LI == RI, Ty, E->loc());
        return;
      case BinOpKind::Ne:
        E = makeBool(LI != RI, Ty, E->loc());
        return;
      default:
        return;
      }
    }
    if (isFloatLit(B->LHS, LF) && isFloatLit(B->RHS, RF) && Ty->isFloat()) {
      switch (B->Op) {
      case BinOpKind::Add:
        E = makeFloat(LF + RF, Ty, E->loc());
        return;
      case BinOpKind::Sub:
        E = makeFloat(LF - RF, Ty, E->loc());
        return;
      case BinOpKind::Mul:
        E = makeFloat(LF * RF, Ty, E->loc());
        return;
      case BinOpKind::Div:
        E = makeFloat(LF / RF, Ty, E->loc());
        return;
      default:
        return;
      }
    }
    return;
  }
  case TerraNode::NK_UnOp: {
    auto *U = cast<UnOpExpr>(E);
    foldExpr(U->Operand);
    int64_t I;
    double F;
    if (U->Op == UnOpKind::Neg && U->Ty && !U->Ty->isVector()) {
      if (isIntLit(U->Operand, I) && U->Ty->isIntegral()) {
        E = makeInt(0 - static_cast<uint64_t>(I), U->Ty, E->loc());
        return;
      }
      if (isFloatLit(U->Operand, F) && U->Ty->isFloat()) {
        E = makeFloat(-F, U->Ty, E->loc());
        return;
      }
    }
    if (U->Op == UnOpKind::Not) {
      if (const auto *L = dyn_cast<LitExpr>(U->Operand);
          L && L->LK == LitExpr::LK_Bool) {
        E = makeBool(!L->BoolVal, U->Ty, E->loc());
        return;
      }
    }
    return;
  }
  case TerraNode::NK_Cast: {
    auto *C = cast<CastExpr>(E);
    foldExpr(C->Operand);
    // Fold numeric casts of literals.
    Type *To = C->Ty;
    if (!To || To->isVector() || To->isPointer())
      return;
    int64_t I;
    double F;
    if (isIntLit(C->Operand, I) && To->isIntegral()) {
      E = makeInt(static_cast<uint64_t>(I), To, E->loc());
      return;
    }
    if (isIntLit(C->Operand, I) && To->isFloat()) {
      // Convert once, straight to To: through double first may round twice.
      bool Unsigned = !C->Operand->Ty->isSigned();
      auto U = static_cast<uint64_t>(I);
      if (isF32(To))
        F = Unsigned ? static_cast<float>(U) : static_cast<float>(I);
      else
        F = Unsigned ? static_cast<double>(U) : static_cast<double>(I);
      E = makeFloat(F, To, E->loc());
      return;
    }
    if (isFloatLit(C->Operand, F) && To->isFloat()) {
      E = makeFloat(F, To, E->loc());
      return;
    }
    return;
  }
  default:
    forEachOperand(E, [&](TerraExpr *&Op) { foldExpr(Op); });
    return;
  }
}

void Folder::foldBlock(BlockStmt *B) {
  // Fold each statement, drop everything after a terminating statement, and
  // resolve constant conditionals.
  std::vector<TerraStmt *> Out;
  for (unsigned I = 0; I != B->NumStmts; ++I) {
    TerraStmt *S = B->Stmts[I];
    foldStmt(S);
    if (!S)
      continue;
    Out.push_back(S);
    if (stmtTerminates(S))
      break; // Unreachable code after terminator.
  }
  if (Out.size() != B->NumStmts) {
    B->Stmts = Ctx.copyArray(Out);
    B->NumStmts = Out.size();
  } else {
    for (unsigned I = 0; I != B->NumStmts; ++I)
      B->Stmts[I] = Out[I];
  }
}

void Folder::foldStmt(TerraStmt *&S) {
  switch (S->kind()) {
  case TerraNode::NK_Block:
    foldBlock(cast<BlockStmt>(S));
    return;
  case TerraNode::NK_VarDecl: {
    auto *D = cast<VarDeclStmt>(S);
    for (unsigned I = 0; I != D->NumInits; ++I)
      foldExpr(D->Inits[I]);
    return;
  }
  case TerraNode::NK_Assign: {
    auto *A = cast<AssignStmt>(S);
    for (unsigned I = 0; I != A->NumLHS; ++I)
      foldExpr(A->LHS[I]);
    for (unsigned I = 0; I != A->NumRHS; ++I)
      foldExpr(A->RHS[I]);
    return;
  }
  case TerraNode::NK_If: {
    auto *I2 = cast<IfStmt>(S);
    for (unsigned K = 0; K != I2->NumClauses; ++K) {
      foldExpr(I2->Conds[K]);
      foldBlock(I2->Blocks[K]);
    }
    if (I2->ElseBlock)
      foldBlock(I2->ElseBlock);
    // Dead-branch elimination for constant conditions (staging residue): a
    // false clause disappears, a true clause becomes the else of everything
    // before it. Nothing structurally unreachable survives, which the
    // verifier's CFG check relies on.
    std::vector<TerraExpr *> Conds;
    std::vector<BlockStmt *> Blocks;
    BlockStmt *Else = I2->ElseBlock;
    bool ChangedClauses = false;
    for (unsigned K = 0; K != I2->NumClauses; ++K) {
      bool C;
      if (!isBoolLit(I2->Conds[K], C)) {
        Conds.push_back(I2->Conds[K]);
        Blocks.push_back(I2->Blocks[K]);
        continue;
      }
      ChangedClauses = true;
      if (C) {
        Else = I2->Blocks[K]; // Later clauses and the old else are dead.
        break;
      }
      // False clause: drop it.
    }
    if (ChangedClauses) {
      if (Conds.empty()) {
        S = Else; // May be null: `if false then ... end` vanishes.
      } else {
        I2->Conds = Ctx.copyArray(Conds);
        I2->Blocks = Ctx.copyArray(Blocks);
        I2->NumClauses = (unsigned)Conds.size();
        I2->ElseBlock = Else;
      }
    }
    return;
  }
  case TerraNode::NK_While: {
    auto *W = cast<WhileStmt>(S);
    foldExpr(W->Cond);
    foldBlock(W->Body);
    // `while false` (staging residue) never runs.
    bool C;
    if (isBoolLit(W->Cond, C) && !C)
      S = nullptr;
    return;
  }
  case TerraNode::NK_ForNum: {
    auto *F = cast<ForNumStmt>(S);
    foldExpr(F->Lo);
    foldExpr(F->Hi);
    if (F->Step)
      foldExpr(F->Step);
    foldBlock(F->Body);
    return;
  }
  case TerraNode::NK_Return: {
    auto *R = cast<ReturnStmt>(S);
    if (R->Val)
      foldExpr(R->Val);
    return;
  }
  case TerraNode::NK_ExprStmt:
    foldExpr(cast<ExprStmt>(S)->E);
    return;
  default:
    return;
  }
}

//===----------------------------------------------------------------------===//
// Verifier
//===----------------------------------------------------------------------===//

class Verifier {
public:
  Verifier(DiagnosticEngine &Diags) : Diags(Diags) {}
  bool OK = true;

  void require(bool Cond, SourceLoc Loc, const char *Msg) {
    if (Cond)
      return;
    Diags.error(Loc, std::string("verifier: ") + Msg);
    OK = false;
  }

  void visitExpr(const TerraExpr *E) {
    if (!E)
      return;
    require(E->Ty != nullptr, E->loc(), "expression has no type");
    require(!isa<EscapeExpr>(E), E->loc(), "escape survived specialization");
    require(!isa<MethodCallExpr>(E), E->loc(),
            "method call survived typechecking");
    if (const auto *S = dyn_cast<SelectExpr>(E))
      require(S->FieldIndex >= 0, E->loc(), "unresolved field");
    forEachOperand(E, [&](const TerraExpr *Op) { visitExpr(Op); });
  }

  void visitStmt(const TerraStmt *S) {
    switch (S->kind()) {
    case TerraNode::NK_Block: {
      const auto *B = cast<BlockStmt>(S);
      for (unsigned I = 0; I != B->NumStmts; ++I)
        visitStmt(B->Stmts[I]);
      break;
    }
    case TerraNode::NK_VarDecl: {
      const auto *D = cast<VarDeclStmt>(S);
      for (unsigned I = 0; I != D->NumNames; ++I) {
        require(D->Names[I].Sym != nullptr, S->loc(), "unbound declaration");
        require(D->Names[I].Sym->DeclaredType != nullptr, S->loc(),
                "declaration without a type");
      }
      for (unsigned I = 0; I != D->NumInits; ++I)
        visitExpr(D->Inits[I]);
      break;
    }
    case TerraNode::NK_Assign: {
      const auto *A = cast<AssignStmt>(S);
      for (unsigned I = 0; I != A->NumLHS; ++I)
        visitExpr(A->LHS[I]);
      for (unsigned I = 0; I != A->NumRHS; ++I)
        visitExpr(A->RHS[I]);
      break;
    }
    case TerraNode::NK_If: {
      const auto *I2 = cast<IfStmt>(S);
      for (unsigned K = 0; K != I2->NumClauses; ++K) {
        visitExpr(I2->Conds[K]);
        visitStmt(I2->Blocks[K]);
      }
      if (I2->ElseBlock)
        visitStmt(I2->ElseBlock);
      break;
    }
    case TerraNode::NK_While:
      visitExpr(cast<WhileStmt>(S)->Cond);
      visitStmt(cast<WhileStmt>(S)->Body);
      break;
    case TerraNode::NK_ForNum: {
      const auto *F = cast<ForNumStmt>(S);
      require(F->Var.Sym && F->Var.Sym->DeclaredType, S->loc(),
              "loop variable untyped");
      visitExpr(F->Lo);
      visitExpr(F->Hi);
      if (F->Step)
        visitExpr(F->Step);
      visitStmt(F->Body);
      break;
    }
    case TerraNode::NK_Return:
      if (cast<ReturnStmt>(S)->Val)
        visitExpr(cast<ReturnStmt>(S)->Val);
      break;
    case TerraNode::NK_Break:
      break;
    case TerraNode::NK_ExprStmt:
      visitExpr(cast<ExprStmt>(S)->E);
      break;
    case TerraNode::NK_EscapeStmt:
      require(false, S->loc(), "escape statement survived specialization");
      break;
    default:
      require(false, S->loc(), "unknown statement kind");
    }
  }

private:
  DiagnosticEngine &Diags;
};

} // namespace

namespace {

/// Replaces branch conditions the interval analysis proved constant
/// (TerraFunction::RangeFacts) with boolean literals, so the constant
/// folder prunes the dead branch like any other staging residue. Must run
/// before the Folder: the fact table is keyed on the pre-fold nodes. Only
/// pure conditions are entered into ConstCond, so dropping the evaluation
/// cannot change observable behavior on any tier.
class FactCondFolder {
public:
  FactCondFolder(TerraContext &Ctx, const analysis::FactTable &Facts)
      : Ctx(Ctx), Facts(Facts) {}

  void visitStmt(TerraStmt *S) {
    if (!S)
      return;
    switch (S->kind()) {
    case TerraNode::NK_Block: {
      auto *B = cast<BlockStmt>(S);
      for (unsigned I = 0; I != B->NumStmts; ++I)
        visitStmt(B->Stmts[I]);
      return;
    }
    case TerraNode::NK_If: {
      auto *I = cast<IfStmt>(S);
      for (unsigned K = 0; K != I->NumClauses; ++K) {
        rewrite(I->Conds[K]);
        visitStmt(I->Blocks[K]);
      }
      visitStmt(I->ElseBlock);
      return;
    }
    case TerraNode::NK_While: {
      auto *W = cast<WhileStmt>(S);
      rewrite(W->Cond);
      visitStmt(W->Body);
      return;
    }
    case TerraNode::NK_ForNum:
      visitStmt(cast<ForNumStmt>(S)->Body);
      return;
    default:
      return;
    }
  }

private:
  void rewrite(TerraExpr *&Cond) {
    auto It = Facts.ConstCond.find(Cond);
    if (It == Facts.ConstCond.end())
      return;
    auto *L = Ctx.make<LitExpr>(Cond->loc());
    L->LK = LitExpr::LK_Bool;
    L->BoolVal = It->second;
    L->LitTy = Ctx.types().boolType();
    L->Ty = L->LitTy;
    Cond = L;
  }

  TerraContext &Ctx;
  const analysis::FactTable &Facts;
};

} // namespace

//===----------------------------------------------------------------------===//
// Inlining
//===----------------------------------------------------------------------===//

namespace {

/// Largest callee body, in expression and statement nodes counted after the
/// callee's own inlining, that is copied into a caller. Counting after
/// inlining also bounds how much a chain of nested accessors can grow.
constexpr unsigned InlineNodeBudget = 32;

bool isTrappingOp(BinOpKind Op) {
  return Op == BinOpKind::Div || Op == BinOpKind::Mod ||
         Op == BinOpKind::Shl || Op == BinOpKind::Shr;
}

/// The variable a place expression (`v`, `v.f`, `v.a[i]`) stores into when
/// every step stays inside the variable's own storage; null otherwise.
const TerraSymbol *placeRoot(const TerraExpr *E) {
  if (const auto *V = dyn_cast<VarExpr>(E))
    return V->Sym;
  if (const auto *S = dyn_cast<SelectExpr>(E))
    return S->Base->Ty->isStruct() ? placeRoot(S->Base) : nullptr;
  if (const auto *X = dyn_cast<IndexExpr>(E))
    return X->Base->Ty->isArray() ? placeRoot(X->Base) : nullptr;
  return nullptr;
}

bool isScalarOrPointer(const Type *T) { return T->isPrim() || T->isPointer(); }

/// `v` or a field path `v.f.g` inside a struct-typed variable.
bool isVarField(const TerraExpr *E) {
  if (isa<VarExpr>(E))
    return true;
  const auto *S = dyn_cast<SelectExpr>(E);
  return S && S->Base->Ty->isStruct() && isVarField(S->Base);
}

/// An argument that may be substituted for a parameter in expression
/// position: evaluating it any number of times, or not at all, reads the
/// same value and cannot trap.
bool isCheapArg(const TerraExpr *E) {
  switch (E->kind()) {
  case TerraNode::NK_Lit:
    return true;
  case TerraNode::NK_Var:
  case TerraNode::NK_Select:
    return isVarField(E);
  case TerraNode::NK_UnOp: {
    const auto *U = cast<UnOpExpr>(E);
    return U->Op == UnOpKind::AddrOf && isVarField(U->Operand);
  }
  case TerraNode::NK_Cast: {
    const auto *C = cast<CastExpr>(E);
    return isScalarOrPointer(C->Ty) && isScalarOrPointer(C->Operand->Ty) &&
           isCheapArg(C->Operand);
  }
  default:
    return false;
  }
}

/// Measures a callee body against the inlining rules: straight-line
/// VarDecl/Assign/ExprStmt/Block statements with at most one return, as the
/// last statement; no calls or function values; no Div/Mod/Shl/Shr (their
/// guards are elided per node through RangeFacts, which a copy lacks); only
/// variables the body itself binds; at most InlineNodeBudget nodes. Most
/// callees fail early, so the walk allocates nothing.
class ShapeChecker {
public:
  explicit ShapeChecker(const TerraFunction *Callee)
      : NumParams(Callee->NumParams) {
    for (unsigned I = 0; I != NumParams; ++I)
      bind(Callee->Params[I]);
  }

  bool OK = true;
  /// The body takes the address of (part of) a parameter.
  bool ParamAddrTaken = false;

  void stmt(const TerraStmt *S, bool MayReturn) {
    if (!OK || !count())
      return;
    switch (S->kind()) {
    case TerraNode::NK_Block: {
      const auto *B = cast<BlockStmt>(S);
      for (unsigned I = 0; I != B->NumStmts; ++I)
        stmt(B->Stmts[I], false);
      return;
    }
    case TerraNode::NK_VarDecl: {
      const auto *D = cast<VarDeclStmt>(S);
      for (unsigned I = 0; I != D->NumInits; ++I)
        expr(D->Inits[I]);
      for (unsigned I = 0; I != D->NumNames; ++I)
        bind(D->Names[I].Sym);
      return;
    }
    case TerraNode::NK_Assign: {
      const auto *A = cast<AssignStmt>(S);
      for (unsigned I = 0; I != A->NumLHS; ++I)
        expr(A->LHS[I]);
      for (unsigned I = 0; I != A->NumRHS; ++I)
        expr(A->RHS[I]);
      return;
    }
    case TerraNode::NK_ExprStmt:
      expr(cast<ExprStmt>(S)->E);
      return;
    case TerraNode::NK_Return:
      OK = MayReturn;
      expr(cast<ReturnStmt>(S)->Val);
      return;
    default:
      OK = false;
      return;
    }
  }

private:
  /// Parameters first, then the body's locals in declaration order.
  const TerraSymbol *Bound[2 * InlineNodeBudget];
  unsigned NumBound = 0;
  unsigned NumParams;
  unsigned Nodes = 0;

  void bind(const TerraSymbol *S) {
    if (NumBound == std::size(Bound))
      OK = false;
    else
      Bound[NumBound++] = S;
  }

  /// Position of \p S in Bound, or -1.
  int boundIndex(const TerraSymbol *S) const {
    for (unsigned I = 0; I != NumBound; ++I)
      if (Bound[I] == S)
        return static_cast<int>(I);
    return -1;
  }

  bool count() {
    if (++Nodes > InlineNodeBudget)
      OK = false;
    return OK;
  }

  void expr(const TerraExpr *E) {
    if (!E || !OK || !count())
      return;
    switch (E->kind()) {
    case TerraNode::NK_Var:
      OK = boundIndex(cast<VarExpr>(E)->Sym) >= 0;
      return;
    case TerraNode::NK_Apply:
    case TerraNode::NK_MethodCall:
    case TerraNode::NK_FuncLit: // Calls and function values stay out.
    case TerraNode::NK_Escape:
      OK = false;
      return;
    case TerraNode::NK_BinOp:
      if (isTrappingOp(cast<BinOpExpr>(E)->Op)) {
        OK = false;
        return;
      }
      break;
    case TerraNode::NK_UnOp: {
      const auto *U = cast<UnOpExpr>(E);
      if (U->Op == UnOpKind::AddrOf)
        if (const TerraSymbol *Root = placeRoot(U->Operand))
          ParamAddrTaken |= boundIndex(Root) < static_cast<int>(NumParams);
      break;
    }
    default:
      break;
    }
    forEachOperand(E, [&](const TerraExpr *Op) { expr(Op); });
  }
};

/// Where calls to \p Callee, whose passes are done, may be inlined.
TerraFunction::InlineKind classify(const TerraFunction *Callee) {
  for (unsigned I = 0; I != Callee->NumParams; ++I)
    if (Callee->Params[I]->DeclaredType->isArray())
      return TerraFunction::IK_Never;
  ShapeChecker C(Callee);
  const BlockStmt *Body = Callee->Body;
  for (unsigned I = 0; I != Body->NumStmts; ++I)
    C.stmt(Body->Stmts[I], I + 1 == Body->NumStmts);
  if (!C.OK)
    return TerraFunction::IK_Never;
  const auto *R =
      Body->NumStmts == 1 ? dyn_cast<ReturnStmt>(Body->Stmts[0]) : nullptr;
  return R && R->Val && !C.ParamAddrTaken ? TerraFunction::IK_Anywhere
                                          : TerraFunction::IK_Statement;
}

/// Copies typed trees for one inline site. Every copy keeps its node's type,
/// flags and source location. Variables the copied body declares get fresh
/// symbols (Rename); parameters map either to a fresh local (Rename) or to a
/// copy of the call's argument (Subst).
class Cloner {
public:
  explicit Cloner(TerraContext &Ctx) : Ctx(Ctx) {}

  std::unordered_map<const TerraSymbol *, const TerraExpr *> Subst;
  std::unordered_map<const TerraSymbol *, TerraSymbol *> Rename;

  TerraExpr *expr(const TerraExpr *E) {
    if (!E)
      return nullptr;
    if (const auto *O = dyn_cast<VarExpr>(E)) {
      // Arguments name the caller's variables: copy them without the maps.
      if (auto It = Subst.find(O->Sym); It != Subst.end())
        return Cloner(Ctx).expr(It->second);
      VarExpr *N = copy(O);
      if (auto It = Rename.find(O->Sym); It != Rename.end())
        N->Sym = It->second;
      return N;
    }
    TerraExpr *N = copyNode(E);
    forEachOperand(N, [&](TerraExpr *&Op) { Op = expr(Op); });
    return N;
  }

  TerraStmt *stmt(const TerraStmt *S) {
    switch (S->kind()) {
    case TerraNode::NK_Block: {
      BlockStmt *N = copy(cast<BlockStmt>(S));
      std::vector<TerraStmt *> Stmts;
      for (unsigned I = 0; I != N->NumStmts; ++I)
        Stmts.push_back(stmt(N->Stmts[I]));
      N->Stmts = Ctx.copyArray(Stmts);
      return N;
    }
    case TerraNode::NK_VarDecl: {
      VarDeclStmt *N = copy(cast<VarDeclStmt>(S));
      // Initializers are evaluated before the new names are in scope.
      N->Inits = exprs(N->Inits, N->NumInits);
      std::vector<VarDeclName> Names(N->Names, N->Names + N->NumNames);
      for (VarDeclName &Name : Names)
        Name.Sym = Rename[Name.Sym] =
            Ctx.freshSymbol(Name.Sym->Name, Name.Sym->DeclaredType);
      N->Names = Ctx.copyArray(Names);
      return N;
    }
    case TerraNode::NK_Assign: {
      AssignStmt *N = copy(cast<AssignStmt>(S));
      N->LHS = exprs(N->LHS, N->NumLHS);
      N->RHS = exprs(N->RHS, N->NumRHS);
      return N;
    }
    case TerraNode::NK_ExprStmt: {
      ExprStmt *N = copy(cast<ExprStmt>(S));
      N->E = expr(N->E);
      return N;
    }
    default:
      assert(false && "statement kind outside the inlinable shapes");
      return nullptr;
    }
  }

private:
  template <typename T> T *copy(const T *O) {
    T *N = Ctx.make<T>(O->loc());
    *N = *O;
    return N;
  }

  /// A copy of \p E that still shares its operands but owns its operand
  /// arrays, so they can be replaced.
  TerraExpr *copyNode(const TerraExpr *E) {
    switch (E->kind()) {
    case TerraNode::NK_Lit:
      return copy(cast<LitExpr>(E));
    case TerraNode::NK_GlobalRef:
      return copy(cast<GlobalRefExpr>(E));
    case TerraNode::NK_Select:
      return copy(cast<SelectExpr>(E));
    case TerraNode::NK_BinOp:
      return copy(cast<BinOpExpr>(E));
    case TerraNode::NK_UnOp:
      return copy(cast<UnOpExpr>(E));
    case TerraNode::NK_Index:
      return copy(cast<IndexExpr>(E));
    case TerraNode::NK_Cast:
      return copy(cast<CastExpr>(E));
    case TerraNode::NK_Constructor: {
      ConstructorExpr *N = copy(cast<ConstructorExpr>(E));
      N->Inits = Ctx.arena().copyArray(N->Inits, N->NumInits);
      return N;
    }
    case TerraNode::NK_Intrinsic: {
      IntrinsicExpr *N = copy(cast<IntrinsicExpr>(E));
      N->Args = Ctx.arena().copyArray(N->Args, N->NumArgs);
      return N;
    }
    default:
      assert(false && "expression kind outside the inlinable shapes");
      return nullptr;
    }
  }

  TerraExpr **exprs(TerraExpr *const *Es, unsigned Num) {
    std::vector<TerraExpr *> Out;
    for (unsigned I = 0; I != Num; ++I)
      Out.push_back(expr(Es[I]));
    return Ctx.copyArray(Out);
  }

  TerraContext &Ctx;
};

/// Replaces calls to small straight-line Terra functions with copies of
/// their bodies, so every tier runs accessor-style code without a call:
///  * a call statement becomes a block that binds each parameter to a fresh
///    local, initialized from its argument in order, then runs the body;
///  * a call in expression position whose callee is a single `return e`
///    becomes a copy of `e`, when every argument is cheap (isCheapArg) and
///    its parameter's address is never taken.
class Inliner {
public:
  Inliner(TerraContext &Ctx, TerraFunction *F) : Ctx(Ctx), F(F) {}

  /// Calls inlined into F.
  unsigned Count = 0;

  void run() {
    // The walk is skipped when no callee qualifies.
    bool Any = false;
    for (TerraFunction *Callee : F->Callees)
      Any |= inlineKind(Callee) != TerraFunction::IK_Never;
    if (Any)
      visitBlock(F->Body);
  }

private:
  void visitBlock(BlockStmt *B) {
    for (unsigned I = 0; I != B->NumStmts; ++I)
      visitStmt(B->Stmts[I]);
  }

  void visitStmt(TerraStmt *&S) {
    switch (S->kind()) {
    case TerraNode::NK_Block:
      visitBlock(cast<BlockStmt>(S));
      return;
    case TerraNode::NK_VarDecl: {
      auto *D = cast<VarDeclStmt>(S);
      for (unsigned I = 0; I != D->NumInits; ++I)
        visitExpr(D->Inits[I]);
      return;
    }
    case TerraNode::NK_Assign: {
      auto *A = cast<AssignStmt>(S);
      for (unsigned I = 0; I != A->NumLHS; ++I)
        visitExpr(A->LHS[I]);
      for (unsigned I = 0; I != A->NumRHS; ++I)
        visitExpr(A->RHS[I]);
      return;
    }
    case TerraNode::NK_If: {
      auto *I = cast<IfStmt>(S);
      for (unsigned K = 0; K != I->NumClauses; ++K) {
        visitExpr(I->Conds[K]);
        visitBlock(I->Blocks[K]);
      }
      if (I->ElseBlock)
        visitBlock(I->ElseBlock);
      return;
    }
    case TerraNode::NK_While:
      visitExpr(cast<WhileStmt>(S)->Cond);
      visitBlock(cast<WhileStmt>(S)->Body);
      return;
    case TerraNode::NK_ForNum: {
      auto *L = cast<ForNumStmt>(S);
      visitExpr(L->Lo);
      visitExpr(L->Hi);
      visitExpr(L->Step);
      visitBlock(L->Body);
      return;
    }
    case TerraNode::NK_Return:
      visitExpr(cast<ReturnStmt>(S)->Val);
      return;
    case TerraNode::NK_ExprStmt: {
      // A call statement is inlined as a block; its operands as usual.
      TerraExpr *&E = cast<ExprStmt>(S)->E;
      auto *A = dyn_cast<ApplyExpr>(E);
      if (!A) {
        visitExpr(E);
        return;
      }
      forEachOperand(E, [&](TerraExpr *&Op) { visitExpr(Op); });
      if (inlinableCall(A) != TerraFunction::IK_Never)
        S = inlineStmt(A);
      return;
    }
    default:
      return;
    }
  }

  void visitExpr(TerraExpr *&E) {
    if (!E)
      return;
    forEachOperand(E, [&](TerraExpr *&Op) { visitExpr(Op); });
    auto *A = dyn_cast<ApplyExpr>(E);
    if (A && inlinableCall(A) == TerraFunction::IK_Anywhere)
      if (TerraExpr *Inlined = inlineExpr(A))
        E = Inlined;
  }

  /// The verdict on \p Callee, computed once its passes are done, so its
  /// own calls are already inlined when its body is measured. A callee
  /// whose passes are not done is in a call cycle with F (or outside F's
  /// component) and stays a call.
  TerraFunction::InlineKind inlineKind(TerraFunction *Callee) {
    if (Callee->IsExtern || Callee->HostClosure || !Callee->Body ||
        Callee->State != TerraFunction::SK_Checked || !Callee->MidendDone)
      return TerraFunction::IK_Never;
    if (Callee->Inline == TerraFunction::IK_Unknown)
      Callee->Inline = classify(Callee);
    return Callee->Inline;
  }

  /// The verdict for call \p A: a direct call whose arguments already have
  /// the parameter types.
  TerraFunction::InlineKind inlinableCall(const ApplyExpr *A) {
    const auto *FL = dyn_cast<FuncLitExpr>(A->Callee);
    if (!FL || FL->Fn->NumParams != A->NumArgs)
      return TerraFunction::IK_Never;
    for (unsigned I = 0; I != A->NumArgs; ++I)
      if (A->Args[I]->Ty != FL->Fn->Params[I]->DeclaredType)
        return TerraFunction::IK_Never;
    return inlineKind(FL->Fn);
  }

  TerraStmt *inlineStmt(ApplyExpr *A) {
    TerraFunction *Callee = cast<FuncLitExpr>(A->Callee)->Fn;
    Cloner C(Ctx);
    std::vector<TerraStmt *> Stmts;
    for (unsigned I = 0; I != Callee->NumParams; ++I) {
      TerraSymbol *P = Callee->Params[I];
      auto *D = Ctx.make<VarDeclStmt>(A->Args[I]->loc());
      VarDeclName Name;
      Name.Name = P->Name;
      Name.Sym = C.Rename[P] = Ctx.freshSymbol(P->Name, P->DeclaredType);
      Name.Ty = TypeRef::fromType(P->DeclaredType);
      D->Names = Ctx.copyArray(std::vector<VarDeclName>{Name});
      D->NumNames = 1;
      D->Inits = Ctx.copyArray(std::vector<TerraExpr *>{A->Args[I]});
      D->NumInits = 1;
      Stmts.push_back(D);
    }
    const BlockStmt *Body = Callee->Body;
    for (unsigned I = 0; I != Body->NumStmts; ++I) {
      const auto *R = dyn_cast<ReturnStmt>(Body->Stmts[I]);
      if (!R) {
        Stmts.push_back(C.stmt(Body->Stmts[I]));
        continue;
      }
      // The value of a call statement is dropped, but evaluating it may
      // still trap (a load through a null pointer).
      if (R->Val && !isa<VarExpr>(R->Val) && !isa<LitExpr>(R->Val)) {
        auto *X = Ctx.make<ExprStmt>(R->loc());
        X->E = C.expr(R->Val);
        Stmts.push_back(X);
      }
    }
    auto *B = Ctx.make<BlockStmt>(A->loc());
    B->Stmts = Ctx.copyArray(Stmts);
    B->NumStmts = Stmts.size();
    noteInlined(Callee);
    return B;
  }

  TerraExpr *inlineExpr(ApplyExpr *A) {
    TerraFunction *Callee = cast<FuncLitExpr>(A->Callee)->Fn;
    const auto *R = cast<ReturnStmt>(Callee->Body->Stmts[0]);
    if (R->Val->Ty != A->Ty)
      return nullptr;
    Cloner C(Ctx);
    for (unsigned I = 0; I != Callee->NumParams; ++I) {
      if (!isCheapArg(A->Args[I]))
        return nullptr;
      C.Subst[Callee->Params[I]] = A->Args[I];
    }
    noteInlined(Callee);
    return C.expr(R->Val);
  }

  void noteInlined(const TerraFunction *Callee) {
    ++Count;
    for (TerraGlobal *G : Callee->GlobalRefs)
      if (std::find(F->GlobalRefs.begin(), F->GlobalRefs.end(), G) ==
          F->GlobalRefs.end())
        F->GlobalRefs.push_back(G);
  }

  TerraContext &Ctx;
  TerraFunction *F;
};

} // namespace

unsigned terracpp::runMidendPasses(TerraContext &Ctx, TerraFunction *F) {
  if (!F->Body || F->MidendDone)
    return 0;
  if (F->RangeFacts && !F->RangeFacts->ConstCond.empty()) {
    FactCondFolder FC(Ctx, *F->RangeFacts);
    FC.visitStmt(F->Body);
  }
  Inliner In(Ctx, F);
  In.run();
  Folder Fo(Ctx);
  Fo.foldBlock(F->Body);
  F->MidendDone = true;
  return In.Count;
}

bool terracpp::verifyFunction(DiagnosticEngine &Diags, TerraFunction *F) {
  if (!F->Body)
    return true; // Extern / host wrapper.
  Verifier V(Diags);
  V.visitStmt(F->Body);

  // After midend cleanup no nonempty block may be unreachable: the folder
  // removes statements after terminators and resolves constant branches, so
  // anything left unreachable indicates a pass bug that would confuse the
  // backends (and the dataflow solver, which ignores dead blocks).
  if (V.OK) {
    if (std::unique_ptr<analysis::CFG> G = analysis::CFG::build(F)) {
      const std::vector<bool> &Reach = G->reachableFromEntry();
      for (const analysis::CFGBlock &B : G->blocks())
        if (!B.empty() && !Reach[B.Id])
          V.require(false, B.Elems.front().loc(),
                    "unreachable code survived midend cleanup");
    }
  }
  return V.OK;
}
