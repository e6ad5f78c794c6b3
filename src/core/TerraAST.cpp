#include "core/TerraAST.h"

#include "core/TerraType.h"

#include <cstring>

using namespace terracpp;

TerraContext::TerraContext(DiagnosticEngine &Diags)
    : Diags(Diags), Types(std::make_unique<TypeContext>()) {}

TerraContext::~TerraContext() = default;

TerraSymbol *TerraContext::freshSymbol(const std::string *Name,
                                       Type *DeclaredType) {
  auto Sym = std::make_unique<TerraSymbol>();
  Sym->Name = Name ? Name : intern("v");
  Sym->Id = NextSymbolId++;
  Sym->DeclaredType = DeclaredType;
  Symbols.push_back(std::move(Sym));
  return Symbols.back().get();
}

TerraFunction *TerraContext::createFunction(std::string Name) {
  auto Fn = std::make_unique<TerraFunction>();
  Fn->Name = std::move(Name);
  Fn->Id = NextFunctionId++;
  Functions.push_back(std::move(Fn));
  return Functions.back().get();
}

TerraGlobal *TerraContext::createGlobal(std::string Name, Type *Ty) {
  auto G = std::make_unique<TerraGlobal>();
  G->Name = std::move(Name);
  G->Id = NextGlobalId++;
  G->Ty = Ty;
  uint64_t Size = Ty->size();
  uint64_t Align = Ty->align();
  // Over-allocate so we can hand back an aligned pointer.
  auto Buf = std::make_unique<uint8_t[]>(Size + Align);
  uintptr_t P = reinterpret_cast<uintptr_t>(Buf.get());
  uintptr_t Aligned = (P + Align - 1) & ~(uintptr_t)(Align - 1);
  G->Storage = reinterpret_cast<void *>(Aligned);
  memset(G->Storage, 0, Size);
  GlobalStorage.push_back(std::move(Buf));
  Globals.push_back(std::move(G));
  return Globals.back().get();
}

const char *TerraContext::internStringData(const std::string &S) {
  StringData.push_back(std::make_unique<std::string>(S));
  return StringData.back()->c_str();
}

bool terracpp::hasCall(const TerraExpr *E) {
  if (!E)
    return false;
  switch (E->kind()) {
  case TerraNode::NK_Apply:
    return true;
  case TerraNode::NK_Select:
    return hasCall(cast<SelectExpr>(E)->Base);
  case TerraNode::NK_BinOp:
    return hasCall(cast<BinOpExpr>(E)->LHS) ||
           hasCall(cast<BinOpExpr>(E)->RHS);
  case TerraNode::NK_UnOp:
    return hasCall(cast<UnOpExpr>(E)->Operand);
  case TerraNode::NK_Index:
    return hasCall(cast<IndexExpr>(E)->Base) ||
           hasCall(cast<IndexExpr>(E)->Idx);
  case TerraNode::NK_Cast:
    return hasCall(cast<CastExpr>(E)->Operand);
  case TerraNode::NK_Constructor: {
    const auto *C = cast<ConstructorExpr>(E);
    for (unsigned I = 0; I != C->NumInits; ++I)
      if (hasCall(C->Inits[I]))
        return true;
    return false;
  }
  case TerraNode::NK_Intrinsic: {
    const auto *N = cast<IntrinsicExpr>(E);
    for (unsigned I = 0; I != N->NumArgs; ++I)
      if (hasCall(N->Args[I]))
        return true;
    return false;
  }
  default:
    return false;
  }
}
