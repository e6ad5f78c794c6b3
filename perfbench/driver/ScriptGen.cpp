#include "ScriptGen.h"

using namespace perfbench;

namespace {

constexpr int64_t M = GenModulus;

/// One generated function: the C++ model of its body plus its source.
struct FnSpec {
  int Kind = 0;
  int64_t A = 0, B = 0, L = 0;
  bool CallsPrev = false;
  int64_t Salt = 0; ///< Added by the first function only.
};

int64_t evalCore(const FnSpec &F, int64_t X) {
  int64_t Acc = X;
  switch (F.Kind) {
  case 0: // counted loop
    for (int64_t I = 0; I < F.L; ++I)
      Acc = (Acc * F.A + I) % M;
    return Acc;
  case 1: // loop with a data-dependent branch
    for (int64_t I = 0; I < F.L; ++I)
      Acc = (Acc + I) % 3 == 0 ? (Acc * F.A + I) % M : (Acc + F.B) % M;
    return Acc;
  case 2: // struct method
    return (F.A * X + F.B) % M;
  case 3:   // staged expression chain
  case 4: { // staged statement list
    for (int64_t J = 1; J <= F.L; ++J)
      Acc = (Acc * F.A + J) % M;
    return Acc;
  }
  default: { // vector splat, multiply-add, weighted lane sum
    int64_t W = F.A * X + F.B;
    return (W + 2 * W + 3 * W + W) % M;
  }
  }
}

/// Value of function \p K of a script on \p X, following its call chain.
int64_t evalFn(const std::vector<FnSpec> &Specs, size_t K, int64_t X) {
  const FnSpec &F = Specs[K];
  int64_t V = evalCore(F, X) + F.Salt;
  if (F.CallsPrev)
    V += evalFn(Specs, K - 1, X);
  return V % M;
}

std::string num(int64_t V) { return std::to_string(V); }

} // namespace

Script perfbench::makeScript(Rng &R, uint64_t Uid, int NumFns) {
  Script S;
  std::string P = "s" + std::to_string(Uid);
  S.Name = P;
  std::vector<FnSpec> Specs;
  std::string Src;
  // A script's feature mix and call chains are balanced: kinds are dealt
  // from shuffled decks of all six, and 3 in 10 functions (rounded) call
  // the one before. Scripts of one size then differ in their constants,
  // order and chain shapes, not in how much of each feature they hold.
  std::vector<int> Deck;
  std::vector<bool> Calls(NumFns, false);
  std::vector<int> Callers;
  for (int K = 1; K < NumFns; ++K)
    Callers.push_back(K);
  for (int I = 0, N = (3 * (NumFns - 1) + 5) / 10; I != N; ++I) {
    std::swap(Callers[I], Callers[I + R.below(Callers.size() - I)]);
    Calls[Callers[I]] = true;
  }
  for (int K = 0; K != NumFns; ++K) {
    if (Deck.empty()) {
      for (int Kind = 0; Kind != 6; ++Kind)
        Deck.push_back(Kind);
      for (size_t I = Deck.size() - 1; I > 0; --I)
        std::swap(Deck[I], Deck[R.below(I + 1)]);
    }
    FnSpec F;
    F.Kind = Deck.back();
    Deck.pop_back();
    F.A = 2 + static_cast<int64_t>(R.below(96));
    F.B = static_cast<int64_t>(R.below(M));
    F.L = F.Kind <= 1 ? 8 + static_cast<int64_t>(R.below(57))
                      : 2 + static_cast<int64_t>(R.below(5));
    F.CallsPrev = Calls[K];
    F.Salt = K == 0 ? static_cast<int64_t>(Uid % 9973) : 0;
    std::string Fn = P + "f" + std::to_string(K);
    std::string Core;
    switch (F.Kind) {
    case 0:
      Src += "terra " + Fn + "(x: int): int\n  var acc = x\n  for i = 0, " +
             num(F.L) + " do acc = (acc * " + num(F.A) + " + i) % " + num(M) +
             " end\n";
      Core = "acc";
      break;
    case 1:
      Src += "terra " + Fn + "(x: int): int\n  var acc = x\n  for i = 0, " +
             num(F.L) + " do\n    if (acc + i) % 3 == 0 then acc = (acc * " +
             num(F.A) + " + i) % " + num(M) + " else acc = (acc + " +
             num(F.B) + ") % " + num(M) + " end\n  end\n";
      Core = "acc";
      break;
    case 2: {
      std::string St = "S" + std::to_string(Uid) + "_" + std::to_string(K);
      Src += "struct " + St + " { a: int; b: int }\nterra " + St +
             ":mix(y: int): int\n  return (self.a * y + self.b) % " + num(M) +
             "\nend\n";
      Src += "terra " + Fn + "(x: int): int\n  var s = " + St + " { " +
             num(F.A) + ", " + num(F.B) + " }\n  var acc = s:mix(x)\n";
      Core = "acc";
      break;
    }
    case 3: {
      std::string Xs = Fn + "_x", Ex = Fn + "_e";
      Src += "local " + Xs + " = symbol(int, \"xq\")\nlocal " + Ex + " = `[" +
             Xs + "]\nfor j = 1, " + num(F.L) + " do " + Ex + " = `([" + Ex +
             "] * " + num(F.A) + " + j) % " + num(M) + " end\n";
      Src += "terra " + Fn + "([" + Xs + "]): int\n  var x = [" + Xs +
             "]\n  var acc = [" + Ex + "]\n";
      Core = "acc";
      break;
    }
    case 4: {
      std::string Acc = Fn + "_acc", Body = Fn + "_body";
      Src += "local " + Acc + " = symbol(int, \"aq\")\nlocal " + Body +
             " = terralib.newlist()\nfor j = 1, " + num(F.L) + " do " + Body +
             ":insert(quote [" + Acc + "] = ([" + Acc + "] * " + num(F.A) +
             " + j) % " + num(M) + " end) end\n";
      Src += "terra " + Fn + "(x: int): int\n  var [" + Acc + "] = x\n  [" +
             Body + "]\n  var acc = [" + Acc + "]\n";
      Core = "acc";
      break;
    }
    default:
      Src += "terra " + Fn + "(x: int): int\n  var v: vector(int, 4) = x\n" +
             "  var w = v * " + num(F.A) + " + " + num(F.B) +
             "\n  var acc = (w[0] + w[1] * 2 + w[2] * 3 + w[3]) % " + num(M) +
             "\n";
      Core = "acc";
      break;
    }
    std::string Ret = "(" + Core + " + " + num(F.Salt) + ")";
    if (F.CallsPrev)
      Ret = "(" + Ret + " + " + P + "f" + std::to_string(K - 1) + "(x))";
    Src += "  return " + Ret + " % " + num(M) + "\nend\n";

    Specs.push_back(F);
    int64_t X = static_cast<int64_t>(R.below(M));
    S.Fns.push_back(Fn);
    S.Args.push_back(static_cast<int32_t>(X));
    S.Expected.push_back(static_cast<int32_t>(evalFn(Specs, K, X)));
  }
  S.Source = std::move(Src);
  return S;
}
