//===- solver/Journal.cpp --------------------------------------------------===//

#include "solver/Journal.h"

#include "support/Diagnostics.h"
#include "sym/ExprBuilder.h"

#include <charconv>
#include <sstream>
#include <unordered_map>

using namespace gilr;
using namespace gilr::journal;

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

namespace {

void quoteName(const std::string &Name, std::string &Out) {
  Out += '|';
  for (char C : Name) {
    if (C == '|' || C == '\\')
      Out += '\\';
    Out += C;
  }
  Out += '|';
}

void appendU64(std::string &Out, uint64_t V) {
  char Buf[20];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

void appendHex16(std::string &Out, uint64_t V) {
  char Buf[16];
  for (int I = 15; I >= 0; --I, V >>= 4)
    Buf[I] = "0123456789abcdef"[V & 15];
  Out.append(Buf, sizeof(Buf));
}

void renderExpr(const Expr &E, std::string &Out) {
  auto Nary = [&](const char *Head) {
    Out += '(';
    Out += Head;
    for (const Expr &K : E->Kids) {
      Out += ' ';
      renderExpr(K, Out);
    }
    Out += ')';
  };
  switch (E->Kind) {
  case ExprKind::Var:
    Out += "(v ";
    quoteName(E->Name, Out);
    Out += ' ';
    Out += sortName(E->NodeSort);
    Out += ')';
    return;
  case ExprKind::IntLit:
    Out += int128ToString(E->IntVal);
    return;
  case ExprKind::RealLit:
    Out += "(real ";
    Out += int128ToString(E->RatVal.Num);
    Out += ' ';
    Out += int128ToString(E->RatVal.Den);
    Out += ')';
    return;
  case ExprKind::BoolLit:
    Out += E->BoolVal ? "true" : "false";
    return;
  case ExprKind::UnitLit:
    Out += "unit";
    return;
  case ExprKind::LocLit:
    Out += "(loc ";
    Out += std::to_string(E->LocId);
    Out += ')';
    return;
  case ExprKind::NoneLit:
    Out += "none";
    return;
  case ExprKind::Not:
    return Nary("not");
  case ExprKind::And:
    return Nary("and");
  case ExprKind::Or:
    return Nary("or");
  case ExprKind::Implies:
    return Nary("=>");
  case ExprKind::Ite:
    return Nary("ite");
  case ExprKind::Eq:
    return Nary("=");
  case ExprKind::Lt:
    return Nary("<");
  case ExprKind::Le:
    return Nary("<=");
  case ExprKind::Add:
    return Nary("+");
  case ExprKind::Sub:
    return Nary("-");
  case ExprKind::Mul:
    return Nary("*");
  case ExprKind::Neg:
    return Nary("neg");
  case ExprKind::Some:
    return Nary("some");
  case ExprKind::IsSome:
    return Nary("is-some");
  case ExprKind::Unwrap:
    return Nary("unwrap");
  case ExprKind::SeqNil:
    Out += "seqnil";
    return;
  case ExprKind::SeqUnit:
    return Nary("seq.unit");
  case ExprKind::SeqConcat:
    return Nary("seq.++");
  case ExprKind::SeqLen:
    return Nary("seq.len");
  case ExprKind::SeqNth:
    return Nary("seq.nth");
  case ExprKind::SeqSub:
    return Nary("seq.extract");
  case ExprKind::TupleLit:
    return Nary("tuple");
  case ExprKind::TupleGet:
    Out += "(tuple.get ";
    Out += std::to_string(E->Index);
    Out += ' ';
    renderExpr(E->Kids[0], Out);
    Out += ')';
    return;
  case ExprKind::LftIncl:
    return Nary("lft<=");
  case ExprKind::App:
    Out += "(app ";
    quoteName(E->Name, Out);
    Out += ' ';
    Out += sortName(E->NodeSort);
    for (const Expr &K : E->Kids) {
      Out += ' ';
      renderExpr(K, Out);
    }
    Out += ')';
    return;
  }
  GILR_UNREACHABLE("unknown expr kind");
}

const char *verdictName(uint8_t V) {
  switch (V) {
  case 0:
    return "sat";
  case 1:
    return "unsat";
  default:
    return "unknown";
  }
}

} // namespace

std::string journal::exprToJournal(const Expr &E) {
  std::string Out;
  renderExpr(E, Out);
  return Out;
}

void journal::renderRecord(const Record &R, const std::vector<uint64_t> &Refs,
                           std::string &Out) {
  if (R.RecKind == Record::Kind::Cached) {
    Out += "(cached :ob ";
    quoteName(R.Obligation, Out);
    Out += " :side ";
    Out += R.Side;
    Out += " :verdict ";
    Out += R.CachedOk ? "ok" : "fail";
    Out += ')';
    return;
  }
  auto Field = [&](const char *Key, uint64_t V) {
    Out += Key;
    appendU64(Out, V);
  };
  Out += "(query :ob ";
  quoteName(R.Obligation, Out);
  Out += " :side ";
  Out += R.Side;
  Field(" :idx ", R.QueryIdx);
  Field(" :pc ", R.PcSize);
  Out += " :cached ";
  Out += R.CacheHit ? 't' : 'f';
  Out += " :verdict ";
  Out += verdictName(R.Verdict);
  Field(" :ns ", R.DurationNs);
  Field(" :branches ", R.Branches);
  Field(" :theory ", R.TheoryChecks);
  Field(" :budget ", R.MaxBranches);
  Out += " :fp ";
  appendHex16(Out, R.Fp);
  Out += " :fp2 ";
  appendHex16(Out, R.Fp2);
  for (uint64_t N : Refs) {
    Out += " (assert @";
    appendU64(Out, N);
    Out += ')';
  }
  Out += ')';
}

void journal::renderDef(uint64_t N, std::string_view ExprText,
                        std::string &Out) {
  Out += "(def ";
  appendU64(Out, N);
  Out += ' ';
  Out += ExprText;
  Out += ')';
}

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

bool journal::parseInt128(const std::string &S, __int128 &Out) {
  if (S.empty())
    return false;
  std::size_t I = 0;
  bool Neg = false;
  if (S[0] == '-') {
    Neg = true;
    I = 1;
    if (S.size() == 1)
      return false;
  }
  unsigned __int128 Acc = 0;
  const unsigned __int128 Limit =
      Neg ? (unsigned __int128)1 << 127
          : ((unsigned __int128)1 << 127) - 1;
  for (; I < S.size(); ++I) {
    if (S[I] < '0' || S[I] > '9')
      return false;
    unsigned Digit = S[I] - '0';
    if (Acc > (Limit - Digit) / 10)
      return false;
    Acc = Acc * 10 + Digit;
  }
  Out = Neg ? -(__int128)Acc : (__int128)Acc;
  return true;
}

namespace {

/// A parsed s-expression node: an atom (with a quoted flag so |true| the
/// name and true the literal stay distinct) or a list.
struct SNode {
  bool IsAtom = true;
  bool Quoted = false;
  std::string Atom;
  std::vector<SNode> Kids;
};

class SParser {
public:
  SParser(const std::string &S) : S(S) {}

  /// Parses one s-expression; sets Err and returns false on failure.
  bool parse(SNode &Out) {
    skipWs();
    if (Pos >= S.size())
      return fail("unexpected end of input");
    if (S[Pos] == '(') {
      ++Pos;
      Out.IsAtom = false;
      Out.Kids.clear();
      while (true) {
        skipWs();
        if (Pos >= S.size())
          return fail("unterminated list");
        if (S[Pos] == ')') {
          ++Pos;
          return true;
        }
        Out.Kids.emplace_back();
        if (!parse(Out.Kids.back()))
          return false;
      }
    }
    if (S[Pos] == ')')
      return fail("unexpected ')'");
    Out.IsAtom = true;
    if (S[Pos] == '|') {
      ++Pos;
      Out.Quoted = true;
      Out.Atom.clear();
      while (Pos < S.size() && S[Pos] != '|') {
        if (S[Pos] == '\\') {
          ++Pos;
          if (Pos >= S.size())
            return fail("unterminated escape in quoted symbol");
        }
        Out.Atom += S[Pos++];
      }
      if (Pos >= S.size())
        return fail("unterminated quoted symbol");
      ++Pos; // closing '|'
      return true;
    }
    Out.Quoted = false;
    std::size_t Start = Pos;
    while (Pos < S.size() && !isDelim(S[Pos]))
      ++Pos;
    Out.Atom = S.substr(Start, Pos - Start);
    return true;
  }

  bool atEnd() {
    skipWs();
    return Pos >= S.size();
  }

  std::string Err;

private:
  static bool isDelim(char C) {
    return C == '(' || C == ')' || C == '|' || C == ' ' || C == '\t' ||
           C == '\n' || C == '\r';
  }
  void skipWs() {
    while (Pos < S.size() && (S[Pos] == ' ' || S[Pos] == '\t' ||
                              S[Pos] == '\n' || S[Pos] == '\r'))
      ++Pos;
  }
  bool fail(const char *Why) {
    if (Err.empty())
      Err = Why;
    return false;
  }

  const std::string &S;
  std::size_t Pos = 0;
};

bool parseSort(const std::string &Name, Sort &Out) {
  for (uint8_t I = 0; I <= (uint8_t)Sort::Any; ++I)
    if (Name == sortName((Sort)I)) {
      Out = (Sort)I;
      return true;
    }
  return false;
}

Expr exprFromSNode(const SNode &N, std::string &Err);

bool kidsFrom(const SNode &N, std::size_t From, std::vector<Expr> &Out,
              std::string &Err) {
  for (std::size_t I = From; I < N.Kids.size(); ++I) {
    Expr E = exprFromSNode(N.Kids[I], Err);
    if (!E)
      return false;
    Out.push_back(std::move(E));
  }
  return true;
}

Expr failExpr(std::string &Err, const std::string &Why) {
  if (Err.empty())
    Err = Why;
  return nullptr;
}

Expr exprFromSNode(const SNode &N, std::string &Err) {
  if (N.IsAtom) {
    if (!N.Quoted) {
      if (N.Atom == "true")
        return mkTrue();
      if (N.Atom == "false")
        return mkFalse();
      if (N.Atom == "unit")
        return mkUnit();
      if (N.Atom == "none")
        return mkNone();
      if (N.Atom == "seqnil")
        return mkSeqNil();
      __int128 V;
      if (parseInt128(N.Atom, V))
        return mkInt(V);
    }
    return failExpr(Err, "unknown atom '" + N.Atom + "'");
  }
  if (N.Kids.empty() || !N.Kids[0].IsAtom || N.Kids[0].Quoted)
    return failExpr(Err, "list without head symbol");
  const std::string &Head = N.Kids[0].Atom;
  std::size_t Arity = N.Kids.size() - 1;
  auto Need = [&](std::size_t Min, std::size_t Max) {
    if (Arity < Min || Arity > Max) {
      failExpr(Err, "bad arity for '" + Head + "'");
      return false;
    }
    return true;
  };

  if (Head == "v") {
    if (!Need(2, 2) || !N.Kids[1].IsAtom || !N.Kids[2].IsAtom)
      return failExpr(Err, "malformed (v name Sort)");
    Sort S;
    if (!parseSort(N.Kids[2].Atom, S))
      return failExpr(Err, "unknown sort '" + N.Kids[2].Atom + "'");
    return mkVar(N.Kids[1].Atom, S);
  }
  if (Head == "real") {
    if (!Need(2, 2) || !N.Kids[1].IsAtom || !N.Kids[2].IsAtom)
      return failExpr(Err, "malformed (real num den)");
    __int128 Num, Den;
    if (!parseInt128(N.Kids[1].Atom, Num) ||
        !parseInt128(N.Kids[2].Atom, Den) || Den == 0)
      return failExpr(Err, "malformed rational literal");
    return mkReal(Rational(Num, Den));
  }
  if (Head == "loc") {
    if (!Need(1, 1) || !N.Kids[1].IsAtom)
      return failExpr(Err, "malformed (loc id)");
    __int128 Id;
    if (!parseInt128(N.Kids[1].Atom, Id) || Id < 0)
      return failExpr(Err, "malformed location id");
    return mkLoc((uint64_t)Id);
  }
  if (Head == "tuple.get") {
    if (!Need(2, 2) || !N.Kids[1].IsAtom)
      return failExpr(Err, "malformed (tuple.get idx t)");
    __int128 Idx;
    if (!parseInt128(N.Kids[1].Atom, Idx) || Idx < 0)
      return failExpr(Err, "malformed tuple index");
    Expr T = exprFromSNode(N.Kids[2], Err);
    if (!T)
      return nullptr;
    return mkTupleGet(T, (unsigned)Idx);
  }
  if (Head == "app") {
    if (Arity < 2 || !N.Kids[1].IsAtom || !N.Kids[2].IsAtom)
      return failExpr(Err, "malformed (app name Sort args...)");
    Sort S;
    if (!parseSort(N.Kids[2].Atom, S))
      return failExpr(Err, "unknown sort '" + N.Kids[2].Atom + "'");
    std::vector<Expr> Args;
    if (!kidsFrom(N, 3, Args, Err))
      return nullptr;
    return mkApp(N.Kids[1].Atom, std::move(Args), S);
  }

  // Everything else: parse the kids, then dispatch to a builder.
  std::vector<Expr> K;
  if (!kidsFrom(N, 1, K, Err))
    return nullptr;
  auto Fixed = [&](std::size_t Want) {
    if (Arity != Want) {
      failExpr(Err, "bad arity for '" + Head + "'");
      return false;
    }
    return true;
  };
  if (Head == "not")
    return Fixed(1) ? mkNot(K[0]) : nullptr;
  if (Head == "and")
    return Arity >= 1 ? mkAnd(std::move(K))
                      : failExpr(Err, "empty (and)");
  if (Head == "or")
    return Arity >= 1 ? mkOr(std::move(K)) : failExpr(Err, "empty (or)");
  if (Head == "=>")
    return Fixed(2) ? mkImplies(K[0], K[1]) : nullptr;
  if (Head == "ite")
    return Fixed(3) ? mkIte(K[0], K[1], K[2]) : nullptr;
  if (Head == "=")
    return Fixed(2) ? mkEq(K[0], K[1]) : nullptr;
  if (Head == "<")
    return Fixed(2) ? mkLt(K[0], K[1]) : nullptr;
  if (Head == "<=")
    return Fixed(2) ? mkLe(K[0], K[1]) : nullptr;
  if (Head == "+")
    return Arity >= 1 ? mkAdd(std::move(K)) : failExpr(Err, "empty (+)");
  if (Head == "-")
    return Fixed(2) ? mkSub(K[0], K[1]) : nullptr;
  if (Head == "*")
    return Fixed(2) ? mkMul(K[0], K[1]) : nullptr;
  if (Head == "neg")
    return Fixed(1) ? mkNeg(K[0]) : nullptr;
  if (Head == "some")
    return Fixed(1) ? mkSome(K[0]) : nullptr;
  if (Head == "is-some")
    return Fixed(1) ? mkIsSome(K[0]) : nullptr;
  if (Head == "unwrap")
    return Fixed(1) ? mkUnwrap(K[0]) : nullptr;
  if (Head == "seq.unit")
    return Fixed(1) ? mkSeqUnit(K[0]) : nullptr;
  if (Head == "seq.++")
    return Arity >= 1 ? mkSeqConcat(std::move(K))
                      : failExpr(Err, "empty (seq.++)");
  if (Head == "seq.len")
    return Fixed(1) ? mkSeqLen(K[0]) : nullptr;
  if (Head == "seq.nth")
    return Fixed(2) ? mkSeqNth(K[0], K[1]) : nullptr;
  if (Head == "seq.extract")
    return Fixed(3) ? mkSeqSub(K[0], K[1], K[2]) : nullptr;
  if (Head == "tuple")
    return mkTuple(std::move(K));
  if (Head == "lft<=")
    return Fixed(2) ? mkLftIncl(K[0], K[1]) : nullptr;
  return failExpr(Err, "unknown operator '" + Head + "'");
}

/// Reads the atom following keyword \p Key in record node \p N, advancing
/// \p I past the pair. Field order is fixed by renderRecord, but the parser
/// accepts any order for forward compatibility.
bool keyAtom(const SNode &N, std::size_t &I, std::string &Key,
             const SNode *&Val) {
  if (I + 1 >= N.Kids.size() || !N.Kids[I].IsAtom || N.Kids[I].Quoted ||
      N.Kids[I].Atom.empty() || N.Kids[I].Atom[0] != ':')
    return false;
  Key = N.Kids[I].Atom;
  Val = &N.Kids[I + 1];
  I += 2;
  return true;
}

bool parseU64Atom(const SNode &V, uint64_t &Out) {
  __int128 X;
  if (!V.IsAtom || V.Quoted || !journal::parseInt128(V.Atom, X) || X < 0)
    return false;
  Out = (uint64_t)X;
  return true;
}

bool parseHexAtom(const SNode &V, uint64_t &Out) {
  if (!V.IsAtom || V.Quoted || V.Atom.empty() || V.Atom.size() > 16)
    return false;
  uint64_t Acc = 0;
  for (char C : V.Atom) {
    unsigned D;
    if (C >= '0' && C <= '9')
      D = C - '0';
    else if (C >= 'a' && C <= 'f')
      D = C - 'a' + 10;
    else
      return false;
    Acc = (Acc << 4) | D;
  }
  Out = Acc;
  return true;
}

bool parseRecordNode(const SNode &N, Record &R, std::string &Err,
                     const std::unordered_map<uint64_t, Expr> &Defs) {
  if (N.IsAtom || N.Kids.empty() || !N.Kids[0].IsAtom) {
    Err = "record is not a list";
    return false;
  }
  const std::string &Head = N.Kids[0].Atom;
  if (Head == "cached")
    R.RecKind = Record::Kind::Cached;
  else if (Head == "query")
    R.RecKind = Record::Kind::Query;
  else {
    Err = "unknown record head '" + Head + "'";
    return false;
  }

  std::size_t I = 1;
  std::string Key;
  const SNode *Val;
  while (I < N.Kids.size() && keyAtom(N, I, Key, Val)) {
    uint64_t U;
    if (Key == ":ob" && Val->IsAtom) {
      R.Obligation = Val->Atom;
    } else if (Key == ":side" && Val->IsAtom && Val->Atom.size() == 1) {
      R.Side = Val->Atom[0];
    } else if (Key == ":idx" && parseU64Atom(*Val, U)) {
      R.QueryIdx = (uint32_t)U;
    } else if (Key == ":pc" && parseU64Atom(*Val, U)) {
      R.PcSize = (uint32_t)U;
    } else if (Key == ":cached" && Val->IsAtom) {
      R.CacheHit = Val->Atom == "t";
    } else if (Key == ":verdict" && Val->IsAtom) {
      if (R.RecKind == Record::Kind::Cached) {
        R.CachedOk = Val->Atom == "ok";
      } else if (Val->Atom == "sat") {
        R.Verdict = 0;
      } else if (Val->Atom == "unsat") {
        R.Verdict = 1;
      } else {
        R.Verdict = 2;
      }
    } else if (Key == ":ns" && parseU64Atom(*Val, U)) {
      R.DurationNs = U;
    } else if (Key == ":branches" && parseU64Atom(*Val, U)) {
      R.Branches = U;
    } else if (Key == ":theory" && parseU64Atom(*Val, U)) {
      R.TheoryChecks = U;
    } else if (Key == ":budget" && parseU64Atom(*Val, U)) {
      R.MaxBranches = (uint32_t)U;
    } else if (Key == ":fp" && parseHexAtom(*Val, U)) {
      R.Fp = U;
    } else if (Key == ":fp2" && parseHexAtom(*Val, U)) {
      R.Fp2 = U;
    } else {
      Err = "malformed field '" + Key + "'";
      return false;
    }
  }
  // Remaining kids must be (assert @N) clauses.
  for (; I < N.Kids.size(); ++I) {
    const SNode &A = N.Kids[I];
    if (A.IsAtom || A.Kids.size() != 2 || !A.Kids[0].IsAtom ||
        A.Kids[0].Atom != "assert" || !A.Kids[1].IsAtom ||
        A.Kids[1].Quoted || A.Kids[1].Atom.empty() ||
        A.Kids[1].Atom[0] != '@') {
      Err = "expected (assert @N) clause";
      return false;
    }
    SNode Index = A.Kids[1];
    Index.Atom.erase(0, 1);
    uint64_t U;
    auto It = parseU64Atom(Index, U) ? Defs.find(U) : Defs.end();
    if (It == Defs.end()) {
      Err = "undefined assertion '" + A.Kids[1].Atom + "'";
      return false;
    }
    R.Assertions.push_back(It->second);
  }
  return true;
}

/// Parses a (def N E) line into \p Defs.
bool parseDefNode(const SNode &N, std::unordered_map<uint64_t, Expr> &Defs,
                  std::string &Err) {
  uint64_t Id;
  if (N.Kids.size() != 3 || !parseU64Atom(N.Kids[1], Id)) {
    Err = "malformed (def N E) line";
    return false;
  }
  Expr E = exprFromSNode(N.Kids[2], Err);
  if (!E)
    return false;
  Defs[Id] = std::move(E);
  return true;
}

} // namespace

Expr journal::exprFromJournal(const std::string &Text, std::string *Err) {
  SParser P(Text);
  SNode N;
  std::string Local;
  if (!P.parse(N)) {
    if (Err)
      *Err = P.Err;
    return nullptr;
  }
  if (!P.atEnd()) {
    if (Err)
      *Err = "trailing input after expression";
    return nullptr;
  }
  Expr E = exprFromSNode(N, Local);
  if (!E && Err)
    *Err = Local;
  return E;
}

ParsedJournal journal::parseJournal(const std::string &Text) {
  ParsedJournal Out;
  std::istringstream In(Text);
  std::string Line;
  std::size_t LineNo = 0;
  bool SawHeader = false;
  std::unordered_map<uint64_t, Expr> Defs;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    if (Line.empty())
      continue;
    if (!SawHeader) {
      SawHeader = true;
      if (Line != journalMagic()) {
        Out.HeaderError = "line 1: expected journal magic '" +
                          std::string(journalMagic()) + "', got '" + Line +
                          "'";
        Out.Errors.push_back(Out.HeaderError);
        return Out;
      }
      Out.HeaderOk = true;
      continue;
    }
    SParser P(Line);
    SNode N;
    if (!P.parse(N) || !P.atEnd()) {
      Out.Errors.push_back("line " + std::to_string(LineNo) + ": " +
                           (P.Err.empty() ? "trailing garbage" : P.Err));
      continue;
    }
    Record R;
    std::string Err;
    bool IsDef = !N.IsAtom && !N.Kids.empty() && N.Kids[0].IsAtom &&
                 !N.Kids[0].Quoted && N.Kids[0].Atom == "def";
    if (IsDef ? !parseDefNode(N, Defs, Err)
              : !parseRecordNode(N, R, Err, Defs)) {
      Out.Errors.push_back("line " + std::to_string(LineNo) + ": " + Err);
      continue;
    }
    if (!IsDef)
      Out.Records.push_back(std::move(R));
  }
  if (!SawHeader) {
    Out.HeaderError = "empty journal (missing magic line)";
    Out.Errors.push_back(Out.HeaderError);
  }
  return Out;
}
