//===- bench/bench_intern.cpp - Hash-consing layer counters -----------------===//
//
// Harness for the interning layer (sym/Intern.h): runs a shared-subterm-
// heavy workload — deep SeqConcat/Ite chains rebuilt from scratch every
// repetition, duplicate-laden path conditions, repeated entailments — and
// writes BENCH_intern.json (wall time, interned node count, intern and
// simplify-memo hit rates). No google-benchmark dependency: the counters
// are deltas over one measured run after one warm-up, in a fixed order
// inside one process, which gbench fixtures do not guarantee.
//
//===----------------------------------------------------------------------===//

#include "solver/PathCondition.h"
#include "solver/Simplify.h"
#include "solver/Solver.h"
#include "sym/ExprBuilder.h"
#include "sym/Intern.h"

#include <chrono>
#include <cstdio>
#include <string>

using namespace gilr;

namespace {

using Clock = std::chrono::steady_clock;

/// A deep Ite/SeqConcat chain in which the same subterms recur at every
/// layer — the shape produce/consume loops generate when re-materialising
/// list assertions. Each layer references the previous one *twice* (in both
/// Ite arms), so the chain is a linear-size DAG whose tree unfolding is
/// exponential: identity-blind traversals (un-memoized simplify) would pay
/// O(2^depth) while the interned path stays O(depth). \p Salt varies the
/// leaves so the workload is not one single term.
Expr buildChain(int Depth, int Salt) {
  Expr X = mkVar("ix" + std::to_string(Salt), Sort::Int);
  Expr Acc = mkSeqUnit(X);
  for (int I = 0; I != Depth; ++I) {
    Expr Grown = mkSeqConcat(Acc, mkSeqUnit(mkAdd(X, mkInt(I % 5))));
    Acc = mkIte(mkLe(X, mkInt(I)), Grown, mkSeqConcat(mkSeqUnit(X), Acc));
  }
  return Acc;
}

/// One workload unit: rebuild the chain, simplify a length obligation over
/// it, grow a path condition with a duplicate-heavy fact stream, and answer
/// an entailment. Every step fills the process-wide intern and memo tables,
/// so none of it can be optimised away.
void runWorkload(int Reps, int Depth) {
  Solver S;
  S.MaxBranches = 500;
  for (int R = 0; R != Reps; ++R) {
    Expr Chain = buildChain(Depth, R % 4);
    Expr Obligation =
        mkAnd(mkLe(mkInt(0), mkSeqLen(Chain)),
              mkLe(mkSeqLen(mkSeqSub(Chain, mkInt(0), mkInt(1))),
                   mkSeqLen(Chain)));
    simplify(Obligation);

    PathCondition PC;
    for (int I = 0; I != 64; ++I) {
      Expr Small = buildChain(Depth / 3, R % 4);
      // Half the stream repeats the same fact (dedup path), half is fresh.
      Expr Bound = mkInt(I % 2 == 0 ? 0 : -(I / 2));
      PC.add(mkLe(Bound, mkSeqLen(Small)));
    }
    PC.entails(S, mkLe(mkInt(0), mkSeqLen(buildChain(Depth / 3, R % 4))));
  }
}

} // namespace

int main(int Argc, char **Argv) {
  const std::string OutPath = Argc > 1 ? Argv[1] : "BENCH_intern.json";
  const int Reps = 24;
  const int Depth = 16;

  // Warm up once so the measured run pays no first-touch costs.
  runWorkload(2, Depth);

  InternStats I0 = internStats();
  SimplifyStats M0 = simplifyMemoStats();
  auto T0 = Clock::now();
  runWorkload(Reps, Depth);
  double Ms =
      std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
  InternStats I1 = internStats();
  SimplifyStats M1 = simplifyMemoStats();

  uint64_t Lookups = (I1.Hits - I0.Hits) + (I1.Misses - I0.Misses);
  double InternHitRate =
      Lookups ? static_cast<double>(I1.Hits - I0.Hits) / Lookups : 0;
  uint64_t MemoLookups = (M1.Hits - M0.Hits) + (M1.Misses - M0.Misses);
  double MemoHitRate =
      MemoLookups ? static_cast<double>(M1.Hits - M0.Hits) / MemoLookups : 0;

  FILE *Out = std::fopen(OutPath.c_str(), "w");
  if (!Out) {
    std::perror("bench_intern: fopen");
    return 1;
  }
  std::fprintf(Out, "{\n");
  std::fprintf(Out,
               "  \"workload\": \"shared-subterm SeqConcat/Ite chains "
               "(depth %d, %d reps)\",\n",
               Depth, Reps);
  std::fprintf(Out, "  \"interned_ms\": %.3f,\n", Ms);
  std::fprintf(Out, "  \"interned_nodes\": %llu,\n",
               static_cast<unsigned long long>(I1.Nodes));
  std::fprintf(Out, "  \"intern_hit_rate\": %.4f,\n", InternHitRate);
  std::fprintf(Out, "  \"simplify_memo_hit_rate\": %.4f\n", MemoHitRate);
  std::fprintf(Out, "}\n");
  std::fclose(Out);

  std::printf("bench_intern: %.1f ms, %llu nodes, intern hit rate %.1f%%, "
              "simplify memo hit rate %.1f%%\n",
              Ms, static_cast<unsigned long long>(I1.Nodes),
              InternHitRate * 100, MemoHitRate * 100);
  return 0;
}
