//===- incr/Fingerprint.h - Stable structural fingerprints -----------------===//
///
/// \file
/// Merkle-style structural fingerprints over the entities a proof can
/// depend on: RMIR function bodies, Gilsonite specs and predicate
/// declarations, registered lemmas, Pearlite contracts and safe client
/// functions. The incremental proof store (incr/ProofStore.h) keys cached
/// verdicts by these, so they must be *process-stable*: a fingerprint is a
/// pure function of the entity's structure, never of process-local intern
/// ids (sym's dense Id / CanonId / NameSym are assigned in interning order,
/// which is racy under the parallel scheduler — see docs/INCREMENTAL.md for
/// the stability argument). Expressions are hashed with sym's
/// \c exprStableHash, which is canonical under the same commutative-operand
/// ordering the builders (and therefore \c satQueryFingerprint) use.
///
/// Fingerprints are deliberately *conservative*: they cover every field of
/// an entity, including documentation strings — an edit that could not
/// change a verdict may still invalidate. That is always sound; only a
/// changed entity mapping to its old fingerprint would be unsound.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_INCR_FINGERPRINT_H
#define GILR_INCR_FINGERPRINT_H

#include "analysis/Diagnostic.h"
#include "creusot/SafeVerifier.h"
#include "creusot/StdSpecs.h"
#include "engine/Lemma.h"
#include "engine/SymState.h"
#include "gilsonite/PredDecl.h"
#include "gilsonite/Spec.h"
#include "rmir/Program.h"

#include <cstdint>
#include <variant>

namespace gilr {
namespace incr {

/// Incrementally absorbs typed values into a 64-bit stable hash. The value
/// stream is fixed-width and length-prefixed where needed, so distinct
/// structures cannot collide by concatenation.
class Hasher {
public:
  void u8(uint8_t V) { word(V); }
  void u32(uint32_t V) { word(V); }
  void u64(uint64_t V) { word(V); }
  void boolean(bool B) { word(B ? 1 : 2); }
  void i128(__int128 V) {
    word(static_cast<uint64_t>(V));
    word(static_cast<uint64_t>(V >> 64));
  }
  void str(const std::string &S);
  void expr(const Expr &E);
  void size(std::size_t N) { word(static_cast<uint64_t>(N)); }

  /// The accumulated fingerprint; never 0.
  uint64_t result() const { return H ? H : 1; }

private:
  void word(uint64_t V);
  uint64_t H = 0xcbf29ce484222325ull;
};

// Entity fingerprints. Each covers every structural field of its entity.
uint64_t fpType(rmir::TypeRef Ty);
uint64_t fpFunction(const rmir::Function &F);
uint64_t fpAssertion(const gilsonite::AssertionP &A);
uint64_t fpSpec(const gilsonite::Spec &S);
uint64_t fpPred(const gilsonite::PredDecl &P);
uint64_t fpLemma(const engine::FreezeLemma &L);
uint64_t fpLemma(const engine::ExtractLemma &L);
uint64_t
fpLemma(const std::variant<engine::FreezeLemma, engine::ExtractLemma> &L);
uint64_t fpPTerm(const creusot::PTermP &T);
uint64_t fpContract(const creusot::PearliteSpec &S);
uint64_t fpSafeFn(const creusot::SafeFn &F);

/// Fingerprint of the verification configuration an obligation ran under:
/// the automation knobs and the solver branch budget. Scheduling knobs
/// (thread count, cache capacity, job budgets) are deliberately excluded —
/// they cannot change a definite verdict (the determinism contract of
/// docs/SCHEDULER.md), so serial and parallel runs share cache entries.
uint64_t fpAutomation(const engine::Automation &A, unsigned MaxBranches);

/// Fingerprint of the pre-verification analysis configuration: the lint
/// knobs plus the solver branch budget (spec-vacuity verdicts depend on
/// it). Cached lint verdicts are keyed by this the way proof verdicts are
/// keyed by \c fpAutomation.
uint64_t fpAnalysisConfig(const analysis::AnalysisConfig &C,
                          unsigned MaxBranches);

} // namespace incr
} // namespace gilr

#endif // GILR_INCR_FINGERPRINT_H
