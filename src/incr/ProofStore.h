//===- incr/ProofStore.h - Proof-store record codecs ----------------------===//
///
/// \file
/// The blob format of the proof store, the content-addressed directory of
/// incr/CacheBackend.h: obligation records (the full serialized report, so
/// a cached run reproduces the cold run's report byte-for-byte, plus the
/// dependency fingerprints and clause signatures the verdict was produced
/// under) and the solver-entry block (the QueryCache contents of the
/// producing run, keyed by the stable query fingerprint, to pre-warm the
/// sched shards). Every decoder is bounds-checked and returns false on
/// malformed input, which the session treats as a miss.
///
//===----------------------------------------------------------------------===//

#ifndef GILR_INCR_PROOFSTORE_H
#define GILR_INCR_PROOFSTORE_H

#include "analysis/Analysis.h"
#include "creusot/SafeVerifier.h"
#include "engine/Verifier.h"
#include "incr/DepGraph.h"
#include "incr/SpecDiff.h"
#include "solver/Solver.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gilr {
namespace incr {

/// One recorded dependency: the entity and the fingerprint it had when the
/// proof ran, plus its clause-level signature so a later session can diff
/// the edit and attempt salvage (incr/SpecDiff.h).
struct StoredDep {
  deps::Kind K = deps::Kind::Function;
  std::string Name;
  uint64_t Fp = 0;
  /// Whether \c Sig below was recorded. False for entity kinds without
  /// clause structure (RMIR functions), which fall back to plain
  /// fingerprint equality.
  bool HasSig = false;
  EntitySig Sig;
};

/// One cached obligation verdict.
struct StoredObligation {
  Side S = Side::Unsafe;
  std::string Name;
  /// Fingerprint of the obligation's own entity (the RMIR function for the
  /// unsafe side, the SafeFn body for the safe side).
  uint64_t SelfFp = 0;
  /// Fingerprint of the verification configuration (automation knobs +
  /// solver budget) the verdict was produced under.
  uint64_t ConfigFp = 0;
  /// Everything the proof consulted, with its then-current fingerprint.
  std::vector<StoredDep> Deps;
  /// The serialized report (encode/decode helpers below).
  std::string Blob;
};

/// Report serialization. Every field round-trips (timing included, stored
/// as raw IEEE-754 bits), so a warm run's report is byte-identical to the
/// cold run that produced it, modulo the \c Cached marker the session sets
/// on hits. Decoders are bounds-checked and return false on malformed
/// blobs, which the session treats as a miss.
std::string encodeVerifyReport(const engine::VerifyReport &R);
bool decodeVerifyReport(const std::string &Blob, engine::VerifyReport &Out);
std::string encodeSafeReport(const creusot::SafeReport &R);
bool decodeSafeReport(const std::string &Blob, creusot::SafeReport &Out);

/// Lint-verdict blobs (Side::Lint records): the per-entity diagnostics of
/// the pre-verification analysis, cached the way proof verdicts are.
std::string encodeLintVerdict(const analysis::EntityVerdict &V);
bool decodeLintVerdict(const std::string &Blob, analysis::EntityVerdict &Out);

/// Whole-record codec: the payload of one obligation record file in the
/// store directory.
std::string encodeObligationRecord(const StoredObligation &Ob);
bool decodeObligationRecord(const std::string &Payload, StoredObligation &Out);

/// Solver-entry block codec. The encoder sorts the entries by (Fp, Fp2),
/// so the same entries in any shard order give the same bytes and an
/// unchanged block is never rewritten.
std::string encodeSolverBlock(std::vector<SavedQueryVerdict> Entries);
bool decodeSolverBlock(const std::string &Payload,
                       std::vector<SavedQueryVerdict> &Out);

} // namespace incr
} // namespace gilr

#endif // GILR_INCR_PROOFSTORE_H
