//===- incr/DepGraph.h - Per-obligation proof dependencies -----------------===//
///
/// \file
/// Records, per proof obligation, the set of entities the proof *actually
/// consulted* (via the support/Deps.h hook instrumented in the tables and
/// verifiers), and maintains the reverse index so an edit to one entity
/// invalidates exactly its transitive dependents. Gillian's compositional,
/// per-procedure design makes each obligation's proof self-contained: the
/// dependencies recorded while verifying it are the *only* inputs that can
/// change its verdict (plus its own body/statement and the automation
/// configuration, tracked separately by incr::Session).
///
//===----------------------------------------------------------------------===//

#ifndef GILR_INCR_DEPGRAPH_H
#define GILR_INCR_DEPGRAPH_H

#include "support/Deps.h"

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

namespace gilr {
namespace incr {

/// Which side of the hybrid pipeline an obligation belongs to. Values are
/// part of the on-disk proof-store format: append only, never renumber.
enum class Side : uint8_t {
  Unsafe = 0, ///< Gillian-Rust side (engine::Verifier).
  Safe = 1,   ///< Creusot side (creusot::SafeVerifier).
  Lint = 2,   ///< Pre-verification analysis verdict (analysis::lintEntity).
};

/// One dependable entity, identified by namespace + name.
struct DepKey {
  deps::Kind K = deps::Kind::Function;
  std::string Name;

  bool operator<(const DepKey &O) const {
    return std::tie(K, Name) < std::tie(O.K, O.Name);
  }
  bool operator==(const DepKey &O) const {
    return K == O.K && Name == O.Name;
  }
};

/// One proof obligation: a function on one side of the pipeline.
struct ObligationId {
  Side S = Side::Unsafe;
  std::string Name;

  bool operator<(const ObligationId &O) const {
    return std::tie(S, Name) < std::tie(O.S, O.Name);
  }
  bool operator==(const ObligationId &O) const {
    return S == O.S && Name == O.Name;
  }
};

/// RAII dependency collector: installs itself as the calling thread's
/// deps::Sink for its lifetime and gathers every noted entity. One per
/// obligation, created by the scheduler's job lambda on the worker thread
/// that runs the proof.
class DepRecorder final : public deps::Sink {
public:
  DepRecorder() : Prev(deps::setSink(this)) {}
  ~DepRecorder() override { deps::setSink(Prev); }

  DepRecorder(const DepRecorder &) = delete;
  DepRecorder &operator=(const DepRecorder &) = delete;

  void note(deps::Kind K, const std::string &Name) override {
    Taken.insert(DepKey{K, Name});
  }

  const std::set<DepKey> &taken() const { return Taken; }

private:
  deps::Sink *Prev;
  std::set<DepKey> Taken;
};

/// The forward and reverse dependency index of one verification session.
/// Not thread-safe: incr::Session serialises access under its own lock.
class DepGraph {
public:
  /// Records (replacing) the dependency set of \p Ob.
  void record(const ObligationId &Ob, std::set<DepKey> Deps);

  /// The recorded dependencies of \p Ob, or nullptr.
  const std::set<DepKey> *depsOf(const ObligationId &Ob) const;

  /// Every obligation whose recorded proof consulted \p Key.
  std::vector<ObligationId> dependentsOf(const DepKey &Key) const;

  std::size_t size() const { return Fwd.size(); }

private:
  std::map<ObligationId, std::set<DepKey>> Fwd;
  std::map<DepKey, std::set<ObligationId>> Rev;
};

} // namespace incr
} // namespace gilr

#endif // GILR_INCR_DEPGRAPH_H
