//===- incr/DepGraph.cpp ----------------------------------------------------------===//

#include "incr/DepGraph.h"

using namespace gilr;
using namespace gilr::incr;

void DepGraph::record(const ObligationId &Ob, std::set<DepKey> Deps) {
  Fwd[Ob] = std::move(Deps);
}

const std::set<DepKey> *DepGraph::depsOf(const ObligationId &Ob) const {
  auto It = Fwd.find(Ob);
  return It == Fwd.end() ? nullptr : &It->second;
}
