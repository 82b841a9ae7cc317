#ifndef PPR_APPROX_HUBPPR_H_
#define PPR_APPROX_HUBPPR_H_

#include <unordered_map>
#include <vector>

#include "approx/bippr.h"
#include "core/workspace.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace ppr {

/// HubPPR (Wang et al., VLDB'16), reimplemented at its core idea for the
/// related-work roster (§7): accelerate bidirectional single-pair
/// queries by *precomputing the backward oracle for hub targets*. Hubs
/// are the nodes most likely to be queried / most expensive to push
/// backward — we select the top-H by global PageRank, matching the
/// original's aggregated-benefit heuristic.
///
/// A query (s, t) runs BiPPR's forward-walk phase against either the
/// precomputed backward state (t is a hub: zero backward cost) or a
/// fresh BackwardPush (t is not). Estimates are identical in
/// distribution either way; only the cost moves from query time to
/// preprocessing.
///
/// Same preconditions as BackwardPush: in-adjacency built, no dead ends.
class HubPprIndex {
 public:
  struct Options {
    double alpha = 0.2;
    /// Number of hub targets to precompute; 0 selects ceil(n/64).
    NodeId num_hubs = 0;
    /// Backward residue threshold used both at preprocessing and at
    /// query time; 0 selects BiPPR's balanced default per query.
    double rmax = 1e-5;
  };

  /// Preprocesses the hub oracles. The graph must outlive the index.
  static HubPprIndex Build(const Graph& graph, const Options& options);

  /// Single-pair estimate of π(source, target).
  BiPprResult Query(NodeId source, NodeId target, double epsilon,
                    Rng& rng) const;

  /// The forward-phase walk budget of one Query at `epsilon` on an
  /// n-node graph (BiPprWalkBudget at rmax and δ = 1/n).
  static double WalkBudget(NodeId n, const Options& options, double epsilon);
  double WalkBudget(double epsilon) const {
    return WalkBudget(graph_->num_nodes(), options_, epsilon);
  }

  bool IsHub(NodeId v) const { return hub_states_.contains(v); }
  NodeId num_hubs() const { return static_cast<NodeId>(hub_states_.size()); }
  uint64_t IndexBytes() const;
  double build_seconds() const { return build_seconds_; }

 private:
  HubPprIndex() = default;

  const Graph* graph_ = nullptr;
  Options options_;
  /// hub target -> backward-push (reserve, residue) state.
  std::unordered_map<NodeId, PprEstimate> hub_states_;
  double build_seconds_ = 0.0;
};

}  // namespace ppr

#endif  // PPR_APPROX_HUBPPR_H_
