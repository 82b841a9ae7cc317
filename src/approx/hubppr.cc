#include "approx/hubppr.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "approx/random_walk.h"
#include "core/backward_push.h"
#include "core/pagerank.h"
#include "util/timer.h"

namespace ppr {

namespace {

/// Forward phase shared with BiPPR: one α-walk accumulating α·residue at
/// every visited node (unbiased for Σ_v π(s,v)·residue(v); see
/// approx/bippr.cc).
double WalkContribution(const Graph& graph, NodeId source, double alpha,
                        const std::vector<double>& residue, Rng& rng) {
  double contribution = 0.0;
  NodeId current = source;
  for (;;) {
    contribution += alpha * residue[current];
    if (rng.NextBernoulli(alpha)) break;
    auto neighbors = graph.OutNeighbors(current);
    PPR_DCHECK(!neighbors.empty());
    current = neighbors[rng.NextBounded(neighbors.size())];
  }
  return contribution;
}

}  // namespace

HubPprIndex HubPprIndex::Build(const Graph& graph, const Options& options) {
  PPR_CHECK(graph.has_in_adjacency())
      << "HubPPR needs the transpose; call Graph::BuildInAdjacency first";
  PPR_CHECK(options.rmax > 0.0);
  Timer timer;
  HubPprIndex index;
  index.graph_ = &graph;
  index.options_ = options;

  const NodeId hubs = options.num_hubs > 0
                          ? options.num_hubs
                          : std::max<NodeId>(1, (graph.num_nodes() + 63) / 64);

  // Hub selection: global PageRank ranks nodes by how much total PPR
  // mass points at them — the natural proxy for backward-push cost and
  // query popularity.
  PageRankOptions pr;
  pr.alpha = options.alpha;
  std::vector<double> rank = PageRank(graph, pr);
  std::vector<NodeId> by_rank(graph.num_nodes());
  std::iota(by_rank.begin(), by_rank.end(), 0);
  const NodeId take = std::min<NodeId>(hubs, graph.num_nodes());
  std::partial_sort(by_rank.begin(), by_rank.begin() + take, by_rank.end(),
                    [&](NodeId a, NodeId b) { return rank[a] > rank[b]; });
  by_rank.resize(take);
  for (NodeId t : by_rank) {
    BackwardPushOptions backward;
    backward.alpha = options.alpha;
    backward.rmax = options.rmax;
    PprEstimate state;
    BackwardPush(graph, t, backward, &state);
    index.hub_states_.emplace(t, std::move(state));
  }
  index.build_seconds_ = timer.ElapsedSeconds();
  return index;
}

BiPprResult HubPprIndex::Query(NodeId source, NodeId target, double epsilon,
                               Rng& rng) const {
  PPR_CHECK(source < graph_->num_nodes() && target < graph_->num_nodes());
  Timer timer;

  const PprEstimate* state = nullptr;
  PprEstimate fresh;
  BiPprResult result;
  auto it = hub_states_.find(target);
  if (it != hub_states_.end()) {
    state = &it->second;  // backward phase paid at preprocessing time
  } else {
    BackwardPushOptions backward;
    backward.alpha = options_.alpha;
    backward.rmax = options_.rmax;
    SolveStats stats = BackwardPush(*graph_, target, backward, &fresh);
    result.backward_pushes = stats.push_operations;
    state = &fresh;
  }

  const uint64_t walks =
      std::max<uint64_t>(WalkCount(WalkBudget(epsilon)), 16);

  double total = 0.0;
  for (uint64_t i = 0; i < walks; ++i) {
    total += WalkContribution(*graph_, source, options_.alpha,
                              state->residue, rng);
  }
  result.estimate =
      state->reserve[source] + total / static_cast<double>(walks);
  result.walks = walks;
  result.seconds = timer.ElapsedSeconds();
  return result;
}

double HubPprIndex::WalkBudget(NodeId n, const Options& options,
                               double epsilon) {
  return BiPprWalkBudget(n, options.rmax, epsilon,
                         1.0 / static_cast<double>(n));
}

uint64_t HubPprIndex::IndexBytes() const {
  uint64_t bytes = 0;
  for (const auto& [node, state] : hub_states_) {
    bytes += sizeof(node);
    bytes += (state.reserve.size() + state.residue.size()) * sizeof(double);
  }
  return bytes;
}

}  // namespace ppr
