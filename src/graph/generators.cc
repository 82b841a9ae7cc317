#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "graph/graph_builder.h"

namespace ppr {

namespace {

/// Walker's alias method: O(n) build, O(1) sampling from a discrete
/// distribution. Used by the weight-driven generators.
class AliasTable {
 public:
  explicit AliasTable(const std::vector<double>& weights) {
    const size_t n = weights.size();
    PPR_CHECK(n > 0);
    prob_.resize(n);
    alias_.resize(n);
    double total = std::accumulate(weights.begin(), weights.end(), 0.0);
    PPR_CHECK(total > 0.0);

    std::vector<double> scaled(n);
    for (size_t i = 0; i < n; ++i) {
      scaled[i] = weights[i] * static_cast<double>(n) / total;
    }
    std::vector<uint32_t> small;
    std::vector<uint32_t> large;
    for (size_t i = 0; i < n; ++i) {
      (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
    }
    while (!small.empty() && !large.empty()) {
      uint32_t s = small.back();
      small.pop_back();
      uint32_t l = large.back();
      large.pop_back();
      prob_[s] = scaled[s];
      alias_[s] = l;
      scaled[l] = (scaled[l] + scaled[s]) - 1.0;
      (scaled[l] < 1.0 ? small : large).push_back(l);
    }
    for (uint32_t i : large) prob_[i] = 1.0;
    for (uint32_t i : small) prob_[i] = 1.0;  // FP residue: accept directly
  }

  uint32_t Sample(Rng& rng) const {
    uint32_t column = static_cast<uint32_t>(rng.NextBounded(prob_.size()));
    return rng.NextDouble() < prob_[column] ? column : alias_[column];
  }

 private:
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
};

/// Power-law weights w_i = (i + i0)^(-1/(exponent-1)), the standard
/// Chung–Lu recipe for tail exponent `exponent`.
std::vector<double> PowerLawWeights(NodeId n, double exponent) {
  PPR_CHECK(exponent > 2.0) << "Chung-Lu needs tail exponent > 2";
  const double gamma = 1.0 / (exponent - 1.0);
  const double i0 = 10.0;  // damps the largest hub to keep w_max manageable
  std::vector<double> weights(n);
  for (NodeId i = 0; i < n; ++i) {
    weights[i] = std::pow(static_cast<double>(i) + i0, -gamma);
  }
  return weights;
}

}  // namespace

Graph PaperExampleGraph() {
  GraphBuilder builder;
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 2);
  builder.AddEdge(1, 0);
  builder.AddEdge(1, 2);
  builder.AddEdge(1, 3);
  builder.AddEdge(1, 4);
  builder.AddEdge(2, 1);
  builder.AddEdge(2, 3);
  builder.AddEdge(3, 0);
  builder.AddEdge(3, 1);
  builder.AddEdge(3, 2);
  builder.AddEdge(4, 1);
  builder.AddEdge(4, 2);
  return builder.Build();
}

Graph PathGraph(NodeId n) {
  PPR_CHECK(n >= 2);
  GraphBuilder builder;
  for (NodeId v = 0; v + 1 < n; ++v) builder.AddEdge(v, v + 1);
  BuildOptions options;
  options.remove_isolated = false;  // keep the terminal dead end
  return builder.Build(options);
}

Graph CycleGraph(NodeId n) {
  PPR_CHECK(n >= 2);
  GraphBuilder builder;
  for (NodeId v = 0; v < n; ++v) builder.AddEdge(v, (v + 1) % n);
  return builder.Build();
}

Graph StarGraph(NodeId n) {
  PPR_CHECK(n >= 2);
  GraphBuilder builder;
  for (NodeId v = 1; v < n; ++v) builder.AddEdge(0, v);
  BuildOptions options;
  options.symmetrize = true;
  return builder.Build(options);
}

Graph CompleteGraph(NodeId n) {
  PPR_CHECK(n >= 2);
  GraphBuilder builder;
  builder.Reserve(static_cast<size_t>(n) * (n - 1));
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u != v) builder.AddEdge(u, v);
    }
  }
  return builder.Build();
}

Graph GridGraph(NodeId rows, NodeId cols) {
  PPR_CHECK(rows >= 1 && cols >= 1 && rows * cols >= 2);
  GraphBuilder builder;
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) builder.AddEdge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) builder.AddEdge(id(r, c), id(r + 1, c));
    }
  }
  BuildOptions options;
  options.symmetrize = true;
  return builder.Build(options);
}

Graph ErdosRenyi(NodeId n, double avg_out_degree, Rng& rng) {
  PPR_CHECK(n >= 2 && avg_out_degree > 0);
  const EdgeId target =
      static_cast<EdgeId>(std::llround(avg_out_degree * n));
  GraphBuilder builder;
  builder.Reserve(target + target / 16);
  // Sample with rejection of loops; duplicates are removed by the builder,
  // so oversample slightly.
  EdgeId to_draw = target + target / 32 + 8;
  for (EdgeId i = 0; i < to_draw; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    if (u == v) continue;
    builder.AddEdge(u, v);
  }
  BuildOptions options;
  options.remove_isolated = false;
  return builder.Build(options);
}

Graph BarabasiAlbert(NodeId n, NodeId edges_per_node, Rng& rng) {
  PPR_CHECK(edges_per_node >= 1);
  PPR_CHECK(n > edges_per_node);
  // Repeated-endpoints list: sampling a uniform element of `endpoints`
  // realizes preferential attachment.
  std::vector<NodeId> endpoints;
  endpoints.reserve(static_cast<size_t>(n) * edges_per_node * 2);
  GraphBuilder builder;

  // Seed clique over the first edges_per_node+1 nodes.
  for (NodeId u = 0; u <= edges_per_node; ++u) {
    for (NodeId v = u + 1; v <= edges_per_node; ++v) {
      builder.AddEdge(u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  for (NodeId v = edges_per_node + 1; v < n; ++v) {
    for (NodeId k = 0; k < edges_per_node; ++k) {
      NodeId target = endpoints[rng.NextBounded(endpoints.size())];
      if (target == v) {
        --k;
        continue;
      }
      builder.AddEdge(v, target);
      endpoints.push_back(v);
      endpoints.push_back(target);
    }
  }
  BuildOptions options;
  options.symmetrize = true;
  return builder.Build(options);
}

Graph ChungLuPowerLaw(NodeId n, double avg_degree, double exponent, Rng& rng,
                      bool symmetrize) {
  PPR_CHECK(n >= 2 && avg_degree > 0);
  EdgeId target = static_cast<EdgeId>(std::llround(avg_degree * n));
  if (symmetrize) target /= 2;
  GraphBuilder builder;
  builder.Reserve(target + target / 16);
  {
    // The sampling state is released before the build, which then has
    // the memory to itself.
    std::vector<double> weights = PowerLawWeights(n, exponent);

    // Independent hub assignments for the two endpoints.
    std::vector<NodeId> out_perm(n);
    std::vector<NodeId> in_perm(n);
    std::iota(out_perm.begin(), out_perm.end(), 0);
    std::iota(in_perm.begin(), in_perm.end(), 0);
    std::shuffle(out_perm.begin(), out_perm.end(), rng);
    std::shuffle(in_perm.begin(), in_perm.end(), rng);

    AliasTable table(weights);
    EdgeId to_draw = target + target / 24 + 8;  // headroom for dedup losses
    for (EdgeId i = 0; i < to_draw; ++i) {
      NodeId u = out_perm[table.Sample(rng)];
      NodeId v = in_perm[table.Sample(rng)];
      if (u == v) continue;
      builder.AddEdge(u, v);
    }
  }
  BuildOptions options;
  options.symmetrize = symmetrize;
  return builder.Build(options);
}

Graph CopyModelWeb(NodeId n, NodeId out_degree, double copy_prob, Rng& rng) {
  PPR_CHECK(n > out_degree && out_degree >= 1);
  PPR_CHECK(copy_prob >= 0.0 && copy_prob <= 1.0);
  // adjacency[v][k]: the k-th out-edge of v, filled in arrival order.
  std::vector<std::vector<NodeId>> adjacency(n);
  GraphBuilder builder;

  // Bootstrap: a directed cycle over the first out_degree+1 nodes keeps
  // early prototypes non-degenerate.
  const NodeId boot = out_degree + 1;
  for (NodeId v = 0; v < boot; ++v) {
    for (NodeId k = 1; k <= out_degree; ++k) {
      NodeId t = (v + k) % boot;
      adjacency[v].push_back(t);
      builder.AddEdge(v, t);
    }
  }
  for (NodeId v = boot; v < n; ++v) {
    NodeId prototype = static_cast<NodeId>(rng.NextBounded(v));
    for (NodeId k = 0; k < out_degree; ++k) {
      NodeId t;
      if (rng.NextBernoulli(copy_prob) && k < adjacency[prototype].size()) {
        t = adjacency[prototype][k];
      } else {
        t = static_cast<NodeId>(rng.NextBounded(v));
      }
      if (t == v) t = prototype;
      adjacency[v].push_back(t);
      builder.AddEdge(v, t);
    }
  }
  BuildOptions options;
  options.remove_isolated = false;
  return builder.Build(options);
}

}  // namespace ppr
