#include "core/multi_source.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "util/logging.h"
#include "util/timer.h"

namespace ppr {

uint64_t MultiSourceFusedSolve(const Graph& graph,
                           std::span<const NodeId> sources,
                           std::span<const double> alpha,
                           std::span<const double> threshold,
                           std::span<const size_t> top_k,
                           std::span<const CancelToken* const> cancels,
                           const MultiSourceOptions& options,
                           std::vector<double>& reserve,
                           std::vector<double>& residue,
                           std::vector<double>& next,
                           const MultiSourceOutputs& out) {
  const NodeId n = graph.num_nodes();
  const size_t B = sources.size();
  PPR_CHECK(alpha.size() == B && threshold.size() == B);
  PPR_CHECK(out.scores.size() == B && out.stats.size() == B);
  PPR_CHECK(out.residues.empty() || out.residues.size() == B);
  PPR_CHECK(out.early_retired.empty() || out.early_retired.size() == B);
  PPR_CHECK(top_k.empty() || top_k.size() == B);
  PPR_CHECK(cancels.empty() || cancels.size() == B);
  const size_t words = static_cast<size_t>(n) * B;
  PPR_CHECK(words <= std::numeric_limits<NodeId>::max());
  PPR_CHECK(reserve.size() == words && residue.size() == words);
  if (B == 0 || n == 0) return 0;
  for (size_t b = 0; b < B; ++b) {
    PPR_CHECK(sources[b] < n);
    PPR_CHECK(threshold[b] > 0.0);
    PPR_CHECK(alpha[b] > 0.0 && alpha[b] < 1.0);
  }

  PPR_CHECK(next.size() == words);
  const bool push_mode = options.push_mode;
  Timer timer;

  // Seed e_{source_b} into every column.
  for (size_t b = 0; b < B; ++b) {
    residue[static_cast<size_t>(sources[b]) * B + b] = 1.0;
  }

  std::vector<double> rsum(B, 1.0);
  std::vector<double> sweep_rsum(B, 0.0);
  std::vector<uint64_t> sweep_pushes(B, 0);
  std::vector<double> gap_scratch;

  auto export_column = [&](uint32_t b, bool early) {
    double* scores = out.scores[b];
    for (NodeId v = 0; v < n; ++v) {
      scores[v] = reserve[static_cast<size_t>(v) * B + b];
    }
    if (!out.residues.empty() && out.residues[b] != nullptr) {
      double* residues = out.residues[b];
      for (NodeId v = 0; v < n; ++v) {
        residues[v] = residue[static_cast<size_t>(v) * B + b];
      }
    }
    out.stats[b].final_rsum = rsum[b];
    out.stats[b].seconds = timer.ElapsedSeconds();
    if (!out.early_retired.empty()) out.early_retired[b] = early ? 1 : 0;
  };

  // A source whose k-th / (k+1)-th reserve gap exceeds its unsettled
  // residue mass cannot have its top-k set changed by further pushes
  // (each score can only grow by at most rsum_b).
  auto topk_separated = [&](uint32_t b, size_t k, double slack) {
    if (k >= n) return false;  // the whole vector is the top-k
    gap_scratch.resize(n);
    for (NodeId v = 0; v < n; ++v) {
      gap_scratch[v] = reserve[static_cast<size_t>(v) * B + b];
    }
    std::nth_element(gap_scratch.begin(),
                     gap_scratch.begin() + static_cast<ptrdiff_t>(k - 1),
                     gap_scratch.end(), std::greater<double>());
    const double kth = gap_scratch[k - 1];
    const double runner_up = *std::max_element(
        gap_scratch.begin() + static_cast<ptrdiff_t>(k), gap_scratch.end());
    return kth - runner_up > slack;
  };

  // The serial per-source loops enter on `rsum > λ` (power) or
  // unconditionally for the first scan (push); sources that never
  // enter export their seed state untouched.
  std::vector<uint32_t> active;
  active.reserve(B);
  for (size_t b = 0; b < B; ++b) {
    const bool enter =
        options.max_iterations > 0 && (push_mode || rsum[b] > threshold[b]);
    if (enter) {
      active.push_back(static_cast<uint32_t>(b));
    } else {
      export_column(static_cast<uint32_t>(b), false);
    }
  }

  const size_t deg_b = B;  // column stride, hoisted for the hot loops

  auto sweep = [&]() {
    for (NodeId v = 0; v < n; ++v) {
      const size_t row = static_cast<size_t>(v) * deg_b;
      const NodeId d = graph.OutDegree(v);
      const double deff = static_cast<double>(d == 0 ? 1 : d);
      for (uint32_t b : active) {
        const double r = residue[row + b];
        if (r == 0.0) continue;
        if (push_mode && !(r > deff * threshold[b])) {
          next[row + b] += r;  // below-threshold mass carries unchanged
          sweep_rsum[b] += r;
          continue;
        }
        reserve[row + b] += alpha[b] * r;
        const double push = (1.0 - alpha[b]) * r;
        if (d == 0) {
          next[static_cast<size_t>(sources[b]) * deg_b + b] += push;
          out.stats[b].edge_pushes += 1;
        } else {
          const double inc = push / static_cast<double>(d);
          for (NodeId u : graph.OutNeighbors(v)) {
            next[static_cast<size_t>(u) * deg_b + b] += inc;
          }
          out.stats[b].edge_pushes += d;
        }
        sweep_rsum[b] += push;
        out.stats[b].push_operations++;
        sweep_pushes[b]++;
      }
    }
  };

  uint64_t sweeps = 0;
  while (!active.empty()) {
    if (options.block_cancel != nullptr && options.block_cancel->ShouldStop()) {
      break;
    }
    if (!cancels.empty()) {
      size_t kept = 0;
      for (uint32_t b : active) {
        if (cancels[b] != nullptr && cancels[b]->ShouldStop()) {
          export_column(b, false);
        } else {
          active[kept++] = b;
        }
      }
      active.resize(kept);
      if (active.empty()) break;
    }

    for (uint32_t b : active) {
      sweep_rsum[b] = 0.0;
      sweep_pushes[b] = 0;
    }
    sweeps++;
    sweep();
    residue.swap(next);
    std::fill(next.begin(), next.end(), 0.0);
    for (uint32_t b : active) {
      rsum[b] = sweep_rsum[b];
      out.stats[b].iterations++;
    }

    size_t kept = 0;
    for (uint32_t b : active) {
      const bool exhausted = out.stats[b].iterations >= options.max_iterations;
      const bool converged =
          push_mode ? sweep_pushes[b] == 0 : !(rsum[b] > threshold[b]);
      if (converged || exhausted) {
        export_column(b, false);
        continue;
      }
      if (options.topk_early && !top_k.empty() && top_k[b] > 0 &&
          topk_separated(b, top_k[b], rsum[b])) {
        export_column(b, true);
        continue;
      }
      active[kept++] = b;
    }
    active.resize(kept);
  }

  // A block-level cancel leaves sources mid-flight; export their
  // partial state so callers observing the token still get columns.
  for (uint32_t b : active) export_column(b, false);
  return sweeps;
}

}  // namespace ppr
