#include "api/batch_solver.h"

#include <limits>
#include <string>
#include <utility>

#include "eval/metrics.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/rng.h"

namespace ppr {

Status BatchSolver::SolveMany(std::span<const PprQuery> queries,
                              SolverContext& context,
                              std::vector<PprResult>* results,
                              std::vector<Status>* statuses,
                              std::span<const uint64_t> seeds,
                              std::span<const CancelToken* const> cancels) {
  PPR_CHECK(results != nullptr);
  const size_t count = queries.size();
  results->assign(count, PprResult{});
  std::vector<Status> local(count, Status::OK());

  auto finish = [&]() {
    Status first;
    for (const Status& s : local) {
      if (!s.ok()) {
        first = s;
        break;
      }
    }
    if (statuses != nullptr) *statuses = std::move(local);
    return first;
  };
  auto fail_all = [&](const Status& status) {
    for (Status& s : local) s = status;
  };

  if (graph_ == nullptr) {
    fail_all(Status::FailedPrecondition(
        "SolveMany() before a successful Prepare()"));
    return finish();
  }
  if (!seeds.empty() && seeds.size() != count) {
    fail_all(Status::InvalidArgument("seeds span must match queries"));
    return finish();
  }
  if (!cancels.empty() && cancels.size() != count) {
    fail_all(Status::InvalidArgument("cancels span must match queries"));
    return finish();
  }
  const size_t fuse = max_fused_ > 0 ? max_fused_ : 1;
  // The fused kernels index the flat n·B block through NodeId.
  if (static_cast<size_t>(graph_->num_nodes()) * fuse >
      std::numeric_limits<NodeId>::max()) {
    fail_all(Status::InvalidArgument(
        "batch=" + std::to_string(fuse) +
        " times the graph's node count overflows the block index"));
    return finish();
  }
  const CancelToken* block_token = context.cancel_token();
  if (block_token != nullptr) {
    Status pre = block_token->CheckNow();
    if (!pre.ok()) {
      fail_all(pre);
      return finish();
    }
  }
  // One fault site per API call, mirroring Solver::Solve.
  {
    Status fault = [] {
      PPR_FAULT_STATUS("solver.solve");
      return Status::OK();
    }();
    if (!fault.ok()) {
      fail_all(fault);
      return finish();
    }
  }

  // Per-query seeds: explicit, or split deterministically off one
  // context draw so an unseeded SolveMany is still reproducible from
  // the context's RNG state.
  std::vector<uint64_t> derived;
  if (seeds.empty()) {
    derived.resize(count);
    const uint64_t base = context.rng().NextUint64();
    for (size_t i = 0; i < count; ++i) {
      derived[i] = SplitStream(base, i).NextUint64();
    }
    seeds = derived;
  }

  std::vector<PprQuery> block;
  std::vector<uint64_t> block_seeds;
  std::vector<const CancelToken*> block_cancels;
  std::vector<size_t> block_index;

  auto flush = [&]() {
    if (block.empty()) return;
    std::vector<PprResult> block_results(block.size());
    std::vector<Status> block_status(block.size(), Status::OK());
    Status structural =
        DoSolveMany(block, block_seeds, block_cancels, context,
                    block_results, block_status);
    Status block_check = Status::OK();
    if (structural.ok() && block_token != nullptr) {
      block_check = block_token->CheckNow();
    }
    for (size_t j = 0; j < block.size(); ++j) {
      const size_t i = block_index[j];
      Status qs = !structural.ok() ? structural : block_status[j];
      if (qs.ok() && !block_check.ok()) qs = block_check;
      if (qs.ok() && block_cancels[j] != nullptr) {
        qs = block_cancels[j]->CheckNow();
      }
      if (qs.ok()) {
        PprResult& r = block_results[j];
        if (!layout_permutation().empty()) {
          // Same gather-and-swap as Solver::Solve's layout remap.
          const NodeId n = static_cast<NodeId>(r.scores.size());
          std::vector<double>& scratch = *context.RemapScratch();
          scratch.resize(n);
          for (NodeId v = 0; v < n; ++v) scratch[v] = r.scores[LayoutOf(v)];
          r.scores.swap(scratch);
          if (!r.residues.empty()) {
            for (NodeId v = 0; v < n; ++v) {
              scratch[v] = r.residues[LayoutOf(v)];
            }
            r.residues.swap(scratch);
          }
        }
        r.solver = name();
        r.l1_bound = AdvertisedL1Bound(queries[i]);
        if (queries[i].top_k > 0) {
          r.top_nodes = TopK(r.scores, queries[i].top_k);
        }
        (*results)[i] = std::move(r);
      }
      local[i] = qs;
    }
    block.clear();
    block_seeds.clear();
    block_cancels.clear();
    block_index.clear();
  };

  for (size_t i = 0; i < count; ++i) {
    const PprQuery& query = queries[i];
    local[i] = ValidateQuery(query);
    if (!local[i].ok()) continue;
    const CancelToken* token = cancels.empty() ? nullptr : cancels[i];
    if (token != nullptr) {
      Status pre = token->CheckNow();
      if (!pre.ok()) {
        local[i] = pre;
        continue;
      }
    }
    PprQuery mapped = query;
    if (!layout_permutation().empty()) {
      mapped.source = LayoutOf(query.source);
      if (query.target != kNoTarget) mapped.target = LayoutOf(query.target);
    }
    block.push_back(mapped);
    block_seeds.push_back(seeds[i]);
    block_cancels.push_back(token);
    block_index.push_back(i);
    if (block.size() == fuse) flush();
  }
  flush();
  return finish();
}

}  // namespace ppr
