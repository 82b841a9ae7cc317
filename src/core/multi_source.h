#ifndef PPR_CORE_MULTI_SOURCE_H_
#define PPR_CORE_MULTI_SOURCE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/workspace.h"
#include "graph/graph.h"
#include "util/cancellation.h"

namespace ppr {

/// Options for the fused multi-source sweep kernel.
struct MultiSourceOptions {
  /// false: power-iteration mode — every nonzero residue entry pushes
  /// each sweep and source b terminates when its residue sum drops to
  /// threshold[b] (= λ_b). true: forward-push scan mode — entry (v, b)
  /// pushes only while r > EffectiveDegree(v)·threshold[b] (= rmax_b),
  /// smaller residues carry over unchanged, and source b terminates on
  /// the first sweep that performs zero pushes for it.
  bool push_mode = false;
  /// Honor per-source top_k[] gap retirement (see MultiSourceFusedSolve).
  bool topk_early = false;
  uint64_t max_iterations = 100000;
  /// Whole-block cancellation, polled once per sweep. A stop retires
  /// every remaining source with its partial state (callers detect the
  /// interruption through the token, exactly like the serial kernels).
  const CancelToken* block_cancel = nullptr;
};

/// Per-source output destinations for MultiSourceFusedSolve. A source's
/// columns are extracted the moment it retires (converged, hit
/// max_iterations, cancelled, or top-k-separated) — the block matrices
/// recycle retired columns, so the kernel owns the export.
struct MultiSourceOutputs {
  /// size B; scores[b] points at an all-zero length-n buffer that
  /// receives source b's reserve (score) column.
  std::span<double* const> scores;
  /// size B or empty; non-null entries receive the residue column.
  std::span<double* const> residues;
  /// size B; per-source counters (push_operations, edge_pushes,
  /// iterations, final_rsum, seconds-from-kernel-start-at-retirement).
  std::span<SolveStats> stats;
  /// size B or empty; set to 1 for sources retired by the top-k gap
  /// rule before their threshold termination.
  std::span<uint8_t> early_retired;
};

/// Advances B sources through one CSR traversal per sweep: the residue
/// and reserve block matrices are flat length n·B vectors laid out
/// node-major (entry (v, b) at v·B + b), so one pass over the adjacency
/// serves every source in the block instead of B passes. Columns are
/// fully independent — per-source alpha/threshold, dead-end mass
/// returned to that source's own column — so the per-column arithmetic
/// (operation sequence, FP rounding) is identical to the serial kernels
/// at every block width:
///
///  * power mode replicates core/power_iteration's serial loop per
///    column (same skip-zero / reserve += α·r / scatter (1−α)·r/d order,
///    same termination `rsum > λ && iterations < max`);
///  * push mode is the deterministic node-ordered scan analogue of FIFO
///    forward push: same pushes, same (m + dead_ends)·rmax certificate,
///    but a fixed sweep order shared by every batch width so fused and
///    per-source runs of the *same scan discipline* match bit-for-bit.
///
/// Top-k early retirement (options.topk_early, top_k[b] > 0): at a
/// sweep boundary, source b retires early when the gap between its
/// k-th and (k+1)-th largest reserve exceeds its remaining residue sum
/// rsum_b — no unsettled mass can change the top-k *set* (order within
/// the set may still differ from the converged run). The rule reads
/// only column b, so serial (B=1) and fused runs retire identically.
///
/// Per-source cancellation (cancels[b], entries nullable) is polled at
/// sweep boundaries; a stopped source retires with partial state.
///
/// Preconditions: sources/alpha/threshold sized B with threshold > 0;
/// top_k sized B or empty; cancels sized B or empty; reserve/residue
/// all-zero length n·B (n·B must fit NodeId); next all-zero length n·B.
/// Returns the number of CSR sweeps made: one per sweep of the whole
/// block, however many sources it advances.
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
                           const MultiSourceOutputs& out);

}  // namespace ppr

#endif  // PPR_CORE_MULTI_SOURCE_H_
