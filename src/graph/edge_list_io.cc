#include "graph/edge_list_io.h"

#include <cstdio>
#include <fstream>
#include <limits>

#include "util/string_utils.h"

namespace ppr {

namespace {
constexpr uint64_t kBinaryMagic = 0x5050523147524248ULL;  // "PPR1GRBH"
}  // namespace

Result<std::vector<Edge>> ReadEdgeListText(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);

  std::vector<Edge> edges;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (IsCommentOrBlank(line)) continue;
    auto fields = SplitAndTrim(line, " \t\r,");
    if (fields.size() < 2) {
      return Status::Corruption(path + ":" + std::to_string(line_no) +
                                ": expected 'src dst'");
    }
    uint64_t src = 0;
    uint64_t dst = 0;
    if (!ParseUint64(fields[0], &src) || !ParseUint64(fields[1], &dst)) {
      return Status::Corruption(path + ":" + std::to_string(line_no) +
                                ": malformed node id");
    }
    // GraphBuilder needs max id + 1 to fit a NodeId.
    if (src >= std::numeric_limits<NodeId>::max() ||
        dst >= std::numeric_limits<NodeId>::max()) {
      return Status::OutOfRange(path + ":" + std::to_string(line_no) +
                                ": node id must be below 2^32 - 1");
    }
    edges.push_back({static_cast<NodeId>(src), static_cast<NodeId>(dst)});
  }
  return edges;
}

Status WriteEdgeListText(const std::string& path,
                         const std::vector<Edge>& edges) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << "# directed edge list, " << edges.size() << " edges\n";
  for (const Edge& e : edges) out << e.src << "\t" << e.dst << "\n";
  out.flush();
  if (!out) return Status::IOError("write failed on " + path);
  return Status::OK();
}

Result<Graph> LoadGraphFromEdgeList(const std::string& path,
                                    const BuildOptions& options) {
  auto edges = ReadEdgeListText(path);
  if (!edges.ok()) return edges.status();
  return GraphBuilder::FromEdges(std::move(edges.value()), options);
}

Result<UpdateBatch> ReadUpdateStreamText(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);

  UpdateBatch batch;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (IsCommentOrBlank(line)) continue;
    auto fields = SplitAndTrim(line, " \t\r,");
    // Node ops carry fewer fields than edge ops: "n" alone adds one
    // isolated node, "x u" detaches node u.
    if (fields[0] == "n") {
      if (fields.size() != 1) {
        return Status::Corruption(path + ":" + std::to_string(line_no) +
                                  ": 'n' (add node) takes no operands");
      }
      batch.AddNode();
      continue;
    }
    if (fields[0] == "x") {
      if (fields.size() != 2) {
        return Status::Corruption(path + ":" + std::to_string(line_no) +
                                  ": expected 'x u' (remove node)");
      }
      uint64_t u = 0;
      if (!ParseUint64(fields[1], &u)) {
        return Status::Corruption(path + ":" + std::to_string(line_no) +
                                  ": malformed node id");
      }
      if (u > std::numeric_limits<NodeId>::max()) {
        return Status::OutOfRange(path + ":" + std::to_string(line_no) +
                                  ": node id exceeds 32 bits");
      }
      batch.RemoveNode(static_cast<NodeId>(u));
      continue;
    }
    if (fields.size() < 3) {
      return Status::Corruption(path + ":" + std::to_string(line_no) +
                                ": expected '+|- src dst'");
    }
    UpdateKind kind;
    if (fields[0] == "+" || fields[0] == "a") {
      kind = UpdateKind::kInsert;
    } else if (fields[0] == "-" || fields[0] == "d") {
      kind = UpdateKind::kDelete;
    } else {
      return Status::Corruption(path + ":" + std::to_string(line_no) +
                                ": update kind must be '+'/'-'/'n'/'x' "
                                "(or 'a'/'d')");
    }
    uint64_t src = 0;
    uint64_t dst = 0;
    if (!ParseUint64(fields[1], &src) || !ParseUint64(fields[2], &dst)) {
      return Status::Corruption(path + ":" + std::to_string(line_no) +
                                ": malformed node id");
    }
    if (src > std::numeric_limits<NodeId>::max() ||
        dst > std::numeric_limits<NodeId>::max()) {
      return Status::OutOfRange(path + ":" + std::to_string(line_no) +
                                ": node id exceeds 32 bits");
    }
    batch.updates.push_back(
        {kind, static_cast<NodeId>(src), static_cast<NodeId>(dst)});
  }
  return batch;
}

Status WriteUpdateStreamText(const std::string& path,
                             const UpdateBatch& batch) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << "# edge-update stream, " << batch.size() << " updates\n";
  for (const EdgeUpdate& up : batch.updates) {
    switch (up.kind) {
      case UpdateKind::kInsert:
        out << "+\t" << up.u << "\t" << up.v << "\n";
        break;
      case UpdateKind::kDelete:
        out << "-\t" << up.u << "\t" << up.v << "\n";
        break;
      case UpdateKind::kAddNode:
        out << "n\n";
        break;
      case UpdateKind::kRemoveNode:
        out << "x\t" << up.u << "\n";
        break;
    }
  }
  out.flush();
  if (!out) return Status::IOError("write failed on " + path);
  return Status::OK();
}

Status WriteGraphBinary(const std::string& path, const Graph& graph) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");

  auto write_u64 = [&](uint64_t v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  write_u64(kBinaryMagic);
  write_u64(graph.num_nodes());
  write_u64(graph.num_edges());
  out.write(reinterpret_cast<const char*>(graph.out_offsets().data()),
            static_cast<std::streamsize>(graph.out_offsets().size() *
                                         sizeof(EdgeId)));
  out.write(reinterpret_cast<const char*>(graph.out_targets().data()),
            static_cast<std::streamsize>(graph.out_targets().size() *
                                         sizeof(NodeId)));
  out.flush();
  if (!out) return Status::IOError("write failed on " + path);
  return Status::OK();
}

Result<Graph> ReadGraphBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);

  auto read_u64 = [&](uint64_t* v) {
    in.read(reinterpret_cast<char*>(v), sizeof(*v));
    return static_cast<bool>(in);
  };
  uint64_t magic = 0;
  uint64_t n = 0;
  uint64_t m = 0;
  if (!read_u64(&magic) || magic != kBinaryMagic) {
    return Status::Corruption(path + ": bad magic");
  }
  if (!read_u64(&n) || !read_u64(&m)) {
    return Status::Corruption(path + ": truncated header");
  }

  std::vector<EdgeId> offsets(n + 1);
  std::vector<NodeId> targets(m);
  in.read(reinterpret_cast<char*>(offsets.data()),
          static_cast<std::streamsize>(offsets.size() * sizeof(EdgeId)));
  in.read(reinterpret_cast<char*>(targets.data()),
          static_cast<std::streamsize>(targets.size() * sizeof(NodeId)));
  if (!in) return Status::Corruption(path + ": truncated body");
  if (offsets.front() != 0 || offsets.back() != m) {
    return Status::Corruption(path + ": inconsistent CSR offsets");
  }
  return Graph(std::move(offsets), std::move(targets));
}

}  // namespace ppr
