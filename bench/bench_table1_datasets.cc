// Regenerates Table 1 of the paper: dataset statistics (n, m, m/n, type)
// for the six synthetic stand-ins, plus degree-tail diagnostics showing
// the stand-ins preserve the originals' heavy-tailed structure, plus a
// registry-driven reference column: the paper solver's ("powerpush" at
// the paper lambda, dispatched purely through SolverRegistry) median
// time per query on each dataset. Emits BENCH_table1.json, which also
// records each dataset's build time and CSR fingerprint.

#include <cstdio>
#include <memory>

#include "api/context.h"
#include "api/registry.h"
#include "bench_common.h"
#include "eval/experiment.h"
#include "eval/query_gen.h"
#include "graph/datasets.h"
#include "graph/graph_stats.h"
#include "util/string_utils.h"
#include "util/table_printer.h"

int main() {
  using namespace ppr;
  bench::PrintHeader(
      "Table 1: dataset statistics",
      "Paper: DBLP 317K/2.10M, Web-St 282K/2.31M, Pokec 1.63M/30.6M,\n"
      "LJ 4.85M/68.4M, Orkut 3.07M/234M, Twitter 41.7M/1.47B.\n"
      "Ours: synthetic stand-ins at reduced scale, same m/n and tail.");

  const size_t query_count = BenchQueryCount(3);
  bench::BenchJsonWriter json("table1");
  TablePrinter table({"Name", "Stands in for", "n", "m", "m/n", "Type",
                      "max outdeg", "top1% share", "dead ends",
                      "build", "powerpush t/q"});
  for (const auto& named : LoadBenchDatasets(bench::kDefaultScale)) {
    const DatasetSpec& spec = FindDataset(named.name);
    GraphStats stats = ComputeGraphStats(named.graph);
    char mn[32];
    std::snprintf(mn, sizeof(mn), "%.2f", stats.avg_degree);
    char share[32];
    std::snprintf(share, sizeof(share), "%.3f", stats.top1pct_degree_share);

    // The registry reference solve: the same spec string any driver or
    // the CLI would use.
    auto created = SolverRegistry::Global().Create("powerpush");
    PPR_CHECK(created.ok()) << created.status().ToString();
    std::unique_ptr<Solver> solver = std::move(created).ValueOrDie();
    PPR_CHECK(solver->Prepare(named.graph).ok());
    SolverContext context;
    PprQuery base;
    base.lambda = HighPrecisionLambda(named.graph);
    const double median = Median(
        TimePerQuery(*solver, context,
                     SampleQuerySources(named.graph, query_count), base));

    char fingerprint[32];
    std::snprintf(fingerprint, sizeof(fingerprint), "0x%016llx",
                  static_cast<unsigned long long>(named.graph.Fingerprint()));
    table.AddRow({named.name, named.paper_name, HumanCount(stats.num_nodes),
                  HumanCount(stats.num_edges), mn,
                  spec.directed ? "directed" : "undirected",
                  std::to_string(stats.max_out_degree), share,
                  std::to_string(stats.dead_ends),
                  HumanSeconds(named.build_seconds), HumanSeconds(median)});
    json.Add()
        .Str("dataset", named.name)
        .Str("paper_name", named.paper_name)
        .Int("n", stats.num_nodes)
        .Int("m", stats.num_edges)
        .Num("avg_degree", stats.avg_degree)
        .Int("max_out_degree", stats.max_out_degree)
        .Num("top1pct_degree_share", stats.top1pct_degree_share)
        .Int("dead_ends", stats.dead_ends)
        .Num("powerpush_median_seconds", median)
        .Num("build_seconds", named.build_seconds)
        .Str("fingerprint", fingerprint);
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Paper m/n targets: DBLP 6.62, Web-St 8.20, Pokec 18.8, "
              "LJ 14.1, Orkut 76.3, Twitter 35.3\n");
  json.Write();
  return 0;
}
