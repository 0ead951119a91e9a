// eclp-gen — materialize suite inputs (or list them).
//
//   $ eclp-gen --list
//   $ eclp-gen --input=europe_osm --scale=small --out=europe.eclg
//   $ eclp-gen --input=star --scale=default --out=star.mtx
//
// Output format follows the file extension (see graph::save_any). Weighted
// copies (for MST work) are produced with --weights=<seed>.
#include <cstdio>

#include "gen/suite.hpp"
#include "graph/io.hpp"
#include "graph/transforms.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

using namespace eclp;

int main(int argc, char** argv) {
  Cli cli;
  cli.add_flag("list", "list the available suite inputs");
  cli.add_option("input", "suite input name", "");
  cli.add_option("scale", "tiny|small|default|huge", "small");
  cli.add_option("out", "output path (.eclg/.mtx/.gr/.col/.el)", "");
  cli.add_option("weights", "attach random weights with this seed (0 = none)",
                 "0");
  cli.add_flag("help", "show usage");
  cli.parse(argc, argv);
  if (cli.get_flag("help") || (!cli.get_flag("list") && cli.get("input").empty())) {
    std::printf("%s", cli.usage("eclp-gen").c_str());
    return cli.get_flag("help") ? 0 : 2;
  }

  if (cli.get_flag("list")) {
    Table t("suite inputs (paper Table 1 classes)");
    t.set_header({"name", "class", "directed", "paper V", "paper E"});
    for (const auto* specs : {&gen::general_inputs(), &gen::mesh_inputs()}) {
      for (const auto& spec : *specs) {
        t.add_row({spec.name, spec.paper.type, spec.directed ? "yes" : "no",
                   fmt::grouped(spec.paper.vertices),
                   fmt::grouped(spec.paper.edges)});
      }
    }
    std::printf("%s", t.to_text().c_str());
    return 0;
  }

  const auto& spec = gen::find_input(cli.get("input"));
  auto g = spec.make(gen::parse_scale(cli.get("scale")));
  const u64 weight_seed = static_cast<u64>(cli.get_int("weights"));
  if (weight_seed != 0) {
    ECLP_CHECK_MSG(!g.directed(), "--weights is for undirected (MST) inputs");
    g = graph::with_random_weights(g, weight_seed);
  }
  ECLP_CHECK_MSG(!cli.get("out").empty(), "--out is required with --input");
  graph::save_any(g, cli.get("out"));
  std::printf("%s: %u vertices, %u edges%s -> %s\n", spec.name.c_str(),
              g.num_vertices(), g.num_edges(),
              g.weighted() ? " (weighted)" : "", cli.get("out").c_str());
  return 0;
}
