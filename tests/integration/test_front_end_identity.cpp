// One run identity for every front end of the paper-§5.1 pipeline: a
// fixed (seed, target, chains) gives the same output bytes from
//
//   * the library:            gen::generate_dk_random(target, d, options, ctx)
//   * the CLI:                orbis_tool generate
//   * the checkpointed CLI:   orbis_tool generate --checkpoint F
//   * a killed + resumed CLI: ... --stop-after-checkpoints 2, then --resume F
//   * the job server:         an in-process svc::Server generate job
//
// on a connected 2000-node graph with seed 7: d = 2 and d = 3 with 2
// chains, and d = 3 with a single chain.  All of them drive
// gen::Pipeline.  The CLI cases need the
// example binary (CMake exports ORBIS_TOOL_BIN) and are skipped without
// it; library == server always runs.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <tuple>

#include "core/series.hpp"
#include "gen/generate.hpp"
#include "graph/builders.hpp"
#include "io/dk_serialization.hpp"
#include "io/edge_list.hpp"
#include "svc/run_context.hpp"
#include "svc/server.hpp"
#include "util/rng.hpp"

namespace orbis {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 7;

/// (d, chains).
class FrontEndIdentityTest
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {
 protected:
  void SetUp() override {
    const char* tool = std::getenv("ORBIS_TOOL_BIN");
    if (tool != nullptr && fs::exists(tool)) tool_ = tool;
    dir_ = fs::temp_directory_path() /
           ("orbis_front_end_test_" + std::to_string(::getpid()) + "_d" +
            std::to_string(d()) + "_c" + std::to_string(chains()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);

    // Connected: a random spanning tree plus random chords.
    util::Rng rng(2000);
    Graph graph = builders::random_tree(2000, rng);
    while (graph.num_edges() < 2600) {
      graph.add_edge(static_cast<NodeId>(rng.uniform(2000)),
                     static_cast<NodeId>(rng.uniform(2000)));
    }
    const dk::DkDistributions dists = dk::extract(graph, 3);
    io::write_1k_file(path("t.1k"), dists.degree);
    io::write_2k_file(path("t.2k"), dists.joint);
    io::write_3k_file(path("t.3k"), dists.three_k);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static int d() { return std::get<0>(GetParam()); }
  static std::size_t chains() { return std::get<1>(GetParam()); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static std::string slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  /// The target as every front end sees it: read back from the files.
  dk::DkDistributions read_target() const {
    dk::DkDistributions target;
    target.degree = io::read_1k_file(path("t.1k"));
    target.joint = io::read_2k_file(path("t.2k"));
    if (d() == 3) target.three_k = io::read_3k_file(path("t.3k"));
    return target;
  }

  std::string library() const {
    svc::RunContext ctx;
    ctx.seed = kSeed;
    ctx.chains = chains();
    gen::GenerateOptions options;
    options.method = gen::Method::targeting;
    const dk::DkDistributions target = read_target();
    io::write_edge_list_file(
        path("lib.edges"), gen::generate_dk_random(target, d(), options, ctx));
    return slurp(path("lib.edges"));
  }

  std::string server() const {
    svc::ServerOptions options;
    options.cache_dir = path("cache");
    svc::Server server(options);
    svc::JobRequest request;
    request.kind = svc::JobKind::generate;
    request.input_path = path("t");
    request.output = path("server.edges");
    request.d = d();
    request.ctx.seed = kSeed;
    request.ctx.chains = chains();
    const svc::JobInfo info = server.wait(server.submit(request));
    EXPECT_EQ(info.state, svc::JobState::done) << info.error;
    EXPECT_EQ(info.legs_done, 8u * static_cast<std::uint64_t>(d() - 1));
    return slurp(path("server.edges"));
  }

  /// Runs `orbis_tool generate` with `extra` flags; returns the exit code.
  int tool(const std::string& extra) const {
    std::string cmd = "'" + tool_ + "' generate --quiet --d " +
                      std::to_string(d()) +
                      " --method targeting --from-1k '" + path("t.1k") +
                      "' --from-2k '" + path("t.2k") + "'";
    if (d() == 3) cmd += " --from-3k '" + path("t.3k") + "'";
    cmd += " --seed " + std::to_string(kSeed) + " --chains " +
           std::to_string(chains()) + " " + extra + " > /dev/null";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  std::string tool_;
  fs::path dir_;
};

TEST_P(FrontEndIdentityTest, ServerWritesTheLibraryBytes) {
  const std::string bytes = library();
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(server(), bytes) << "server != library";
}

TEST_P(FrontEndIdentityTest, ToolWritesTheLibraryBytes) {
  if (tool_.empty()) {
    GTEST_SKIP() << "ORBIS_TOOL_BIN not set or missing (examples not "
                    "built)";
  }
  const std::string bytes = library();
  ASSERT_FALSE(bytes.empty());

  ASSERT_EQ(tool("--out '" + path("cli.edges") + "'"), 0);
  EXPECT_EQ(slurp(path("cli.edges")), bytes) << "CLI != library";

  ASSERT_EQ(tool("--checkpoint '" + path("full.ck") + "' --out '" +
                 path("ck.edges") + "'"),
            0);
  EXPECT_EQ(slurp(path("ck.edges")), bytes) << "--checkpoint != library";

  // Killed deterministically at leg 2 (inside the 2K stage at d = 3),
  // then resumed from the file on disk.
  ASSERT_EQ(tool("--checkpoint '" + path("part.ck") +
                 "' --stop-after-checkpoints 2 --out '" +
                 path("part.edges") + "'"),
            130);
  EXPECT_FALSE(fs::exists(path("part.edges")));
  ASSERT_EQ(tool("--resume '" + path("part.ck") + "' --out '" +
                 path("resumed.edges") + "'"),
            0);
  EXPECT_EQ(slurp(path("resumed.edges")), bytes) << "--resume != library";
}

// d = 3 with one chain is the stage that used to take an unrecorded
// worker count, so a resume could walk other bytes than the run it
// continued.
INSTANTIATE_TEST_SUITE_P(Stages, FrontEndIdentityTest,
                         ::testing::Values(std::make_tuple(2, 2),
                                           std::make_tuple(3, 2),
                                           std::make_tuple(3, 1)));

}  // namespace
}  // namespace orbis
