// The checkpoint/resume determinism contract (gen/checkpoint.hpp):
// killing a run at ANY checkpoint boundary and resuming from the file
// on disk produces the SAME final graph, distance and stats as the
// uninterrupted run — bit-identical, for both 2K and 3K targeting and
// for either stage of a d = 3 gen::Pipeline — plus the strict
// checkpoint-file parser and the v1/v2 back-compat reads.
#include "gen/checkpoint.hpp"

#include "gen/anneal.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/series.hpp"
#include "gen/matching.hpp"
#include "gen/pipeline.hpp"
#include "graph/builders.hpp"
#include "io/checkpoint_io.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace orbis::gen {
namespace {

void expect_same_edges(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  const auto& ea = a.edges();
  const auto& eb = b.edges();
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].u, eb[i].u) << "edge slot " << i;
    EXPECT_EQ(ea[i].v, eb[i].v) << "edge slot " << i;
  }
}

void expect_same_stats(const RewiringStats& a, const RewiringStats& b) {
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected_structural, b.rejected_structural);
  EXPECT_EQ(a.rejected_constraint, b.rejected_constraint);
  EXPECT_EQ(a.rejected_objective, b.rejected_objective);
  EXPECT_EQ(a.conflict_reevaluations, b.conflict_reevaluations);
}

class CheckpointResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("orbis_ckpt_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);

    util::Rng rng(91);
    const Graph source = builders::gnm(40, 90, rng);
    target_ = dk::extract(source, 3);
    util::Rng boot(17);
    start_ = matching_1k(target_.degree, boot);

    options_.attempts = 3000;  // explicit budget, 10 legs of 300
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// A run's result plus the winner's graph (the driver hands back no
  /// Graph; the state holds every chain's edges).
  struct Outcome : CheckpointedResult {
    Graph graph;
  };

  Outcome run_to_end(RunCheckpoint& state, const TargetingOptions& options) {
    Outcome out{run_checkpointed(state, target_, options, {}), {}};
    out.graph = state.graph(out.best_chain);
    return out;
  }

  /// The uninterrupted reference run (fresh Rng with `seed`).
  Outcome reference_2k(std::uint64_t seed, RunCheckpoint* out) {
    util::Rng rng(seed);
    RunCheckpoint state = make_run(2, start_, options_, /*chains=*/2,
                                   /*checkpoint_every=*/300, rng);
    auto result = run_to_end(state, options_);
    if (out != nullptr) *out = state;
    return result;
  }

  /// Kill at checkpoint boundary `kill_at` (serialize to disk), then
  /// resume from the file in a fresh driver — the in-memory state of the
  /// first run is thrown away, as a process death would.
  Outcome kill_and_resume_2k(std::uint64_t seed, std::size_t kill_at) {
    const std::string file = path("run.ck");
    {
      util::Rng rng(seed);
      RunCheckpoint state = make_run(2, start_, options_, /*chains=*/2,
                                     /*checkpoint_every=*/300, rng);
      util::StopSource stop;
      CheckpointOptions checkpointing;
      checkpointing.stop = stop.token();
      std::size_t written = 0;
      checkpointing.on_checkpoint = [&](const RunCheckpoint& snapshot) {
        io::write_checkpoint_file(file, snapshot);
        if (++written >= kill_at) stop.request_stop();
      };
      auto partial =
          run_checkpointed(state, target_, options_, checkpointing);
      EXPECT_TRUE(partial.interrupted);
      EXPECT_EQ(partial.attempts_done, kill_at * 300);
    }
    RunCheckpoint resumed = io::read_checkpoint_file(file);
    return run_to_end(resumed, options_);
  }

  std::filesystem::path dir_;
  dk::DkDistributions target_;
  Graph start_;
  TargetingOptions options_;
};

TEST_F(CheckpointResumeTest, KillAtFirstBoundaryResumesBitIdentical2K) {
  RunCheckpoint reference_state;
  const auto reference = reference_2k(7, &reference_state);
  const auto resumed = kill_and_resume_2k(7, 1);
  expect_same_edges(reference.graph, resumed.graph);
  expect_same_stats(reference.total_stats, resumed.total_stats);
  EXPECT_EQ(reference.best_chain, resumed.best_chain);
  EXPECT_EQ(reference.best_distance, resumed.best_distance);
  EXPECT_EQ(reference.attempts_done, resumed.attempts_done);
}

TEST_F(CheckpointResumeTest, KillMidRunResumesBitIdentical2K) {
  const auto reference = reference_2k(7, nullptr);
  const auto resumed = kill_and_resume_2k(7, 5);
  expect_same_edges(reference.graph, resumed.graph);
  expect_same_stats(reference.total_stats, resumed.total_stats);
  EXPECT_EQ(reference.best_distance, resumed.best_distance);
}

TEST_F(CheckpointResumeTest, KillAtEveryBoundaryResumesBitIdentical2K) {
  // The contract says ANY boundary; sweep all of them on a small run.
  options_.attempts = 1000;  // 5 legs of 200
  const std::string file = path("sweep.ck");
  util::Rng ref_rng(3);
  RunCheckpoint ref_state = make_run(2, start_, options_, /*chains=*/2,
                                     /*checkpoint_every=*/200, ref_rng);
  const auto reference =
      run_to_end(ref_state, options_);

  for (std::size_t kill_at = 1; kill_at <= 4; ++kill_at) {
    util::Rng rng(3);
    RunCheckpoint state = make_run(2, start_, options_, /*chains=*/2,
                                   /*checkpoint_every=*/200, rng);
    util::StopSource stop;
    CheckpointOptions checkpointing;
    checkpointing.stop = stop.token();
    std::size_t written = 0;
    checkpointing.on_checkpoint = [&](const RunCheckpoint& snapshot) {
      io::write_checkpoint_file(file, snapshot);
      if (++written >= kill_at) stop.request_stop();
    };
    run_checkpointed(state, target_, options_, checkpointing);

    RunCheckpoint resumed = io::read_checkpoint_file(file);
    const auto result =
        run_to_end(resumed, options_);
    expect_same_edges(reference.graph, result.graph);
    expect_same_stats(reference.total_stats, result.total_stats);
  }
}

TEST_F(CheckpointResumeTest, KillAndResumeBitIdentical3K) {
  // 3K: bootstrap a 2K-targeted start the way the pipeline does, then
  // checkpoint the 3K walk.
  util::Rng boot(29);
  const Graph start3 =
      target_2k(start_, target_.joint, options_, boot);

  TargetingOptions options3 = options_;
  options3.attempts = 1500;  // 5 legs of 300
  util::Rng ref_rng(11);
  RunCheckpoint ref_state = make_run(3, start3, options3, /*chains=*/2,
                                     /*checkpoint_every=*/300, ref_rng);
  const auto reference =
      run_to_end(ref_state, options3);

  const std::string file = path("run3.ck");
  {
    util::Rng rng(11);
    RunCheckpoint state = make_run(3, start3, options3, /*chains=*/2,
                                   /*checkpoint_every=*/300, rng);
    util::StopSource stop;
    CheckpointOptions checkpointing;
    checkpointing.stop = stop.token();
    std::size_t written = 0;
    checkpointing.on_checkpoint = [&](const RunCheckpoint& snapshot) {
      io::write_checkpoint_file(file, snapshot);
      if (++written >= 2) stop.request_stop();
    };
    auto partial =
        run_checkpointed(state, target_, options3, checkpointing);
    EXPECT_TRUE(partial.interrupted);
  }
  RunCheckpoint resumed = io::read_checkpoint_file(file);
  const auto result =
      run_to_end(resumed, options3);
  expect_same_edges(reference.graph, result.graph);
  expect_same_stats(reference.total_stats, result.total_stats);
  EXPECT_EQ(reference.best_distance, result.best_distance);
}

TEST_F(CheckpointResumeTest, LadderedKillAndResumeBitIdentical2K) {
  // A laddered adaptive mixed-move run killed at a checkpoint boundary
  // (which the ladder guarantees is an epoch boundary) and resumed from
  // the file must replay to the same final state: per-replica edges,
  // stats, temperatures, and the exchange Rng/counters.
  options_.move = MoveKind::mixed;
  LadderOptions ladder;
  ladder.exchange_every = 300;
  ladder.top_temperature = 50.0;

  util::Rng ref_rng(7);
  RunCheckpoint ref_state = make_run(2, start_, options_, /*chains=*/3,
                                     /*checkpoint_every=*/300, ref_rng);
  apply_ladder(ref_state, options_, ladder);
  const auto reference =
      run_to_end(ref_state, options_);

  const std::string file = path("ladder.ck");
  {
    util::Rng rng(7);
    RunCheckpoint state = make_run(2, start_, options_, /*chains=*/3,
                                   /*checkpoint_every=*/300, rng);
    apply_ladder(state, options_, ladder);
    util::StopSource stop;
    CheckpointOptions checkpointing;
    checkpointing.stop = stop.token();
    std::size_t written = 0;
    checkpointing.on_checkpoint = [&](const RunCheckpoint& snapshot) {
      io::write_checkpoint_file(file, snapshot);
      if (++written >= 3) stop.request_stop();
    };
    auto partial =
        run_checkpointed(state, target_, options_, checkpointing);
    EXPECT_TRUE(partial.interrupted);
  }
  RunCheckpoint resumed = io::read_checkpoint_file(file);
  EXPECT_TRUE(resumed.laddered());
  EXPECT_EQ(resumed.move, MoveKind::mixed);
  const auto result =
      run_to_end(resumed, options_);

  expect_same_edges(reference.graph, result.graph);
  expect_same_stats(reference.total_stats, result.total_stats);
  EXPECT_EQ(reference.best_chain, result.best_chain);
  EXPECT_EQ(reference.best_distance, result.best_distance);
  ASSERT_EQ(resumed.chains.size(), ref_state.chains.size());
  for (std::size_t i = 0; i < ref_state.chains.size(); ++i) {
    EXPECT_EQ(resumed.chains[i].temperature, ref_state.chains[i].temperature)
        << i;
    EXPECT_EQ(resumed.chains[i].rng_state, ref_state.chains[i].rng_state) << i;
    EXPECT_EQ(resumed.chains[i].edges, ref_state.chains[i].edges) << i;
  }
  EXPECT_EQ(resumed.exchange_rng, ref_state.exchange_rng);
  EXPECT_GT(ref_state.exchange_attempted, 0u);
  EXPECT_EQ(resumed.exchange_attempted, ref_state.exchange_attempted);
  EXPECT_EQ(resumed.exchange_accepted, ref_state.exchange_accepted);
}

TEST_F(CheckpointResumeTest, CheckpointFileRoundTripsExactly) {
  util::Rng rng(5);
  RunCheckpoint state = make_run(2, start_, options_, /*chains=*/3,
                                 /*checkpoint_every=*/500, rng);
  // Advance one leg so stats/distance are non-trivial.
  util::StopSource stop;
  CheckpointOptions checkpointing;
  checkpointing.stop = stop.token();
  checkpointing.on_checkpoint = [&](const RunCheckpoint&) {
    stop.request_stop();
  };
  run_checkpointed(state, target_, options_, checkpointing);

  const std::string file = path("roundtrip.ck");
  io::write_checkpoint_file(file, state);
  const RunCheckpoint loaded = io::read_checkpoint_file(file);

  EXPECT_EQ(loaded.d, state.d);
  EXPECT_EQ(loaded.budget, state.budget);
  EXPECT_EQ(loaded.checkpoint_every, state.checkpoint_every);
  EXPECT_EQ(loaded.backend, state.backend);
  ASSERT_EQ(loaded.chains.size(), state.chains.size());
  for (std::size_t i = 0; i < state.chains.size(); ++i) {
    EXPECT_EQ(loaded.chains[i].attempts_done, state.chains[i].attempts_done);
    EXPECT_EQ(loaded.chains[i].rng_state, state.chains[i].rng_state);
    EXPECT_EQ(loaded.chains[i].distance, state.chains[i].distance);
    expect_same_stats(loaded.chains[i].stats, state.chains[i].stats);
    EXPECT_EQ(loaded.chains[i].edges, state.chains[i].edges);
  }
}

TEST_F(CheckpointResumeTest, TruncatedCheckpointIsAParseErrorNotAResume) {
  util::Rng rng(5);
  RunCheckpoint state = make_run(2, start_, options_, /*chains=*/2, 500, rng);
  const std::string file = path("torn.ck");
  io::write_checkpoint_file(file, state);

  // Cut the file mid-structure, as a crashed non-atomic writer would.
  std::string content;
  {
    std::ifstream in(file, std::ios::binary);
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  std::ofstream(file, std::ios::binary | std::ios::trunc)
      << content.substr(0, content.size() / 2);

  try {
    io::read_checkpoint_file(file);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("unexpected end of file"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(CheckpointResumeTest, CorruptCheckpointFieldsAreRejectedWithLine) {
  const auto reject = [&](const std::string& content) {
    const std::string file = path("corrupt.ck");
    std::ofstream(file, std::ios::trunc) << content;
    EXPECT_THROW(io::read_checkpoint_file(file), ParseError) << content;
  };
  reject("not a checkpoint\n");
  reject("# orbis checkpoint v1\nd 5\n");           // bad series level
  reject("# orbis checkpoint v1\nd 2\nbudget x\n"); // non-numeric field
  reject("# orbis checkpoint v1\nd 2\nbudget 10\nevery 5\n"
         "backend warp\n");                         // unknown backend
  reject("# orbis checkpoint v1\nd 2\nbudget 10\nevery 5\n"
         "backend dense\nchains 0\n");              // zero chains
  reject("# orbis checkpoint v1\nd 2\nbudget 10\nevery 5\n"
         "backend dense\nchains 1\nchain 0\nattempts 99\n"
         "rng 1 2 3 4\nstats 0 0 0 0 0 0\ndistance 0\n"
         "graph 1 0\nend chain\nend checkpoint\n"); // attempts > budget
  reject("# orbis checkpoint v1\nd 2\nbudget 10\nevery 5\n"
         "backend dense\nchains 1\nchain 0\nattempts 5\n"
         "rng 0 0 0 0\nstats 0 0 0 0 0 0\ndistance 0\n"
         "graph 1 0\nend chain\nend checkpoint\n"); // all-zero rng
  reject("# orbis checkpoint v1\nd 2\nbudget 10\nevery 5\n"
         "backend dense\nchains 1\nchain 0\nattempts 5\n"
         "rng 1 2 3 4\nstats 0 0 0 0 0 0\ndistance 0\n"
         "graph 2 1\n0 0\nend chain\nend checkpoint\n");  // self-loop
  reject("# orbis checkpoint v1\nd 2\nbudget 10\nevery 5\n"
         "backend dense\nchains 1\nchain 0\nattempts 5\n"
         "rng 1 2 3 4\nstats 0 0 0 0 0 0\ndistance 0\n"
         "graph 1 0\nend chain\nend checkpoint\ntrailing\n");  // garbage
}

TEST_F(CheckpointResumeTest, ResumingAFinishedRunJustReturnsTheResult) {
  util::Rng rng(13);
  options_.attempts = 600;
  RunCheckpoint state = make_run(2, start_, options_, /*chains=*/2, 300, rng);
  const auto first = run_to_end(state, options_);
  EXPECT_TRUE(state.finished());

  const std::string file = path("done.ck");
  io::write_checkpoint_file(file, state);
  RunCheckpoint reloaded = io::read_checkpoint_file(file);
  const auto again =
      run_to_end(reloaded, options_);
  EXPECT_FALSE(again.interrupted);
  expect_same_edges(first.graph, again.graph);
}

TEST_F(CheckpointResumeTest, D3PipelineKilledInIts2KStageResumesBitIdentical) {
  TargetingOptions options;
  options.attempts_per_edge = 200;  // 4 legs per stage
  util::Rng ref_rng(21);
  Pipeline reference(target_, 3, options, /*chains=*/2, ref_rng);
  ASSERT_TRUE(reference.run());

  const std::string file = path("pipeline.ck");
  {
    util::StopSource stop;
    TargetingOptions killable = options;
    killable.stop = stop.token();
    util::Rng rng(21);
    Pipeline first(target_, 3, killable, /*chains=*/2, rng);
    for (int leg = 0; leg < 2; ++leg) {
      ASSERT_TRUE(first.step());
      io::write_checkpoint_file(file, first.checkpoint());
    }
    stop.request_stop();  // the kill lands inside the 2K stage's leg 3
    EXPECT_FALSE(first.step());
    EXPECT_EQ(first.checkpoint().d, 2);
    EXPECT_EQ(first.checkpoint().chains[0].attempts_done,
              2 * first.checkpoint().checkpoint_every);
  }
  RunCheckpoint loaded = io::read_checkpoint_file(file);
  EXPECT_EQ(loaded.d, 2);
  EXPECT_EQ(loaded.target_d, 3);
  Pipeline resumed(target_, std::move(loaded), options);
  ASSERT_TRUE(resumed.run());
  ASSERT_TRUE(resumed.finished());
  EXPECT_EQ(resumed.checkpoint().d, 3);
  EXPECT_EQ(resumed.graph().edges(), reference.graph().edges());
  ASSERT_EQ(resumed.stages().size(), 2u);
  EXPECT_EQ(resumed.stages()[0].stats, reference.stages()[0].stats);
  EXPECT_EQ(resumed.stages()[1].stats, reference.stages()[1].stats);
  EXPECT_EQ(resumed.stages()[1].final_distance,
            reference.stages()[1].final_distance);
}

TEST_F(CheckpointResumeTest, V1AndV2FilesStillResume) {
  // A v3 file of a single-stage run, rewritten the way v1/v2 writers
  // laid it out: both must resume to the uninterrupted run's bytes.
  util::Rng ref_rng(4);
  RunCheckpoint ref_state = make_run(2, start_, options_, /*chains=*/2,
                                     /*checkpoint_every=*/300, ref_rng);
  const auto reference = run_to_end(ref_state, options_);

  util::Rng rng(4);
  RunCheckpoint state = make_run(2, start_, options_, /*chains=*/2,
                                 /*checkpoint_every=*/300, rng);
  CheckpointOptions checkpointing;
  checkpointing.max_legs = 3;
  run_checkpointed(state, target_, options_, checkpointing);
  const std::string v3 = path("v3.ck");
  io::write_checkpoint_file(v3, state);

  const auto rewrite = [&](const std::string& header,
                           const std::vector<std::string>& dropped) {
    std::ifstream in(v3);
    std::string out;
    std::string line;
    std::getline(in, line);
    out += header + "\n";
    while (std::getline(in, line)) {
      bool drop = false;
      for (const std::string& key : dropped) {
        drop = drop || line.rfind(key + " ", 0) == 0;
      }
      if (!drop) out += line + "\n";
    }
    const std::string file = path(header.substr(header.size() - 2) + ".ck");
    std::ofstream(file, std::ios::trunc) << out;
    return file;
  };
  const std::string v2 = rewrite("# orbis checkpoint v2", {"target_d"});
  const std::string v1 = rewrite(
      "# orbis checkpoint v1",
      {"target_d", "move", "ladder", "temperature_bits"});
  for (const std::string& file : {v1, v2}) {
    RunCheckpoint loaded = io::read_checkpoint_file(file);
    EXPECT_EQ(loaded.target_d, 2) << file;
    EXPECT_EQ(loaded.checkpoint_every, 300u) << file;
    const auto result = run_to_end(loaded, options_);
    expect_same_edges(reference.graph, result.graph);
    expect_same_stats(reference.total_stats, result.total_stats);
  }
}

TEST_F(CheckpointResumeTest, CorruptV3PipelineRecordsAreRejectedWithLine) {
  const std::string file = path("v3bad.ck");
  const auto reject = [&](const std::string& content,
                          const std::string& line) {
    std::ofstream(file, std::ios::trunc) << content;
    try {
      io::read_checkpoint_file(file);
      ADD_FAILURE() << "expected ParseError: " << content;
    } catch (const ParseError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(file), std::string::npos) << what;
      EXPECT_NE(what.find("line " + line), std::string::npos) << what;
    }
  };
  reject("# orbis checkpoint v3\nd 3\ntarget_d 2\n", "3");  // stage > target
  reject("# orbis checkpoint v3\nd 2\ntarget_d 4\n", "3");
  reject("# orbis checkpoint v3\nd 2\nbudget 10\n", "3");   // no target_d
  reject("# orbis checkpoint v3\nd 2\ntarget_d 3\n"
         "pipeline_rng 0 0 0 0\n", "4");                    // all-zero rng
  reject("# orbis checkpoint v3\nd 2\ntarget_d 3\n"
         "pipeline_rng 1 2 3\n", "4");                      // short rng
  reject("# orbis checkpoint v3\nd 2\ntarget_d 3\n"
         "pipeline_rng 1 2 x 4\n", "4");                    // non-numeric
  reject("# orbis checkpoint v3\nd 2\ntarget_d 3\n", "3");  // truncated

  // A real mid-pipeline file cut right after its pipeline record.
  TargetingOptions options;
  options.attempts_per_edge = 200;
  util::Rng rng(8);
  Pipeline pipeline(target_, 3, options, /*chains=*/2, rng);
  ASSERT_TRUE(pipeline.step());
  io::write_checkpoint_file(file, pipeline.checkpoint());
  std::string content;
  {
    std::ifstream in(file);
    std::string line;
    for (int i = 0; i < 4 && std::getline(in, line); ++i) {
      content += line + "\n";
    }
  }
  EXPECT_NE(content.find("\npipeline_rng "), std::string::npos) << content;
  reject(content, "4");
}

}  // namespace
}  // namespace orbis::gen
