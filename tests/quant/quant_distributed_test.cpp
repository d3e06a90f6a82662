// End-to-end codec behavior: trajectory transparency under kFloat32,
// bounded perplexity drift under the lossy codecs, checkpoint formats,
// and the tuner discovering quantization on a comms-bound workload.
#include <cmath>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/distributed_sampler.h"
#include "core/parallel_sampler.h"
#include "quant/row_codec.h"
#include "sim/cluster.h"
#include "tests/core/test_fixtures.h"
#include "tune/tuner.h"
#include "util/error.h"

namespace scd::core {
namespace {

using quant::RowCodec;
using testing::small_planted_fixture;

DistributedResult run_with_codec(RowCodec codec,
                                 std::uint64_t iterations = 60) {
  auto f = small_planted_fixture(907, 150, 4, 80);
  f.options.eval_interval = 20;
  sim::SimCluster::Config cc;
  cc.num_ranks = 5;
  sim::SimCluster cluster(cc);
  DistributedOptions options;
  options.base = f.options;
  options.chunk_vertices = 8;
  options.pi_codec = codec;
  DistributedSampler dist(cluster, f.split->training(), f.split.get(),
                          f.hyper, options);
  return dist.run(iterations);
}

// Under kFloat32 the encoded-row worker path must reproduce the
// single-thread ParallelSampler trajectory exactly like the pre-codec
// distributed sampler did — the codec layer is bit-transparent, not
// merely close.
TEST(QuantDistributedTest, Fp32CodecMatchesSequentialTrajectory) {
  auto f = small_planted_fixture(907, 150, 4, 80);
  f.options.eval_interval = 20;
  ParallelSampler single(f.split->training(), f.split.get(), f.hyper,
                         f.options, 1);
  single.run(60);

  const DistributedResult result = run_with_codec(RowCodec::kFloat32);
  ASSERT_EQ(result.history.size(), single.history().size());
  for (std::size_t i = 0; i < result.history.size(); ++i) {
    EXPECT_NEAR(result.history[i].perplexity, single.history()[i].perplexity,
                1e-6 * single.history()[i].perplexity)
        << "eval point " << i;
  }
}

TEST(QuantDistributedTest, RunsAreBitDeterministicPerCodec) {
  for (const RowCodec codec :
       {RowCodec::kFloat32, RowCodec::kFp16, RowCodec::kInt8}) {
    const DistributedResult a = run_with_codec(codec);
    const DistributedResult b = run_with_codec(codec);
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t i = 0; i < a.history.size(); ++i) {
      EXPECT_EQ(a.history[i].perplexity, b.history[i].perplexity)
          << quant::codec_name(codec) << " eval point " << i;
    }
  }
}

// The acceptance gate: lossy codecs stay within 1% of the fp32 held-out
// perplexity once the fixture converges (short runs compare mid-burn-in
// noise, not posterior quality; 300 iterations is well past the knee).
TEST(QuantDistributedTest, QuantizedPerplexityWithinOnePercentOfFloat) {
  const double fp32 =
      run_with_codec(RowCodec::kFloat32, 300).history.back().perplexity;
  for (const RowCodec codec : {RowCodec::kFp16, RowCodec::kInt8}) {
    const double perp =
        run_with_codec(codec, 300).history.back().perplexity;
    EXPECT_NEAR(perp, fp32, 0.01 * fp32) << quant::codec_name(codec);
  }
}

Checkpoint make_checkpoint(std::uint32_t n = 24, std::uint32_t k = 6) {
  Checkpoint c;
  c.iteration = 4321;
  c.hyper.num_communities = k;
  c.hyper.alpha = 0.05;
  c.hyper.delta = 1e-4;
  c.pi = PiMatrix(n, k);
  c.pi.init_random(17);
  c.global = GlobalState(k);
  c.global.init_random(17, c.hyper);
  return c;
}

TEST(QuantCheckpointTest, Fp32CheckpointIsByteIdenticalToVersion1) {
  const Checkpoint c = make_checkpoint();
  const std::string explicit_fp32 =
      checkpoint_to_bytes(c, RowCodec::kFloat32);
  const std::string default_arg = checkpoint_to_bytes(c);
  EXPECT_EQ(explicit_fp32, default_arg);
  // Version word (after the 8-byte magic) is 1: old readers still work.
  std::uint32_t version;
  std::memcpy(&version, explicit_fp32.data() + 8, sizeof(version));
  EXPECT_EQ(version, 1u);
  const Checkpoint loaded = checkpoint_from_bytes(explicit_fp32);
  for (std::uint32_t v = 0; v < c.pi.num_vertices(); ++v) {
    for (std::uint32_t i = 0; i < c.pi.row_width(); ++i) {
      ASSERT_EQ(loaded.pi.row(v)[i], c.pi.row(v)[i]) << "v=" << v;
    }
  }
}

TEST(QuantCheckpointTest, LossyCheckpointsRoundTripWithinCodecBounds) {
  const Checkpoint c = make_checkpoint();
  const std::string fp32_bytes = checkpoint_to_bytes(c);
  for (const RowCodec codec : {RowCodec::kFp16, RowCodec::kInt8}) {
    const std::string bytes = checkpoint_to_bytes(c, codec);
    EXPECT_LT(bytes.size(), fp32_bytes.size()) << quant::codec_name(codec);
    const Checkpoint loaded = checkpoint_from_bytes(bytes);
    EXPECT_EQ(loaded.iteration, c.iteration);
    for (std::uint32_t v = 0; v < c.pi.num_vertices(); ++v) {
      // Per-row reference: decode(encode(row)) from the codec itself.
      std::vector<std::byte> enc(
          quant::encoded_bytes(codec, c.pi.row_width()));
      std::vector<float> ref(c.pi.row_width());
      quant::encode_row(codec, c.pi.row(v), enc);
      quant::decode_row(codec, enc, ref);
      for (std::uint32_t i = 0; i < c.pi.row_width(); ++i) {
        ASSERT_EQ(loaded.pi.row(v)[i], ref[i])
            << quant::codec_name(codec) << " v=" << v << " i=" << i;
      }
    }
    // Theta is always exact regardless of the pi codec.
    for (std::uint32_t k = 0; k < 6; ++k) {
      EXPECT_EQ(loaded.global.theta(k, 0), c.global.theta(k, 0));
      EXPECT_EQ(loaded.global.theta(k, 1), c.global.theta(k, 1));
    }
  }
}

TEST(QuantCheckpointTest, UnknownCodecTagRejected) {
  std::string bytes = checkpoint_to_bytes(make_checkpoint(),
                                          RowCodec::kInt8);
  // The codec tag is the uint32 after magic(8) + version(4) +
  // iteration(8) + K(4) + four hyper doubles(32) + vertex count(4).
  constexpr std::size_t kTagOffset = 60;
  const std::uint32_t bogus = 99;
  std::memcpy(bytes.data() + kTagOffset, &bogus, sizeof(bogus));
  EXPECT_THROW(checkpoint_from_bytes(bytes), scd::DataError);
}

// Resuming a run from a checkpoint whose codec disagrees with the run's
// configured pi codec must fail loudly, naming both codecs — silently
// re-encoding lossy state would corrupt the trajectory's provenance.
// Every (checkpoint codec, run codec) pair is exercised: the diagonal
// must construct cleanly, everything off it must throw.
TEST(QuantDistributedTest, ResumeRejectsMismatchedCheckpointCodec) {
  auto f = small_planted_fixture(907, 150, 4, 80);
  sim::SimCluster::Config cc;
  cc.num_ranks = 3;

  Checkpoint cp;
  cp.iteration = 10;
  cp.hyper = f.hyper;
  cp.pi = PiMatrix(150, 4);
  cp.pi.init_random(31);
  cp.global = GlobalState(4);
  cp.global.init_random(31, f.hyper);

  const RowCodec all[] = {RowCodec::kFloat32,        RowCodec::kFp16,
                          RowCodec::kInt8,           RowCodec::kSparseTopR,
                          RowCodec::kSparseTopRFp16, RowCodec::kSparseTopRInt8};
  for (const RowCodec cp_codec : all) {
    cp.pi_codec = cp_codec;
    for (const RowCodec run_codec : all) {
      sim::SimCluster cluster(cc);
      DistributedOptions options;
      options.base = f.options;
      options.pi_codec = run_codec;
      options.resume_from = &cp;
      if (cp_codec == run_codec) {
        EXPECT_NO_THROW(DistributedSampler(cluster, f.split->training(),
                                           f.split.get(), f.hyper, options))
            << quant::codec_name(cp_codec);
      } else {
        try {
          DistributedSampler dist(cluster, f.split->training(),
                                  f.split.get(), f.hyper, options);
          FAIL() << "mismatch accepted: checkpoint "
                 << quant::codec_name(cp_codec) << " vs run "
                 << quant::codec_name(run_codec);
        } catch (const scd::UsageError& e) {
          const std::string what = e.what();
          EXPECT_NE(what.find(quant::codec_name(cp_codec)),
                    std::string::npos)
              << what;
          EXPECT_NE(what.find(quant::codec_name(run_codec)),
                    std::string::npos)
              << what;
        }
      }
    }
  }
}

// On a comms-bound workload where pi transfer dominates the iteration,
// the tuner must discover that quantizing the DKV rows is a win: the
// best configuration uses a lossy codec (int8 strictly dominates on the
// modeled cost, which knows nothing about quantization error).
TEST(QuantTuneTest, TunerPicksLossyCodecWhenCommsBound) {
  tune::TuneWorkload w;
  w.num_vertices = 1u << 21;
  w.avg_degree = 32.0;
  w.num_communities = 1024;
  w.sat_vertices = 8192.0;

  tune::SearchSpace s;
  s.dim(tune::Dim::kWorkers) = {8};
  s.dim(tune::Dim::kThreadsPerNode) = {16};
  s.dim(tune::Dim::kPipeline) = {0, 1};
  s.dim(tune::Dim::kMinibatchVertices) = {4096};
  s.dim(tune::Dim::kPiCodec) = {0, 1, 2};
  s.dim(tune::Dim::kSparsity) = {0};
  s.validate();

  const tune::TuneResult result = tune::tune(w, s);
  EXPECT_EQ(result.best.config.pi_codec, RowCodec::kInt8)
      << "best key: " << result.best.config.key();
}

}  // namespace
}  // namespace scd::core
