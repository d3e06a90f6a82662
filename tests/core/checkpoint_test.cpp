#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/parallel_sampler.h"
#include "quant/row_codec.h"
#include "tests/core/test_fixtures.h"

namespace scd::core {
namespace {

using testing::small_planted_fixture;

Checkpoint make_checkpoint() {
  Checkpoint c;
  c.iteration = 1234;
  c.hyper.num_communities = 6;
  c.hyper.alpha = 0.05;
  c.hyper.delta = 1e-4;
  c.pi = PiMatrix(20, 6);
  c.pi.init_random(9);
  c.global = GlobalState(6);
  c.global.init_random(9, c.hyper);
  return c;
}

TEST(CheckpointTest, StreamRoundTripIsExact) {
  const Checkpoint original = make_checkpoint();
  std::stringstream buffer;
  save_checkpoint(buffer, original);
  const Checkpoint loaded = load_checkpoint(buffer);
  EXPECT_EQ(loaded.iteration, original.iteration);
  EXPECT_EQ(loaded.hyper.num_communities, original.hyper.num_communities);
  EXPECT_DOUBLE_EQ(loaded.hyper.alpha, original.hyper.alpha);
  EXPECT_DOUBLE_EQ(loaded.hyper.delta, original.hyper.delta);
  for (std::uint32_t v = 0; v < 20; ++v) {
    for (std::uint32_t i = 0; i < 7; ++i) {
      ASSERT_EQ(loaded.pi.row(v)[i], original.pi.row(v)[i]);
    }
  }
  for (std::uint32_t k = 0; k < 6; ++k) {
    EXPECT_EQ(loaded.global.theta(k, 0), original.global.theta(k, 0));
    EXPECT_EQ(loaded.global.theta(k, 1), original.global.theta(k, 1));
    EXPECT_EQ(loaded.global.beta(k), original.global.beta(k));
  }
}

TEST(CheckpointTest, BadMagicRejected) {
  std::stringstream buffer;
  buffer << "not a checkpoint at all, sorry";
  EXPECT_THROW(load_checkpoint(buffer), scd::DataError);
}

TEST(CheckpointTest, TruncationRejected) {
  const Checkpoint original = make_checkpoint();
  std::stringstream buffer;
  save_checkpoint(buffer, original);
  const std::string full = buffer.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_checkpoint(cut), scd::DataError);
}

TEST(CheckpointTest, FileRoundTrip) {
  const Checkpoint original = make_checkpoint();
  const std::string path = ::testing::TempDir() + "scd_ckpt_test.bin";
  save_checkpoint_file(path, original);
  const Checkpoint loaded = load_checkpoint_file(path);
  EXPECT_EQ(loaded.iteration, original.iteration);
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileRejected) {
  EXPECT_THROW(load_checkpoint_file("/no/such/checkpoint.bin"),
               scd::DataError);
}

// The headline property: resume == uninterrupted, bit for bit.
TEST(CheckpointTest, ResumedRunContinuesExactTrajectory) {
  auto f = small_planted_fixture(8080, 120, 4, 60);
  f.options.eval_interval = 10;
  ParallelSampler uninterrupted(f.split->training(), f.split.get(), f.hyper,
                                f.options, 1);
  uninterrupted.run(80);

  ParallelSampler first_half(f.split->training(), f.split.get(), f.hyper,
                             f.options, 1);
  first_half.run(40);
  std::stringstream buffer;
  save_checkpoint(buffer, first_half.checkpoint());

  ParallelSampler resumed(f.split->training(), f.split.get(), f.hyper,
                          f.options, 1);
  resumed.restore(load_checkpoint(buffer));
  EXPECT_EQ(resumed.iteration(), 40u);
  resumed.run(40);

  const PiMatrix& a = uninterrupted.pi();
  const PiMatrix& b = resumed.pi();
  for (std::uint32_t v = 0; v < a.num_vertices(); ++v) {
    for (std::uint32_t k = 0; k < a.num_communities(); ++k) {
      ASSERT_EQ(a.pi(v, k), b.pi(v, k)) << "v=" << v << " k=" << k;
    }
  }
  for (std::uint32_t k = 0; k < f.hyper.num_communities; ++k) {
    EXPECT_EQ(uninterrupted.global().beta(k), resumed.global().beta(k));
  }
}

TEST(CheckpointTest, BytesRoundTripIsExact) {
  const Checkpoint original = make_checkpoint();
  const std::string bytes = checkpoint_to_bytes(original);
  const Checkpoint loaded = checkpoint_from_bytes(bytes);
  EXPECT_EQ(loaded.iteration, original.iteration);
  for (std::uint32_t v = 0; v < 20; ++v) {
    for (std::uint32_t i = 0; i < 7; ++i) {
      ASSERT_EQ(loaded.pi.row(v)[i], original.pi.row(v)[i]);
    }
  }
  for (std::uint32_t k = 0; k < 6; ++k) {
    EXPECT_EQ(loaded.global.theta(k, 0), original.global.theta(k, 0));
    EXPECT_EQ(loaded.global.beta(k), original.global.beta(k));
  }
  EXPECT_THROW(checkpoint_from_bytes(bytes.substr(0, bytes.size() / 3)),
               scd::DataError);
  EXPECT_THROW(checkpoint_from_bytes("garbage"), scd::DataError);
}

// Restoring at an iteration that is NOT an eval boundary must still
// reproduce the uninterrupted trajectory bit-for-bit: every RNG stream
// is keyed on the iteration counter carried by the checkpoint, not on
// anything accumulated between evals.
TEST(CheckpointTest, MidIntervalRestoreReproducesTrajectory) {
  auto f = small_planted_fixture(6060, 120, 4, 60);
  f.options.eval_interval = 25;  // evals at 25, 50, 75
  ParallelSampler uninterrupted(f.split->training(), f.split.get(), f.hyper,
                                f.options, 1);
  uninterrupted.run(80);

  ParallelSampler first_part(f.split->training(), f.split.get(), f.hyper,
                             f.options, 1);
  first_part.run(35);  // between the first and second eval
  const std::string bytes = checkpoint_to_bytes(first_part.checkpoint());

  ParallelSampler resumed(f.split->training(), f.split.get(), f.hyper,
                          f.options, 1);
  resumed.restore(checkpoint_from_bytes(bytes));
  EXPECT_EQ(resumed.iteration(), 35u);
  resumed.run(45);

  const PiMatrix& a = uninterrupted.pi();
  const PiMatrix& b = resumed.pi();
  for (std::uint32_t v = 0; v < a.num_vertices(); ++v) {
    for (std::uint32_t k = 0; k < a.num_communities(); ++k) {
      ASSERT_EQ(a.pi(v, k), b.pi(v, k)) << "v=" << v << " k=" << k;
    }
  }
  for (std::uint32_t k = 0; k < f.hyper.num_communities; ++k) {
    EXPECT_EQ(uninterrupted.global().beta(k), resumed.global().beta(k));
    EXPECT_EQ(uninterrupted.global().theta(k, 0),
              resumed.global().theta(k, 0));
    EXPECT_EQ(uninterrupted.global().theta(k, 1),
              resumed.global().theta(k, 1));
  }
}

TEST(CheckpointTest, CrossSamplerHandoff) {
  // Train at 4 threads, checkpoint, resume at 1 thread: the thread
  // count changes neither the state format nor the trajectory.
  auto f = small_planted_fixture(9090, 120, 4, 60);
  f.options.eval_interval = 0;
  ParallelSampler parallel(f.split->training(), f.split.get(), f.hyper,
                           f.options, 4);
  parallel.run(30);

  ParallelSampler single(f.split->training(), f.split.get(), f.hyper,
                             f.options, 1);
  single.restore(parallel.checkpoint());
  single.run(30);

  ParallelSampler reference(f.split->training(), f.split.get(), f.hyper,
                            f.options, 1);
  reference.run(60);
  for (std::uint32_t k = 0; k < f.hyper.num_communities; ++k) {
    EXPECT_EQ(single.global().beta(k), reference.global().beta(k));
  }
}

// The loader writes each pi float once into storage it never zeroed: a
// v1 load copies the body in one piece, v2/v3 loads decode into the
// rows. A copy or a move of what it returns holds the same bytes.
TEST(CheckpointTest, LoadedPiCopiesAndMovesAreByteEqual) {
  using testing::pi_bits;
  const Checkpoint source = make_checkpoint();
  for (const quant::RowCodec codec :
       {quant::RowCodec::kFloat32, quant::RowCodec::kFp16,
        quant::RowCodec::kSparseTopR}) {
    const Checkpoint loaded =
        checkpoint_from_bytes(checkpoint_to_bytes(source, codec));
    const std::vector<std::uint32_t> bits = pi_bits(loaded.pi);
    if (codec == quant::RowCodec::kFloat32) {
      EXPECT_EQ(bits, pi_bits(source.pi));
    }
    const PiMatrix copied(loaded.pi);
    EXPECT_EQ(pi_bits(copied), bits) << quant::codec_name(codec);
    PiMatrix assigned(1, 1);
    assigned = loaded.pi;
    EXPECT_EQ(pi_bits(assigned), bits) << quant::codec_name(codec);
    PiMatrix same_shape(loaded.pi.num_vertices(),
                        loaded.pi.num_communities());
    same_shape = loaded.pi;
    EXPECT_EQ(pi_bits(same_shape), bits) << quant::codec_name(codec);
    PiMatrix source_copy(loaded.pi);
    const PiMatrix moved(std::move(source_copy));
    EXPECT_EQ(pi_bits(moved), bits) << quant::codec_name(codec);
    PiMatrix move_assigned(1, 1);
    move_assigned = PiMatrix(loaded.pi);
    EXPECT_EQ(pi_bits(move_assigned), bits) << quant::codec_name(codec);
    EXPECT_EQ(move_assigned.num_vertices(), loaded.pi.num_vertices());
    EXPECT_EQ(move_assigned.num_communities(),
              loaded.pi.num_communities());
  }
}

TEST(CheckpointTest, RestoreValidatesShape) {
  auto f = small_planted_fixture(1010, 120, 4, 60);
  ParallelSampler sampler(f.split->training(), f.split.get(), f.hyper,
                          f.options, 1);
  Checkpoint wrong = make_checkpoint();  // 20 vertices, K=6
  EXPECT_THROW(sampler.restore(wrong), scd::UsageError);
}

template <typename Sampler>
void expect_restore_refused(Sampler& sampler, const Checkpoint& bad,
                            const char* expect) {
  try {
    sampler.restore(bad);
    ADD_FAILURE() << "restore accepted the row";
  } catch (const scd::DataError& e) {
    EXPECT_NE(std::string(e.what()).find(expect), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointTest, RestoreRefusesUntrainablePiRows) {
  // The checkpoint loader accepts these rows; resuming training from
  // them must fail up front with the vertex and column, not as an
  // invariant failure inside the first SGRLD row update.
  auto f = small_planted_fixture(1011, 120, 4, 60);
  ParallelSampler single(f.split->training(), f.split.get(), f.hyper,
                             f.options, 1);
  ParallelSampler parallel(f.split->training(), f.split.get(), f.hyper,
                           f.options, 2);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const struct {
    std::uint32_t column;
    float value;
    const char* expect;
  } kCases[] = {
      {1, nan, "vertex 7 column 1"},
      {2, inf, "vertex 7 column 2"},
      {3, -1e-3f, "vertex 7 column 3"},
      {4, 0.0f, "phi_sum for vertex 7"},
      {4, -inf, "phi_sum for vertex 7"},
      {4, nan, "phi_sum for vertex 7"},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.expect);
    Checkpoint bad = parallel.checkpoint();
    bad.pi.row(7)[c.column] = c.value;
    expect_restore_refused(single, bad, c.expect);
    expect_restore_refused(parallel, bad, c.expect);
  }
  // Zero pi weights are legal (the row update floors them).
  Checkpoint zero = parallel.checkpoint();
  zero.pi.row(7)[0] = 0.0f;
  parallel.restore(zero);
  parallel.run(2);
}

/// FNV-1a 64 over a byte string.
std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The on-disk format is pinned byte for byte: a fixed-seed model whose
// even rows are concentrated (sparse codecs store them truncated) and
// whose odd rows keep the near-uniform init (sparse codecs fall back to
// the dense slot) must hash to the same constants in every codec, and
// the stream writer must produce exactly the bytes of the in-memory one.
TEST(CheckpointTest, WriterBytesAreStable) {
  Checkpoint model;
  model.iteration = 31337;
  model.hyper.num_communities = 40;
  model.hyper.alpha = 0.025;
  model.hyper.delta = 1e-5;
  model.pi = PiMatrix(9, 40);
  model.pi.init_random(2024);
  model.global = GlobalState(40);
  model.global.init_random(2024, model.hyper);
  for (std::uint32_t v = 0; v < 9; v += 2) {
    auto row = model.pi.row(v);
    std::fill(row.begin(), row.end() - 1, 2e-4f);
    row[v] = 0.55f;
    row[39 - v] = 0.3f;
    row[20] = 0.14f;
  }
  const struct {
    quant::RowCodec codec;
    std::uint64_t fnv;
  } kPinned[] = {
      {quant::RowCodec::kFloat32, 0x6362690e055cd09cULL},
      {quant::RowCodec::kFp16, 0xcbd2e3c4f330d12cULL},
      {quant::RowCodec::kInt8, 0xa8eeacd01a34f555ULL},
      {quant::RowCodec::kSparseTopR, 0xd0e05350f08247faULL},
      {quant::RowCodec::kSparseTopRFp16, 0xb5ca6efb8eb7b745ULL},
      {quant::RowCodec::kSparseTopRInt8, 0xa8ed782678b35818ULL},
  };
  for (const auto& pinned : kPinned) {
    SCOPED_TRACE(quant::codec_name(pinned.codec));
    const std::string bytes = checkpoint_to_bytes(model, pinned.codec);
    EXPECT_EQ(fnv1a64(bytes), pinned.fnv);
    std::stringstream stream;
    save_checkpoint(stream, model, pinned.codec);
    EXPECT_EQ(stream.str(), bytes);
  }
}

}  // namespace
}  // namespace scd::core
