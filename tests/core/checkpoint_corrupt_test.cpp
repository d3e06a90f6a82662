// Corrupted-input matrix for the checkpoint loader: every byte string
// here is hostile (truncated, bit-flipped, or outright garbage) and the
// loader must answer each with a clear scd::DataError — never UB, never
// a giant allocation sized from a garbage header, never a half-filled
// matrix passed off as loaded. Runs under the asan preset, which would
// catch the UB outcomes.
#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "quant/row_codec.h"
#include "random/xoshiro.h"

namespace scd::core {
namespace {

Checkpoint make_checkpoint(std::uint32_t n = 12, std::uint32_t k = 5) {
  Checkpoint c;
  c.iteration = 42;
  c.hyper.num_communities = k;
  c.hyper.delta = 1e-3;
  c.pi = PiMatrix(n, k);
  c.pi.init_random(7);
  c.global = GlobalState(k);
  c.global.init_random(7, c.hyper);
  return c;
}

std::string bytes_for(quant::RowCodec codec) {
  return checkpoint_to_bytes(make_checkpoint(), codec);
}

void expect_rejected(const std::string& bytes) {
  EXPECT_THROW((void)checkpoint_from_bytes(bytes), scd::DataError);
}

/// Overwrite sizeof(T) bytes at `offset` with `value`.
template <typename T>
std::string patched(std::string bytes, std::size_t offset, T value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
  return bytes;
}

// Header layout (offsets in bytes): magic u64 @0, version u32 @8,
// iteration u64 @12, K u32 @20, alpha f64 @24, eta0 f64 @32,
// eta1 f64 @40, delta f64 @48, n u32 @56, then (v2/v3) codec tag u32.
constexpr std::size_t kVersionOffset = 8;
constexpr std::size_t kKOffset = 20;
constexpr std::size_t kDeltaOffset = 48;
constexpr std::size_t kNOffset = 56;
constexpr std::size_t kTagOffset = 60;

const quant::RowCodec kAllCodecs[] = {
    quant::RowCodec::kFloat32,       quant::RowCodec::kFp16,
    quant::RowCodec::kInt8,          quant::RowCodec::kSparseTopR,
    quant::RowCodec::kSparseTopRFp16, quant::RowCodec::kSparseTopRInt8,
};

// Every strict prefix of a valid checkpoint must be rejected — the
// exhaustive truncation sweep, for every on-disk version (v1 fp32, v2
// dense-encoded, v3 sparse length-prefixed).
TEST(CheckpointCorruptTest, EveryTruncationRejectedAllCodecs) {
  for (const quant::RowCodec codec : kAllCodecs) {
    const std::string full = bytes_for(codec);
    // Sweep all short prefixes near field boundaries, and sample the
    // (larger) row/theta body with a stride to keep the test quick.
    for (std::size_t cut = 0; cut < full.size();
         cut += (cut < 80 ? 1 : 7)) {
      EXPECT_THROW((void)checkpoint_from_bytes(full.substr(0, cut)),
                   scd::DataError)
          << "codec " << quant::codec_name(codec) << " cut " << cut;
    }
  }
}

TEST(CheckpointCorruptTest, EmptyAndGarbageRejected) {
  expect_rejected("");
  expect_rejected("x");
  expect_rejected(std::string(4096, '\xab'));
  std::string zeros(4096, '\0');
  expect_rejected(zeros);
}

TEST(CheckpointCorruptTest, BadMagicRejected) {
  std::string bytes = bytes_for(quant::RowCodec::kFloat32);
  bytes[0] ^= 0x01;
  expect_rejected(bytes);
}

TEST(CheckpointCorruptTest, UnknownVersionRejected) {
  const std::string bytes = bytes_for(quant::RowCodec::kFloat32);
  expect_rejected(patched<std::uint32_t>(bytes, kVersionOffset, 0));
  expect_rejected(patched<std::uint32_t>(bytes, kVersionOffset, 4));
  expect_rejected(patched<std::uint32_t>(bytes, kVersionOffset, 0xffffffff));
}

TEST(CheckpointCorruptTest, CorruptHyperRejected) {
  const std::string bytes = bytes_for(quant::RowCodec::kFloat32);
  // delta outside (0, 1) fails hyper validation with a clear message.
  expect_rejected(patched<double>(bytes, kDeltaOffset, -1.0));
  expect_rejected(patched<double>(bytes, kDeltaOffset, 7.5));
  // K = 0 fails "need at least one community".
  expect_rejected(patched<std::uint32_t>(bytes, kKOffset, 0));
}

// The allocation guards: a garbage n or K must be rejected by the
// header/stream sanity checks BEFORE the loader sizes a PiMatrix from
// them (a ~16-byte file claiming 4 billion vertices must not allocate
// terabytes or crash).
TEST(CheckpointCorruptTest, HugeVertexCountRejectedBeforeAllocation) {
  for (const quant::RowCodec codec : kAllCodecs) {
    const std::string bytes = bytes_for(codec);
    expect_rejected(patched<std::uint32_t>(bytes, kNOffset, 0xffffffff));
    expect_rejected(patched<std::uint32_t>(bytes, kNOffset, 1u << 30));
  }
}

TEST(CheckpointCorruptTest, HugeCommunityCountRejectedBeforeAllocation) {
  const std::string bytes = bytes_for(quant::RowCodec::kFloat32);
  // K = 2^32 - 1 would overflow the K+1 row width; the sanity cap
  // rejects it first.
  expect_rejected(patched<std::uint32_t>(bytes, kKOffset, 0xffffffff));
  expect_rejected(patched<std::uint32_t>(bytes, kKOffset, (1u << 24) + 1));
}

TEST(CheckpointCorruptTest, ZeroVerticesRejected) {
  const std::string bytes = bytes_for(quant::RowCodec::kFloat32);
  expect_rejected(patched<std::uint32_t>(bytes, kNOffset, 0));
}

TEST(CheckpointCorruptTest, BadCodecTagRejected) {
  const std::string v2 = bytes_for(quant::RowCodec::kFp16);
  expect_rejected(patched<std::uint32_t>(v2, kTagOffset, 0xffffffff));
  expect_rejected(patched<std::uint32_t>(v2, kTagOffset, 250));
  // Cross-version tag confusion: a sparse tag in a v2 file and a dense
  // tag in a v3 file are both structural lies.
  expect_rejected(patched<std::uint32_t>(
      v2, kTagOffset,
      static_cast<std::uint32_t>(quant::RowCodec::kSparseTopR)));
  const std::string v3 = bytes_for(quant::RowCodec::kSparseTopR);
  expect_rejected(patched<std::uint32_t>(
      v3, kTagOffset,
      static_cast<std::uint32_t>(quant::RowCodec::kFloat32)));
}

TEST(CheckpointCorruptTest, SparseRowLengthViolationsRejected) {
  const std::string v3 = bytes_for(quant::RowCodec::kSparseTopR);
  // The first row's u32 length prefix sits right after the tag.
  constexpr std::size_t kFirstRowLen = kTagOffset + 4;
  // Zero-length and absurd lengths are outside (0, capacity].
  expect_rejected(patched<std::uint32_t>(v3, kFirstRowLen, 0));
  expect_rejected(patched<std::uint32_t>(v3, kFirstRowLen, 0xffffffff));
  expect_rejected(patched<std::uint32_t>(v3, kFirstRowLen, 1u << 20));
}

/// K = 64 checkpoint for the sparse codecs: even rows concentrate their
/// mass on communities 5, 17 and 40, so they are stored in sparse form
/// (nnz = 3); odd rows keep the near-uniform init and take the dense
/// fallback (nnz = K).
constexpr std::uint32_t kSparseK = 64;
Checkpoint mixed_sparse_checkpoint(std::uint32_t n = 6) {
  Checkpoint c = make_checkpoint(n, kSparseK);
  for (std::uint32_t v = 0; v < n; v += 2) {
    auto row = c.pi.row(v);
    std::fill(row.begin(), row.end() - 1, 1e-4f);
    row[5] = 0.5f;
    row[17] = 0.3f;
    row[40] = 0.19f;
  }
  return c;
}

template <typename T>
T read_at(const std::string& bytes, std::size_t offset) {
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  return value;
}

// Rows whose length prefix is in range but whose content the writer
// cannot produce. Before the content check, an index >= K wrote through
// row[idx] and an nnz in (K/2, K) read past the capacity slot.
TEST(CheckpointCorruptTest, SparseRowContentViolationsRejected) {
  constexpr std::size_t kRow0Len = kTagOffset + 4;
  constexpr std::size_t kRow0Nnz = kRow0Len + 4;
  constexpr std::size_t kRow0Idx = kRow0Nnz + quant::kSparseHeaderBytes;
  for (const quant::RowCodec codec :
       {quant::RowCodec::kSparseTopR, quant::RowCodec::kSparseTopRFp16,
        quant::RowCodec::kSparseTopRInt8}) {
    SCOPED_TRACE(quant::codec_name(codec));
    const std::string v3 =
        checkpoint_to_bytes(mixed_sparse_checkpoint(), codec);
    ASSERT_NO_THROW((void)checkpoint_from_bytes(v3));
    // The layout this test patches: row 0 sparse with u16 indices
    // {5, 17, 40}, row 1 the dense fallback.
    ASSERT_EQ(read_at<std::uint32_t>(v3, kRow0Nnz), 3u);
    ASSERT_EQ(read_at<std::uint16_t>(v3, kRow0Idx), 5u);
    ASSERT_EQ(read_at<std::uint16_t>(v3, kRow0Idx + 2), 17u);
    const std::size_t row1_nnz =
        kRow0Nnz + read_at<std::uint32_t>(v3, kRow0Len) + 4;
    ASSERT_EQ(read_at<std::uint32_t>(v3, row1_nnz), kSparseK);

    // Indices out of range: far beyond K, and exactly K.
    expect_rejected(patched<std::uint16_t>(v3, kRow0Idx, 60000));
    expect_rejected(patched<std::uint16_t>(v3, kRow0Idx, kSparseK));
    // Indices not strictly ascending: a duplicate and a descent.
    expect_rejected(patched<std::uint16_t>(v3, kRow0Idx + 2, 5));
    expect_rejected(patched<std::uint16_t>(v3, kRow0Idx + 2, 3));
    // nnz in (K/2, K): neither a sparse form nor the fallback sentinel.
    expect_rejected(patched<std::uint32_t>(v3, kRow0Nnz, kSparseK - 1));
    expect_rejected(patched<std::uint32_t>(v3, kRow0Nnz, kSparseK / 2 + 1));
    // nnz that disagrees with the stored length, in both directions.
    expect_rejected(patched<std::uint32_t>(v3, kRow0Nnz, 2));
    expect_rejected(patched<std::uint32_t>(v3, kRow0Nnz, kSparseK));
    expect_rejected(patched<std::uint32_t>(v3, row1_nnz, 3));
  }
}

// Random byte mutations of a valid checkpoint, every codec: each mutant
// must either load or be refused with scd::DataError. Any other
// exception fails the test, and under the asan preset so does any
// out-of-bounds access a mutant provokes.
TEST(CheckpointCorruptTest, RandomByteMutationsLoadOrRefuse) {
  constexpr int kMutantsPerCodec = 2000;
  rng::Xoshiro256 rng(20240917);
  for (const quant::RowCodec codec : kAllCodecs) {
    SCOPED_TRACE(quant::codec_name(codec));
    const std::string valid =
        checkpoint_to_bytes(mixed_sparse_checkpoint(), codec);
    int loaded = 0;
    int refused = 0;
    for (int m = 0; m < kMutantsPerCodec; ++m) {
      std::string bytes = valid;
      const std::uint64_t writes = 1 + rng.next_below(3);
      for (std::uint64_t w = 0; w < writes; ++w) {
        bytes[rng.next_below(bytes.size())] = static_cast<char>(rng() & 0xff);
      }
      try {
        (void)checkpoint_from_bytes(bytes);
        ++loaded;
      } catch (const scd::DataError&) {
        ++refused;
      }
    }
    // Payload mutants load and header mutants refuse, so a sweep that
    // only ever saw one outcome is not exercising the loader.
    EXPECT_GT(loaded, 0);
    EXPECT_GT(refused, 0);
  }
}

// The theta block closes every version's body. A NaN, an infinity or a
// negative value would reach beta (NaN, or the silent 0.5 fallback) and
// from there every served link probability, so the loader refuses it
// and names the community and slot. Zero stays loadable.
TEST(CheckpointCorruptTest, NonFiniteOrNegativeThetaRejected) {
  constexpr std::uint32_t kK = 5;
  constexpr std::uint32_t kCommunity = 2;
  constexpr std::uint32_t kSlot = 1;
  for (const quant::RowCodec codec : kAllCodecs) {
    SCOPED_TRACE(quant::codec_name(codec));
    const std::string bytes = checkpoint_to_bytes(make_checkpoint(12, kK),
                                                  codec);
    const std::size_t theta_offset = bytes.size() - kK * 2 * sizeof(double);
    const std::size_t slot_offset =
        theta_offset + (kCommunity * 2 + kSlot) * sizeof(double);
    for (const double bad :
         {std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(), -1.0}) {
      SCOPED_TRACE(bad);
      try {
        (void)checkpoint_from_bytes(patched<double>(bytes, slot_offset, bad));
        ADD_FAILURE() << "theta " << bad << " was accepted";
      } catch (const scd::DataError& e) {
        EXPECT_NE(std::string(e.what()).find("community 2 slot 1"),
                  std::string::npos)
            << e.what();
      }
    }
    std::string zeros = patched<double>(bytes, slot_offset, 0.0);
    zeros = patched<double>(zeros, slot_offset - sizeof(double), 0.0);
    const Checkpoint loaded = checkpoint_from_bytes(zeros);
    EXPECT_EQ(loaded.global.beta(kCommunity), 0.5f);
  }
}

// Loader survives a row-level bit flip without structural failure: the
// decoded value changes but the checkpoint still loads (payload bytes
// are not integrity-checked — only structure is). This documents the
// boundary of the guarantee.
TEST(CheckpointCorruptTest, PayloadBitFlipStillLoadsStructurally) {
  std::string bytes = bytes_for(quant::RowCodec::kFloat32);
  bytes[kNOffset + 4 + 2] ^= 0x10;  // inside the first pi row
  EXPECT_NO_THROW((void)checkpoint_from_bytes(bytes));
}

// A checkpoint embedded at the head of a longer stream still loads (the
// size check is a lower bound, not an exact-length demand).
TEST(CheckpointCorruptTest, TrailingBytesTolerated) {
  std::string bytes = bytes_for(quant::RowCodec::kFloat32);
  bytes += std::string(128, '\x7f');
  EXPECT_NO_THROW((void)checkpoint_from_bytes(bytes));
}

}  // namespace
}  // namespace scd::core
