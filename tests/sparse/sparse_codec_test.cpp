// The adaptive top-R sparse codecs: layout, selection, fallback.
//
// Converged pi rows concentrate their mass on a handful of communities;
// the sparse codecs keep the smallest value-descending prefix covering
// (1 - eps) of the row mass and spread the dropped remainder uniformly
// on decode. These tests pin the byte layout (header | sorted indices |
// values | fp32 tail), the capacity-slot semantics (fixed encoded_bytes
// stride, variable row_bytes), the dense fallback sentinel (nnz == K),
// and determinism of the encoding.
#include <algorithm>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "quant/row_codec.h"
#include "random/xoshiro.h"
#include "util/error.h"

namespace scd::quant {
namespace {

constexpr RowCodec kSparseCodecs[] = {RowCodec::kSparseTopR,
                                      RowCodec::kSparseTopRFp16,
                                      RowCodec::kSparseTopRInt8};

/// A row whose mass concentrates on `support` communities, with
/// `tail_mass` spread over the rest — the converged-sampler shape the
/// sparse codecs are built for. Heavy entries are strided across the
/// index range so the sorted-index path is exercised.
std::vector<float> concentrated_row(rng::Xoshiro256& rng, std::uint32_t k,
                                    std::uint32_t support, float tail_mass,
                                    float phi_sum) {
  std::vector<float> row(k + 1, 0.0f);
  std::vector<double> tail(k);
  double tsum = 0.0;
  for (std::uint32_t i = 0; i < k; ++i) {
    tail[i] = rng.next_double() + 0.1;
    tsum += tail[i];
  }
  for (std::uint32_t i = 0; i < k; ++i) {
    row[i] = static_cast<float>(tail[i] / tsum * tail_mass);
  }
  std::vector<double> heavy(support);
  double hsum = 0.0;
  for (double& h : heavy) {
    h = 0.5 + rng.next_double();
    hsum += h;
  }
  const std::uint32_t stride = std::max(1u, k / support);
  for (std::uint32_t s = 0; s < support; ++s) {
    row[(s * stride) % k] =
        static_cast<float>(heavy[s] / hsum * (1.0 - tail_mass));
  }
  row[k] = phi_sum;
  return row;
}

std::vector<float> uniform_row(std::uint32_t k, float phi_sum) {
  std::vector<float> row(k + 1, 1.0f / static_cast<float>(k));
  row[k] = phi_sum;
  return row;
}

std::vector<std::byte> encode(RowCodec codec, std::span<const float> row,
                              float eps = kDefaultSparseEps) {
  std::vector<std::byte> enc(
      encoded_bytes(codec, static_cast<std::uint32_t>(row.size())));
  encode_row(codec, row, enc, eps);
  return enc;
}

std::vector<float> decode(RowCodec codec, std::span<const std::byte> enc,
                          std::uint32_t width) {
  std::vector<float> row(width);
  decode_row(codec, enc, row);
  return row;
}

TEST(SparseCodecTest, NamesRoundTripAndAliasesResolve) {
  for (const RowCodec codec : kSparseCodecs) {
    EXPECT_EQ(codec_from_name(codec_name(codec)), codec);
  }
  EXPECT_EQ(codec_from_name("sparse-topr"), RowCodec::kSparseTopR);
  EXPECT_EQ(codec_from_name("sparse"), RowCodec::kSparseTopR);
  EXPECT_EQ(codec_from_name("sparse-topr-fp16"), RowCodec::kSparseTopRFp16);
  EXPECT_EQ(codec_from_name("sparse-topr-int8"), RowCodec::kSparseTopRInt8);
  EXPECT_THROW(codec_from_name("sparse-top-r"), scd::UsageError);
}

TEST(SparseCodecTest, SparsePredicateAndValueCodec) {
  EXPECT_TRUE(is_sparse(RowCodec::kSparseTopR));
  EXPECT_TRUE(is_sparse(RowCodec::kSparseTopRFp16));
  EXPECT_TRUE(is_sparse(RowCodec::kSparseTopRInt8));
  EXPECT_FALSE(is_sparse(RowCodec::kFloat32));
  EXPECT_FALSE(is_sparse(RowCodec::kInt8));
  EXPECT_EQ(value_codec(RowCodec::kSparseTopR), RowCodec::kFloat32);
  EXPECT_EQ(value_codec(RowCodec::kSparseTopRFp16), RowCodec::kFp16);
  EXPECT_EQ(value_codec(RowCodec::kSparseTopRInt8), RowCodec::kInt8);
  EXPECT_EQ(value_codec(RowCodec::kFp16), RowCodec::kFp16);
}

TEST(SparseCodecTest, SparseCodecForLiftsDenseOnly) {
  EXPECT_EQ(sparse_codec_for(RowCodec::kFloat32), RowCodec::kSparseTopR);
  EXPECT_EQ(sparse_codec_for(RowCodec::kFp16), RowCodec::kSparseTopRFp16);
  EXPECT_EQ(sparse_codec_for(RowCodec::kInt8), RowCodec::kSparseTopRInt8);
  EXPECT_THROW(sparse_codec_for(RowCodec::kSparseTopR), scd::UsageError);
}

TEST(SparseCodecTest, ConcentratedRowEncodesSparseForm) {
  rng::Xoshiro256 rng(101);
  for (const RowCodec codec : kSparseCodecs) {
    for (const std::uint32_t k : {64u, 256u, 1024u}) {
      constexpr std::uint32_t kSupport = 8;
      const std::vector<float> row =
          concentrated_row(rng, k, kSupport, 0.002f, 5.0f);
      const auto enc = encode(codec, row);
      const std::uint32_t nnz = row_nnz(codec, k + 1, enc);
      EXPECT_GE(nnz, 1u) << codec_name(codec) << " K=" << k;
      EXPECT_LE(nnz, kSupport) << codec_name(codec) << " K=" << k;
      // Actual bytes follow the layout formula and fit the capacity slot.
      EXPECT_EQ(row_bytes(codec, k + 1, enc),
                kSparseHeaderBytes + sparse_payload_bytes(codec, nnz, k));
      EXPECT_LT(row_bytes(codec, k + 1, enc), encoded_bytes(codec, k + 1));
    }
  }
}

TEST(SparseCodecTest, DecodePreservesMassAndTail) {
  rng::Xoshiro256 rng(103);
  for (const RowCodec codec : kSparseCodecs) {
    const std::uint32_t k = 256;
    const std::vector<float> row = concentrated_row(rng, k, 6, 0.003f, 7.5f);
    const auto enc = encode(codec, row);
    const auto dec = decode(codec, enc, k + 1);
    // phi_sum rides in the fp32 tail, exact under every variant.
    EXPECT_EQ(dec[k], row[k]) << codec_name(codec);
    double orig_mass = 0.0;
    double dec_mass = 0.0;
    for (std::uint32_t i = 0; i < k; ++i) {
      orig_mass += row[i];
      dec_mass += dec[i];
    }
    // Residual spreading keeps the row mass: dropped entries carry
    // residual_mass / (K - nnz) so the total survives the truncation
    // (within the value codec's error on the kept entries).
    const double tol = codec == RowCodec::kSparseTopR ? 1e-5 : 5e-3;
    EXPECT_NEAR(dec_mass, orig_mass, tol) << codec_name(codec);
    // All dropped entries decode to one shared epsilon.
    const std::uint32_t nnz = row_nnz(codec, k + 1, enc);
    ASSERT_LT(nnz, k);
    std::vector<float> sorted(dec.begin(), dec.end() - 1);
    std::sort(sorted.begin(), sorted.end());
    const float eps_value = sorted.front();
    std::uint32_t at_eps = 0;
    for (std::uint32_t i = 0; i < k; ++i) {
      if (dec[i] == eps_value) ++at_eps;
    }
    EXPECT_GE(at_eps, k - nnz) << codec_name(codec);
  }
}

TEST(SparseCodecTest, PureFp32VariantKeepsTopEntriesExact) {
  rng::Xoshiro256 rng(105);
  const std::uint32_t k = 128;
  const std::vector<float> row = concentrated_row(rng, k, 5, 0.002f, 3.0f);
  const auto enc = encode(RowCodec::kSparseTopR, row);
  const auto dec = decode(RowCodec::kSparseTopR, enc, k + 1);
  const std::uint32_t nnz = row_nnz(RowCodec::kSparseTopR, k + 1, enc);
  // The nnz largest entries must round-trip bit-exactly under the fp32
  // value codec; everything else becomes the shared epsilon.
  std::vector<std::uint32_t> order(k);
  for (std::uint32_t i = 0; i < k; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return row[a] != row[b] ? row[a] > row[b] : a < b;
  });
  for (std::uint32_t r = 0; r < nnz; ++r) {
    EXPECT_EQ(dec[order[r]], row[order[r]]) << "rank " << r;
  }
}

TEST(SparseCodecTest, UniformRowFallsBackDense) {
  for (const RowCodec codec : kSparseCodecs) {
    for (const std::uint32_t k : {64u, 1000u}) {
      const std::vector<float> row = uniform_row(k, 2.0f);
      const auto enc = encode(codec, row);
      // Sentinel: row_nnz reports the full width-1, and the payload is
      // the value codec's dense encoding behind the 8-byte header.
      EXPECT_EQ(row_nnz(codec, k + 1, enc), k) << codec_name(codec);
      EXPECT_EQ(row_bytes(codec, k + 1, enc),
                kSparseHeaderBytes + encoded_bytes(value_codec(codec), k + 1))
          << codec_name(codec);
      const auto dec = decode(codec, enc, k + 1);
      std::vector<std::byte> dense_enc(
          encoded_bytes(value_codec(codec), k + 1));
      encode_row(value_codec(codec), row, dense_enc);
      const auto dense_dec = decode(value_codec(codec), dense_enc, k + 1);
      EXPECT_EQ(dec, dense_dec) << codec_name(codec) << " K=" << k;
    }
  }
}

TEST(SparseCodecTest, EncodeIsDeterministic) {
  rng::Xoshiro256 rng(107);
  for (const RowCodec codec : kSparseCodecs) {
    const std::uint32_t k = 512;
    const std::vector<float> row = concentrated_row(rng, k, 10, 0.004f, 4.0f);
    const auto a = encode(codec, row);
    const auto b = encode(codec, row);
    // Byte-identical including the zeroed capacity-slot suffix, so
    // stores and caches can compare and hash encoded rows directly.
    EXPECT_EQ(a, b) << codec_name(codec);
  }
}

// NaN would break the ranking's strict weak order and +-inf leaves no
// finite residual mass: the encoder refuses both and names the column.
TEST(SparseCodecTest, RefusesNonFiniteWeights) {
  rng::Xoshiro256 rng(113);
  for (const RowCodec codec : kSparseCodecs) {
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()}) {
      SCOPED_TRACE(::testing::Message() << codec_name(codec) << " " << bad);
      std::vector<float> row = concentrated_row(rng, 64, 4, 0.01f, 2.0f);
      row[37] = bad;
      try {
        encode(codec, row);
        ADD_FAILURE() << "non-finite weight accepted";
      } catch (const scd::DataError& e) {
        EXPECT_NE(std::string(e.what()).find("column 37"), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(SparseCodecTest, TighterEpsKeepsMoreEntries) {
  rng::Xoshiro256 rng(109);
  const std::uint32_t k = 256;
  // A geometrically decaying row where the kept prefix length actually
  // responds to the mass tolerance (a hard-concentrated row saturates at
  // its support; a slowly decaying one falls back to dense at any eps).
  std::vector<float> row(k + 1);
  double sum = 0.0;
  double v = 1.0;
  for (std::uint32_t i = 0; i < k; ++i) {
    row[i] = static_cast<float>(v);
    sum += v;
    v *= 0.8;
  }
  for (std::uint32_t i = 0; i < k; ++i) {
    row[i] = static_cast<float>(row[i] / sum);
  }
  row[k] = 6.0f;
  const auto loose = encode(RowCodec::kSparseTopR, row, 0.10f);
  const auto tight = encode(RowCodec::kSparseTopR, row, 0.005f);
  EXPECT_LT(row_nnz(RowCodec::kSparseTopR, k + 1, loose),
            row_nnz(RowCodec::kSparseTopR, k + 1, tight));
}

TEST(SparseCodecTest, DenseCodecsReportFixedRowBytesAndNnz) {
  rng::Xoshiro256 rng(111);
  const std::uint32_t k = 64;
  const std::vector<float> row = concentrated_row(rng, k, 4, 0.01f, 2.0f);
  for (const RowCodec codec :
       {RowCodec::kFloat32, RowCodec::kFp16, RowCodec::kInt8}) {
    const auto enc = encode(codec, row);
    EXPECT_EQ(row_bytes(codec, k + 1, enc), encoded_bytes(codec, k + 1));
    EXPECT_EQ(row_nnz(codec, k + 1, enc), k);
  }
}

TEST(SparseCodecTest, IndexWidthFollowsCommunityCount) {
  EXPECT_EQ(sparse_index_bytes(256), sizeof(std::uint16_t));
  EXPECT_EQ(sparse_index_bytes(65536), sizeof(std::uint16_t));
  EXPECT_EQ(sparse_index_bytes(65537), sizeof(std::uint32_t));
  // The payload formula prices the index width accordingly.
  EXPECT_EQ(sparse_payload_bytes(RowCodec::kSparseTopR, 10, 1024),
            10 * sizeof(std::uint16_t) + 10 * sizeof(float) + sizeof(float));
  EXPECT_EQ(sparse_payload_bytes(RowCodec::kSparseTopR, 10, 100000),
            10 * sizeof(std::uint32_t) + 10 * sizeof(float) + sizeof(float));
}

}  // namespace
}  // namespace scd::quant
