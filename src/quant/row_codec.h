// Row codecs for pi rows in the DKV and on the wire.
//
// pi rows are probability vectors with a known dynamic range, so the
// dominant DKV traffic (Section III-B of the paper) compresses well:
// fp16 halves the bytes, int8 with a per-row affine scale quarters them.
// The codec layer owns the byte layout; the DKV backends store encoded
// rows and charge the encoded byte counts through the cost models, and
// the fused kernels (core/kernels_simd.h) dequantize on the fly so a
// decoded float row never materializes on the hot path.
//
// All codecs operate on the [pi_0..pi_{K-1} | phi_sum] row layout of
// core/state.h. The trailing element (phi_sum) is kept at full fp32
// precision by the lossy codecs: it has a different scale than the pi
// entries (it is a gamma-row sum, not a probability) and folding it into
// a shared per-row range would destroy the pi resolution.
//
// Dense layouts (width = K+1 floats decoded):
//   kFloat32  width * 4 bytes        raw little-endian floats, bit-exact
//   kFp16     (width-1) * 2 + 4      IEEE half pi entries + fp32 tail
//   kInt8     8 + (width-1) + 4      {fp32 scale, fp32 offset} header,
//                                    one uint8 code per pi entry
//                                    (value = offset + scale * code),
//                                    then the fp32 tail
//
// Sparse layouts (kSparseTopR*): as the sampler converges each pi row
// concentrates its mass on a handful of communities, so the codec keeps
// only the top-R entries covering >= (1 - eps) of the row mass:
//
//   SparseHeader { uint32 nnz; fp32 residual_mass }   8 bytes
//   nnz sorted community indices                      uint16 if K <= 65536,
//                                                     uint32 otherwise
//   nnz values in the variant's value codec           fp32 / fp16 / int8
//                                                     (int8 carries its own
//                                                     {scale, offset} over
//                                                     the kept values)
//   fp32 phi_sum tail
//
// The residual mass is spread uniformly over the K - nnz dropped entries
// on decode (epsilon = residual_mass / (K - nnz)), so the decoded row
// keeps its original mass and the sparse kernels can fold the epsilon
// term analytically instead of touching the dropped entries. When the
// adaptive selection would keep more than K/2 entries the row is stored
// dense instead: nnz is set to the sentinel value K and the payload after
// the header is exactly the value codec's dense encoding of the full row
// (including its own fp32 tail), so the fallback reuses the dense readers
// and the fully-dense worst case never regresses beyond the 8-byte header.
//
// Sparse rows are variable-size. encoded_bytes() returns the fixed slot
// CAPACITY — max(dense fallback, widest storable sparse form) — which is
// what the stores allocate and the workspaces stride by, keeping flat
// addressing and allocation-free staging. row_bytes() parses the header
// and returns the bytes a specific row actually occupies; that is the
// number every byte-proportional cost (coalesced messages, cache hits,
// snapshot wire time) charges.
//
// encode_row/decode_row write into caller buffers and are allocation-free
// after warm-up (the sparse selection scratch is thread-local, grown
// once); encoded rows are plain byte sequences with no alignment
// requirement (headers are memcpy'd, so rows may be packed at
// value_bytes() strides). Sparse encode zeroes the slot's unused suffix
// so stored bytes are deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

namespace scd::quant {

enum class RowCodec : std::uint8_t {
  kFloat32 = 0,
  kFp16 = 1,
  kInt8 = 2,
  kSparseTopR = 3,      // sparse indices + fp32 values
  kSparseTopRFp16 = 4,  // sparse indices + fp16 values
  kSparseTopRInt8 = 5,  // sparse indices + int8 values
};

/// Number of codecs; codec values are dense in [0, kNumCodecs).
inline constexpr std::size_t kNumCodecs = 6;

/// True for the adaptive top-R sparse variants.
inline constexpr bool is_sparse(RowCodec codec) {
  return codec == RowCodec::kSparseTopR ||
         codec == RowCodec::kSparseTopRFp16 ||
         codec == RowCodec::kSparseTopRInt8;
}

/// Dense codec a sparse variant encodes its kept values (and its dense
/// fallback payload) with; identity for the dense codecs.
inline constexpr RowCodec value_codec(RowCodec codec) {
  switch (codec) {
    case RowCodec::kSparseTopR: return RowCodec::kFloat32;
    case RowCodec::kSparseTopRFp16: return RowCodec::kFp16;
    case RowCodec::kSparseTopRInt8: return RowCodec::kInt8;
    default: return codec;
  }
}

/// Sparse variant over a dense value codec (inverse of value_codec);
/// throws scd::UsageError when `dense` is already sparse.
RowCodec sparse_codec_for(RowCodec dense);

/// Default mass tolerance of the adaptive top-R selection: keep the
/// smallest prefix of entries (by descending value) covering at least
/// (1 - eps) of the row mass.
inline constexpr float kDefaultSparseEps = 0.01f;

/// Short stable name ("fp32", "fp16", "int8", "sparse-topr",
/// "sparse-topr-fp16", "sparse-topr-int8") — used by --pi-codec, the
/// tuner's config keys, and the checkpoint format.
const char* codec_name(RowCodec codec);

/// Inverse of codec_name; throws scd::UsageError on an unknown name.
/// Accepts "fp32"/"float32", "fp16"/"half", "int8", "sparse-topr"/
/// "sparse", "sparse-topr-fp16", "sparse-topr-int8".
RowCodec codec_from_name(std::string_view name);

/// Encoded size in bytes of one row of `width` floats. For the sparse
/// codecs this is the fixed slot capacity (dense-fallback worst case),
/// not the bytes a particular row occupies — see row_bytes().
std::size_t encoded_bytes(RowCodec codec, std::uint32_t width);

/// Bytes actually occupied by one encoded row inside its capacity slot.
/// Equals encoded_bytes() for the dense codecs; parses the SparseHeader
/// for the sparse ones.
std::size_t row_bytes(RowCodec codec, std::uint32_t width,
                      std::span<const std::byte> encoded);

/// Kept pi entries of one encoded row: width-1 for the dense codecs and
/// for dense-fallback sparse rows, the stored nnz otherwise.
std::uint32_t row_nnz(RowCodec codec, std::uint32_t width,
                      std::span<const std::byte> encoded);

/// Encode `row` (width floats) into `out` (exactly encoded_bytes() long).
/// The sparse codecs use kDefaultSparseEps.
void encode_row(RowCodec codec, std::span<const float> row,
                std::span<std::byte> out);

/// Same, with an explicit sparse mass tolerance (ignored by the dense
/// codecs). The top-R selection is deterministic: entries ordered by
/// value descending with index-ascending tie-break (util/rank_key.h).
/// The sparse codecs throw scd::DataError naming the column when a
/// weight is NaN or +-inf.
void encode_row(RowCodec codec, std::span<const float> row,
                std::span<std::byte> out, float sparse_eps);

/// Decode an encoded row back into `row` (width floats). Exact for
/// kFloat32; for the lossy codecs decode(encode(x)) is within the error
/// bounds documented above (fp16: 2^-11 relative on normals; int8:
/// scale/2 absolute with scale = (max-min)/255 over the pi entries).
/// Sparse rows decode kept entries through the value codec and fill the
/// dropped ones with residual_mass / (K - nnz).
void decode_row(RowCodec codec, std::span<const std::byte> encoded,
                std::span<float> row);

/// Throws scd::DataError unless `encoded` — a sparse-codec capacity slot
/// holding `stored` bytes read from outside the program, zero-padded
/// beyond them — is a row encode_row could have written: the
/// dense-fallback sentinel (nnz >= K) or nnz <= K/2 strictly ascending
/// indices below K, with `stored` equal to row_bytes() in both cases.
/// decode_row trusts the header, so untrusted rows go through this first.
void check_sparse_row(RowCodec codec, std::uint32_t width,
                      std::span<const std::byte> encoded, std::size_t stored);

// ---------------------------------------------------------------------------
// Portable IEEE 754 binary16 conversion (round-to-nearest-even), used by
// the kFp16 codec and by the dequant-fused kernel readers. Bit-twiddling
// only — no hardware half support required.

inline std::uint16_t float_to_half(float value) {
  std::uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  const std::uint32_t sign = (bits >> 16) & 0x8000u;
  bits &= 0x7fffffffu;
  if (bits >= 0x47800000u) {  // |x| >= 65536: overflow, inf, or nan
    return static_cast<std::uint16_t>(
        bits > 0x7f800000u ? sign | 0x7e00u : sign | 0x7c00u);
  }
  if (bits >= 0x38800000u) {  // normal half
    const std::uint32_t mant = bits & 0x7fffffu;
    std::uint32_t h = (((bits >> 23) - 112u) << 10) | (mant >> 13);
    const std::uint32_t rem = mant & 0x1fffu;
    if (rem > 0x1000u || (rem == 0x1000u && (h & 1u))) ++h;  // RNE; may
    return static_cast<std::uint16_t>(sign | h);  // carry into exponent
  }
  if (bits < 0x33000000u) {  // |x| <= 2^-25 rounds to signed zero
    return static_cast<std::uint16_t>(sign);
  }
  // subnormal half: value = mant * 2^-24
  const std::uint32_t mant = (bits & 0x7fffffu) | 0x800000u;
  const std::uint32_t shift = 126u - (bits >> 23);  // in [14, 24]
  std::uint32_t h = mant >> shift;
  const std::uint32_t rem = mant & ((1u << shift) - 1u);
  const std::uint32_t halfway = 1u << (shift - 1);
  if (rem > halfway || (rem == halfway && (h & 1u))) ++h;
  return static_cast<std::uint16_t>(sign | h);
}

inline float half_to_float(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  std::uint32_t exp = (h >> 10) & 0x1fu;
  std::uint32_t mant = h & 0x3ffu;
  std::uint32_t bits;
  if (exp == 0x1fu) {  // inf / nan
    bits = sign | 0x7f800000u | (mant << 13);
  } else if (exp != 0) {  // normal
    bits = sign | ((exp + 112u) << 23) | (mant << 13);
  } else if (mant == 0) {  // signed zero
    bits = sign;
  } else {  // subnormal half -> normal float
    exp = 113u;
    while ((mant & 0x400u) == 0) {
      mant <<= 1;
      --exp;
    }
    bits = sign | (exp << 23) | ((mant & 0x3ffu) << 13);
  }
  float value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

/// kInt8 per-row header, memcpy'd to/from the front of the encoded row
/// (encoded rows are unaligned). The fp32 tail (phi_sum) sits after the
/// codes, not in the header, so the layout reads header | codes | tail.
struct Int8Header {
  float scale;
  float offset;
};
inline constexpr std::size_t kInt8HeaderBytes = 2 * sizeof(float);

/// Sparse per-row header, memcpy'd to/from the front of the encoded row.
/// nnz == K (the sentinel) marks the dense fallback, whose payload is the
/// value codec's full dense row encoding.
struct SparseHeader {
  std::uint32_t nnz;
  float residual_mass;
};
inline constexpr std::size_t kSparseHeaderBytes = 8;

/// Bytes per stored community index of the sparse codecs: uint16 while
/// every index 0..K-1 fits, uint32 beyond.
inline constexpr std::size_t sparse_index_bytes(std::uint32_t k) {
  return k <= 65536u ? sizeof(std::uint16_t) : sizeof(std::uint32_t);
}

/// Payload bytes (after the SparseHeader) of a sparse-form row keeping
/// `nnz` of `k` pi entries: indices + values + fp32 tail.
std::size_t sparse_payload_bytes(RowCodec codec, std::uint32_t nnz,
                                 std::uint32_t k);

}  // namespace scd::quant
