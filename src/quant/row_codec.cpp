#include "quant/row_codec.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "util/error.h"
#include "util/rank_key.h"

namespace scd::quant {

const char* codec_name(RowCodec codec) {
  switch (codec) {
    case RowCodec::kFloat32:
      return "fp32";
    case RowCodec::kFp16:
      return "fp16";
    case RowCodec::kInt8:
      return "int8";
    case RowCodec::kSparseTopR:
      return "sparse-topr";
    case RowCodec::kSparseTopRFp16:
      return "sparse-topr-fp16";
    case RowCodec::kSparseTopRInt8:
      return "sparse-topr-int8";
  }
  SCD_ASSERT(false, "unknown RowCodec value");
  return "?";
}

RowCodec codec_from_name(std::string_view name) {
  if (name == "fp32" || name == "float32") return RowCodec::kFloat32;
  if (name == "fp16" || name == "half") return RowCodec::kFp16;
  if (name == "int8") return RowCodec::kInt8;
  if (name == "sparse-topr" || name == "sparse") return RowCodec::kSparseTopR;
  if (name == "sparse-topr-fp16") return RowCodec::kSparseTopRFp16;
  if (name == "sparse-topr-int8") return RowCodec::kSparseTopRInt8;
  SCD_REQUIRE(false, "unknown pi codec '" + std::string(name) +
                         "' (expected fp32, fp16, int8, sparse-topr,"
                         " sparse-topr-fp16, or sparse-topr-int8)");
  return RowCodec::kFloat32;  // unreachable
}

RowCodec sparse_codec_for(RowCodec dense) {
  switch (dense) {
    case RowCodec::kFloat32:
      return RowCodec::kSparseTopR;
    case RowCodec::kFp16:
      return RowCodec::kSparseTopRFp16;
    case RowCodec::kInt8:
      return RowCodec::kSparseTopRInt8;
    default:
      SCD_REQUIRE(false, "sparse_codec_for: already a sparse codec");
  }
  return RowCodec::kSparseTopR;  // unreachable
}

std::size_t sparse_payload_bytes(RowCodec codec, std::uint32_t nnz,
                                 std::uint32_t k) {
  std::size_t bytes = std::size_t{nnz} * sparse_index_bytes(k) +
                      sizeof(float);  // indices + fp32 tail
  switch (value_codec(codec)) {
    case RowCodec::kFloat32:
      bytes += std::size_t{nnz} * sizeof(float);
      break;
    case RowCodec::kFp16:
      bytes += std::size_t{nnz} * sizeof(std::uint16_t);
      break;
    case RowCodec::kInt8:
      bytes += kInt8HeaderBytes + nnz;
      break;
    default:
      SCD_ASSERT(false, "sparse value codec must be dense");
  }
  return bytes;
}

std::size_t encoded_bytes(RowCodec codec, std::uint32_t width) {
  SCD_REQUIRE(width >= 1, "row width must be at least 1");
  const std::size_t w = width;
  switch (codec) {
    case RowCodec::kFloat32:
      return w * sizeof(float);
    case RowCodec::kFp16:
      return (w - 1) * sizeof(std::uint16_t) + sizeof(float);
    case RowCodec::kInt8:
      return kInt8HeaderBytes + (w - 1) + sizeof(float);
    case RowCodec::kSparseTopR:
    case RowCodec::kSparseTopRFp16:
    case RowCodec::kSparseTopRInt8: {
      // Slot capacity: the dense fallback payload or the widest sparse
      // form the fallback rule admits (nnz <= K/2), whichever is larger.
      const std::uint32_t k = width - 1;
      const std::size_t dense = encoded_bytes(value_codec(codec), width);
      const std::size_t sparse = sparse_payload_bytes(codec, k / 2, k);
      return kSparseHeaderBytes + std::max(dense, sparse);
    }
  }
  SCD_ASSERT(false, "unknown RowCodec value");
  return 0;
}

std::size_t row_bytes(RowCodec codec, std::uint32_t width,
                      std::span<const std::byte> encoded) {
  if (!is_sparse(codec)) return encoded_bytes(codec, width);
  SCD_ASSERT(encoded.size() >= kSparseHeaderBytes, "sparse row too short");
  SparseHeader header;
  std::memcpy(&header, encoded.data(), kSparseHeaderBytes);
  const std::uint32_t k = width - 1;
  if (header.nnz >= k) {  // dense fallback sentinel
    return kSparseHeaderBytes + encoded_bytes(value_codec(codec), width);
  }
  return kSparseHeaderBytes + sparse_payload_bytes(codec, header.nnz, k);
}

std::uint32_t row_nnz(RowCodec codec, std::uint32_t width,
                      std::span<const std::byte> encoded) {
  if (!is_sparse(codec)) return width - 1;
  SCD_ASSERT(encoded.size() >= kSparseHeaderBytes, "sparse row too short");
  SparseHeader header;
  std::memcpy(&header, encoded.data(), kSparseHeaderBytes);
  return std::min(header.nnz, width - 1);
}

namespace {

/// Encode `values` (the kept entries, already gathered) with the dense
/// value codec, without a tail: fp32 floats, fp16 halves, or an int8
/// affine block over just these values. Returns bytes written.
std::size_t encode_values(RowCodec value, std::span<const float> values,
                          std::byte* out) {
  const std::size_t n = values.size();
  switch (value) {
    case RowCodec::kFloat32:
      std::memcpy(out, values.data(), n * sizeof(float));
      return n * sizeof(float);
    case RowCodec::kFp16:
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint16_t h = float_to_half(values[i]);
        std::memcpy(out + i * sizeof(h), &h, sizeof(h));
      }
      return n * sizeof(std::uint16_t);
    case RowCodec::kInt8: {
      float lo = n ? values[0] : 0.0f;
      float hi = lo;
      for (std::size_t i = 1; i < n; ++i) {
        lo = std::min(lo, values[i]);
        hi = std::max(hi, values[i]);
      }
      Int8Header header;
      header.offset = lo;
      header.scale = (hi - lo) / 255.0f;
      const float inv = header.scale > 0.0f ? 1.0f / header.scale : 0.0f;
      std::memcpy(out, &header, kInt8HeaderBytes);
      auto* codes = out + kInt8HeaderBytes;
      for (std::size_t i = 0; i < n; ++i) {
        const float q = (values[i] - header.offset) * inv + 0.5f;
        const int code = std::clamp(static_cast<int>(q), 0, 255);
        codes[i] = static_cast<std::byte>(static_cast<std::uint8_t>(code));
      }
      return kInt8HeaderBytes + n;
    }
    default:
      SCD_ASSERT(false, "sparse value codec must be dense");
  }
  return 0;
}

std::size_t decode_values(RowCodec value, const std::byte* in,
                          std::span<float> values) {
  const std::size_t n = values.size();
  switch (value) {
    case RowCodec::kFloat32:
      std::memcpy(values.data(), in, n * sizeof(float));
      return n * sizeof(float);
    case RowCodec::kFp16:
      for (std::size_t i = 0; i < n; ++i) {
        std::uint16_t h;
        std::memcpy(&h, in + i * sizeof(h), sizeof(h));
        values[i] = half_to_float(h);
      }
      return n * sizeof(std::uint16_t);
    case RowCodec::kInt8: {
      Int8Header header;
      std::memcpy(&header, in, kInt8HeaderBytes);
      const auto* codes = in + kInt8HeaderBytes;
      for (std::size_t i = 0; i < n; ++i) {
        values[i] = header.offset +
                    header.scale * static_cast<float>(
                                       static_cast<std::uint8_t>(codes[i]));
      }
      return kInt8HeaderBytes + n;
    }
    default:
      SCD_ASSERT(false, "sparse value codec must be dense");
  }
  return 0;
}

/// Thread-local selection scratch: grown once per thread, so steady-state
/// encodes stay allocation-free (tests/core/zero_alloc_test.cpp).
struct SparseScratch {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint32_t> order;
  std::vector<float> values;
};

void encode_sparse(RowCodec codec, std::span<const float> row,
                   std::span<std::byte> out, float sparse_eps) {
  const std::uint32_t k = static_cast<std::uint32_t>(row.size() - 1);
  const RowCodec value = value_codec(codec);
  const float eps = std::clamp(sparse_eps, 0.0f, 1.0f);

  // NaN has no place in the ranking (and would make it no strict weak
  // order); infinities have no finite residual mass.
  for (std::uint32_t i = 0; i < k; ++i) {
    if (!std::isfinite(row[i])) {
      throw DataError("sparse row encode: non-finite weight " +
                      std::to_string(row[i]) + " in column " +
                      std::to_string(i));
    }
  }
  // Deterministic top-R: value descending, index ascending on ties. Only
  // the first k/2 + 1 ranks can be read before the dense fallback, so
  // only that prefix is selected and ordered.
  const std::uint32_t prefix = std::min(k, k / 2 + 1);
  thread_local SparseScratch scratch;
  scratch.keys.resize(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    scratch.keys[i] = rank_key(order_key(row[i]), i);
  }
  const auto keys = scratch.keys.begin();
  if (prefix < k) std::nth_element(keys, keys + (prefix - 1), keys + k);
  std::sort(keys, keys + prefix);
  double sum = 0.0;
  for (std::uint32_t i = 0; i < k; ++i) sum += row[i];
  const double target = (1.0 - static_cast<double>(eps)) * sum;
  double kept_sum = 0.0;
  std::uint32_t nnz = 0;
  scratch.order.resize(prefix);
  while (nnz < prefix && kept_sum < target) {
    scratch.order[nnz] = static_cast<std::uint32_t>(scratch.keys[nnz]);
    kept_sum += row[scratch.order[nnz]];
    ++nnz;
  }

  if (nnz > k / 2 || sum <= 0.0) {
    // Dense fallback: sentinel header, then the value codec's full row.
    const SparseHeader header{k, 0.0f};
    std::memcpy(out.data(), &header, kSparseHeaderBytes);
    const std::size_t dense = encoded_bytes(value, k + 1);
    encode_row(value, row, out.subspan(kSparseHeaderBytes, dense));
    const std::size_t used = kSparseHeaderBytes + dense;
    std::memset(out.data() + used, 0, out.size() - used);
    return;
  }

  std::sort(scratch.order.begin(), scratch.order.begin() + nnz);
  scratch.values.resize(nnz);
  for (std::uint32_t i = 0; i < nnz; ++i) {
    scratch.values[i] = row[scratch.order[i]];
  }
  const SparseHeader header{
      nnz, static_cast<float>(std::max(0.0, sum - kept_sum))};
  std::memcpy(out.data(), &header, kSparseHeaderBytes);
  std::byte* cursor = out.data() + kSparseHeaderBytes;
  if (sparse_index_bytes(k) == sizeof(std::uint16_t)) {
    for (std::uint32_t i = 0; i < nnz; ++i) {
      const auto idx = static_cast<std::uint16_t>(scratch.order[i]);
      std::memcpy(cursor + i * sizeof(idx), &idx, sizeof(idx));
    }
    cursor += std::size_t{nnz} * sizeof(std::uint16_t);
  } else {
    std::memcpy(cursor, scratch.order.data(),
                std::size_t{nnz} * sizeof(std::uint32_t));
    cursor += std::size_t{nnz} * sizeof(std::uint32_t);
  }
  cursor += encode_values(value, scratch.values, cursor);
  std::memcpy(cursor, &row[k], sizeof(float));
  cursor += sizeof(float);
  std::memset(cursor, 0,
              static_cast<std::size_t>(out.data() + out.size() - cursor));
}

void decode_sparse(RowCodec codec, std::span<const std::byte> encoded,
                   std::span<float> row) {
  const std::uint32_t k = static_cast<std::uint32_t>(row.size() - 1);
  const RowCodec value = value_codec(codec);
  SparseHeader header;
  std::memcpy(&header, encoded.data(), kSparseHeaderBytes);
  if (header.nnz >= k) {  // dense fallback
    const std::size_t dense = encoded_bytes(value, k + 1);
    decode_row(value, encoded.subspan(kSparseHeaderBytes, dense), row);
    return;
  }
  const std::uint32_t nnz = header.nnz;
  const float eps =
      nnz < k ? header.residual_mass / static_cast<float>(k - nnz) : 0.0f;
  for (std::uint32_t i = 0; i < k; ++i) row[i] = eps;

  thread_local std::vector<float> values;
  values.resize(nnz);
  const std::byte* cursor = encoded.data() + kSparseHeaderBytes;
  const std::byte* value_start =
      cursor + std::size_t{nnz} * sparse_index_bytes(k);
  const std::size_t value_len = decode_values(value, value_start, values);
  if (sparse_index_bytes(k) == sizeof(std::uint16_t)) {
    for (std::uint32_t i = 0; i < nnz; ++i) {
      std::uint16_t idx;
      std::memcpy(&idx, cursor + i * sizeof(idx), sizeof(idx));
      row[idx] = values[i];
    }
  } else {
    for (std::uint32_t i = 0; i < nnz; ++i) {
      std::uint32_t idx;
      std::memcpy(&idx, cursor + i * sizeof(idx), sizeof(idx));
      row[idx] = values[i];
    }
  }
  std::memcpy(&row[k], value_start + value_len, sizeof(float));
}

}  // namespace

void encode_row(RowCodec codec, std::span<const float> row,
                std::span<std::byte> out) {
  encode_row(codec, row, out, kDefaultSparseEps);
}

void encode_row(RowCodec codec, std::span<const float> row,
                std::span<std::byte> out, float sparse_eps) {
  SCD_REQUIRE(!row.empty(), "cannot encode an empty row");
  SCD_REQUIRE(out.size() == encoded_bytes(codec, row.size()),
              "encoded buffer size mismatch");
  const std::size_t k = row.size() - 1;  // pi entries; row[k] is phi_sum
  switch (codec) {
    case RowCodec::kFloat32:
      std::memcpy(out.data(), row.data(), row.size_bytes());
      return;
    case RowCodec::kFp16: {
      auto* halves = out.data();
      for (std::size_t i = 0; i < k; ++i) {
        const std::uint16_t h = float_to_half(row[i]);
        std::memcpy(halves + i * sizeof(h), &h, sizeof(h));
      }
      std::memcpy(out.data() + k * sizeof(std::uint16_t), &row[k],
                  sizeof(float));
      return;
    }
    case RowCodec::kInt8: {
      float lo = k ? row[0] : 0.0f;
      float hi = lo;
      for (std::size_t i = 1; i < k; ++i) {
        lo = std::min(lo, row[i]);
        hi = std::max(hi, row[i]);
      }
      Int8Header header;
      header.offset = lo;
      header.scale = (hi - lo) / 255.0f;
      const float inv = header.scale > 0.0f ? 1.0f / header.scale : 0.0f;
      std::memcpy(out.data(), &header, kInt8HeaderBytes);
      auto* codes = out.data() + kInt8HeaderBytes;
      for (std::size_t i = 0; i < k; ++i) {
        const float q = (row[i] - header.offset) * inv + 0.5f;
        const int code =
            std::clamp(static_cast<int>(q), 0, 255);  // q >= 0 by design
        codes[i] = static_cast<std::byte>(static_cast<std::uint8_t>(code));
      }
      std::memcpy(out.data() + kInt8HeaderBytes + k, &row[k], sizeof(float));
      return;
    }
    case RowCodec::kSparseTopR:
    case RowCodec::kSparseTopRFp16:
    case RowCodec::kSparseTopRInt8:
      encode_sparse(codec, row, out, sparse_eps);
      return;
  }
  SCD_ASSERT(false, "unknown RowCodec value");
}

void decode_row(RowCodec codec, std::span<const std::byte> encoded,
                std::span<float> row) {
  SCD_REQUIRE(!row.empty(), "cannot decode into an empty row");
  SCD_REQUIRE(encoded.size() == encoded_bytes(codec, row.size()),
              "encoded buffer size mismatch");
  const std::size_t k = row.size() - 1;
  switch (codec) {
    case RowCodec::kFloat32:
      std::memcpy(row.data(), encoded.data(), row.size_bytes());
      return;
    case RowCodec::kFp16: {
      for (std::size_t i = 0; i < k; ++i) {
        std::uint16_t h;
        std::memcpy(&h, encoded.data() + i * sizeof(h), sizeof(h));
        row[i] = half_to_float(h);
      }
      std::memcpy(&row[k], encoded.data() + k * sizeof(std::uint16_t),
                  sizeof(float));
      return;
    }
    case RowCodec::kInt8: {
      Int8Header header;
      std::memcpy(&header, encoded.data(), kInt8HeaderBytes);
      const auto* codes = encoded.data() + kInt8HeaderBytes;
      for (std::size_t i = 0; i < k; ++i) {
        row[i] = header.offset +
                 header.scale * static_cast<float>(
                                    static_cast<std::uint8_t>(codes[i]));
      }
      std::memcpy(&row[k], encoded.data() + kInt8HeaderBytes + k,
                  sizeof(float));
      return;
    }
    case RowCodec::kSparseTopR:
    case RowCodec::kSparseTopRFp16:
    case RowCodec::kSparseTopRInt8:
      decode_sparse(codec, encoded, row);
      return;
  }
  SCD_ASSERT(false, "unknown RowCodec value");
}

void check_sparse_row(RowCodec codec, std::uint32_t width,
                      std::span<const std::byte> encoded,
                      std::size_t stored) {
  SCD_REQUIRE(is_sparse(codec), "check_sparse_row needs a sparse codec");
  SCD_REQUIRE(encoded.size() == encoded_bytes(codec, width),
              "encoded buffer size mismatch");
  const std::uint32_t k = width - 1;
  SparseHeader header;
  std::memcpy(&header, encoded.data(), kSparseHeaderBytes);
  const bool fallback = header.nnz >= k;
  if (!fallback && header.nnz > k / 2) {
    throw DataError("sparse row keeps " + std::to_string(header.nnz) +
                    " of " + std::to_string(k) +
                    " entries (the sparse form holds at most K/2)");
  }
  const std::size_t expected = row_bytes(codec, width, encoded);
  if (stored != expected) {
    throw DataError("sparse row length " + std::to_string(stored) +
                    " does not match its header (" +
                    std::to_string(expected) + " bytes)");
  }
  if (fallback) return;
  const std::byte* indices = encoded.data() + kSparseHeaderBytes;
  std::uint32_t prev = 0;
  for (std::uint32_t i = 0; i < header.nnz; ++i) {
    std::uint32_t idx;
    if (sparse_index_bytes(k) == sizeof(std::uint16_t)) {
      std::uint16_t idx16;
      std::memcpy(&idx16, indices + i * sizeof(idx16), sizeof(idx16));
      idx = idx16;
    } else {
      std::memcpy(&idx, indices + i * sizeof(idx), sizeof(idx));
    }
    if (idx >= k || (i > 0 && idx <= prev)) {
      throw DataError("sparse row index " + std::to_string(idx) +
                      " at position " + std::to_string(i) +
                      " is out of range or not strictly ascending (K = " +
                      std::to_string(k) + ")");
    }
    prev = idx;
  }
}

}  // namespace scd::quant
