#include "core/checkpoint.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "util/error.h"

namespace scd::core {

namespace {

constexpr std::uint64_t kMagic = 0x5343445f434b5031ULL;  // "SCD_CKP1"
// Version 1: raw float pi rows. Version 2: a uint32 codec tag follows the
// vertex count and rows are stored quant-encoded. fp32 checkpoints are
// always written as version 1, so they stay byte-identical to pre-codec
// builds and old readers keep working on them. Version 3 (sparse
// codecs): same tag, but each row is a uint32 length prefix
// (quant::row_bytes of the row) followed by exactly that many bytes —
// the truncated sparse encoding, not the fixed capacity slot.
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kVersionCodec = 2;
constexpr std::uint32_t kVersionSparse = 3;

/// Header bytes before the pi rows: magic, version, iteration, K, the
/// four double hyperparameters and n; v2/v3 append a uint32 codec tag.
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 4 + 4 * 8 + 4;

/// Append `value`'s bytes; the writer reserves the string up front, so
/// appends never regrow it.
template <typename T>
void append_pod(std::string& out, const T& value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Bounds-checked cursor over checkpoint bytes: every read that would run
/// past the end throws DataError instead of touching memory it does not
/// own.
class ByteReader {
 public:
  explicit ByteReader(const std::string& bytes)
      : cur_(bytes.data()), end_(bytes.data() + bytes.size()) {}

  std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - cur_);
  }

  template <typename T>
  T pod() {
    T value{};
    bytes(&value, sizeof(T));
    return value;
  }
  void bytes(void* out, std::size_t size) {
    if (remaining() < size) throw DataError("checkpoint truncated");
    std::memcpy(out, cur_, size);
    cur_ += size;
  }

 private:
  const char* cur_;
  const char* end_;
};

/// Sanity cap on K: a header beyond this is certainly garbage, and
/// rejecting it here keeps a corrupt uint32 from driving a ~2^37-byte
/// PiMatrix allocation (and keeps K + 1 row-width arithmetic safe).
constexpr std::uint32_t kMaxCommunities = 1u << 24;

/// Reject a header whose promised body cannot fit in the remaining
/// bytes BEFORE sizing any allocation from it: a corrupt n or k must
/// produce a clear DataError, not a multi-gigabyte resize or a
/// half-filled matrix. `body_bytes` is a lower bound (exact for v1/v2,
/// conservative for v3's variably sized rows); trailing bytes after a
/// checkpoint are tolerated.
void require_body_fits(const ByteReader& in, std::uint64_t body_bytes) {
  if (in.remaining() < body_bytes) {
    throw DataError("checkpoint truncated or corrupt: header promises " +
                    std::to_string(body_bytes) + " body bytes but only " +
                    std::to_string(in.remaining()) + " remain");
  }
}

/// Every byte `in` still holds, up to EOF.
std::string read_to_eof(std::istream& in) {
  std::string bytes;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    bytes.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  return bytes;
}

}  // namespace

std::string checkpoint_to_bytes(const Checkpoint& checkpoint,
                                quant::RowCodec pi_codec, float sparse_eps) {
  checkpoint.hyper.validate();
  const std::uint32_t n = checkpoint.pi.num_vertices();
  const std::uint32_t k = checkpoint.pi.num_communities();
  SCD_REQUIRE(k == checkpoint.hyper.num_communities &&
                  k == checkpoint.global.num_communities(),
              "checkpoint state disagrees on K");
  const bool sparse = quant::is_sparse(pi_codec);
  const bool encoded = pi_codec != quant::RowCodec::kFloat32;
  const std::uint32_t width = checkpoint.pi.row_width();
  const auto theta = checkpoint.global.theta_flat();
  // Exact size for v1/v2; for v3 the bound of every row at its fixed
  // capacity, so the string never regrows.
  const std::size_t row_slot =
      encoded ? quant::encoded_bytes(pi_codec, width)
              : std::size_t{width} * sizeof(float);
  std::string bytes;
  bytes.reserve(kHeaderBytes + (encoded ? sizeof(std::uint32_t) : 0) +
                std::size_t{n} *
                    (row_slot + (sparse ? sizeof(std::uint32_t) : 0)) +
                theta.size_bytes());
  append_pod(bytes, kMagic);
  append_pod(bytes,
             sparse ? kVersionSparse : (encoded ? kVersionCodec : kVersion));
  append_pod(bytes, checkpoint.iteration);
  append_pod(bytes, checkpoint.hyper.num_communities);
  append_pod(bytes, checkpoint.hyper.alpha);
  append_pod(bytes, checkpoint.hyper.eta0);
  append_pod(bytes, checkpoint.hyper.eta1);
  append_pod(bytes, checkpoint.hyper.delta);
  append_pod(bytes, n);
  if (encoded) {
    append_pod(bytes, static_cast<std::uint32_t>(pi_codec));
    std::vector<std::byte> buf(row_slot);
    for (std::uint32_t v = 0; v < n; ++v) {
      quant::encode_row(pi_codec, checkpoint.pi.row(v), buf, sparse_eps);
      if (sparse) {
        const auto rbytes = static_cast<std::uint32_t>(
            quant::row_bytes(pi_codec, width, buf));
        append_pod(bytes, rbytes);
        bytes.append(reinterpret_cast<const char*>(buf.data()), rbytes);
      } else {
        bytes.append(reinterpret_cast<const char*>(buf.data()), row_slot);
      }
    }
  } else {
    // v1 rows are the matrix's own row-major [pi | phi_sum] layout, so
    // all n rows go in one append.
    const auto flat = checkpoint.pi.flat();
    bytes.append(reinterpret_cast<const char*>(flat.data()),
                 flat.size_bytes());
  }
  bytes.append(reinterpret_cast<const char*>(theta.data()),
               theta.size_bytes());
  return bytes;
}

Checkpoint checkpoint_from_bytes(const std::string& bytes) {
  ByteReader in(bytes);
  if (in.pod<std::uint64_t>() != kMagic) {
    throw DataError("not a scd checkpoint (bad magic)");
  }
  const auto version = in.pod<std::uint32_t>();
  if (version != kVersion && version != kVersionCodec &&
      version != kVersionSparse) {
    throw DataError("unsupported checkpoint version " +
                    std::to_string(version));
  }
  Checkpoint checkpoint;
  checkpoint.iteration = in.pod<std::uint64_t>();
  checkpoint.hyper.num_communities = in.pod<std::uint32_t>();
  checkpoint.hyper.alpha = in.pod<double>();
  checkpoint.hyper.eta0 = in.pod<double>();
  checkpoint.hyper.eta1 = in.pod<double>();
  checkpoint.hyper.delta = in.pod<double>();
  try {
    checkpoint.hyper.validate();
  } catch (const Error& e) {
    throw DataError(std::string("corrupt checkpoint hyper: ") + e.what());
  }
  const auto n = in.pod<std::uint32_t>();
  const std::uint32_t k = checkpoint.hyper.num_communities;
  if (n == 0) throw DataError("checkpoint has zero vertices");
  if (k > kMaxCommunities) {
    throw DataError("checkpoint K " + std::to_string(k) +
                    " exceeds the sanity cap " +
                    std::to_string(kMaxCommunities));
  }
  const std::uint32_t width = k + 1;  // [pi | phi_sum]
  const std::uint64_t theta_bytes = std::uint64_t{k} * 2 * sizeof(double);

  // Resolve the codec tag (v2/v3) and size-check the promised body
  // against the remaining bytes BEFORE allocating n*width floats from
  // header fields that may be garbage.
  quant::RowCodec codec = quant::RowCodec::kFloat32;
  if (version == kVersionCodec || version == kVersionSparse) {
    const auto tag = in.pod<std::uint32_t>();
    if (tag >= quant::kNumCodecs) {
      throw DataError("checkpoint has unknown pi codec tag " +
                      std::to_string(tag));
    }
    codec = static_cast<quant::RowCodec>(tag);
    if (version == kVersionSparse && !quant::is_sparse(codec)) {
      throw DataError("version-3 checkpoint carries a dense pi codec tag");
    }
    if (version == kVersionCodec && quant::is_sparse(codec)) {
      throw DataError("version-2 checkpoint carries a sparse pi codec tag");
    }
  }
  if (version == kVersionSparse) {
    // Lower bound: every row carries at least its uint32 length prefix.
    require_body_fits(in,
                      std::uint64_t{n} * sizeof(std::uint32_t) + theta_bytes);
  } else {
    const std::uint64_t row_bytes =
        version == kVersionCodec
            ? quant::encoded_bytes(codec, width)
            : std::uint64_t{width} * sizeof(float);
    require_body_fits(in, std::uint64_t{n} * row_bytes + theta_bytes);
  }

  // Every row below is written once, by a copy or a decode; the size
  // check above guarantees the bytes for all of them are there.
  checkpoint.pi = PiMatrix::for_overwrite(n, k);
  checkpoint.pi_codec = codec;
  if (version == kVersionSparse) {
    const std::size_t capacity = quant::encoded_bytes(codec, width);
    // Rows land in a zero-padded capacity slot: decode_row (and the
    // sparse kernels) address the fixed layout, so the suffix beyond the
    // stored bytes must be deterministic.
    std::vector<std::byte> buf(capacity);
    for (std::uint32_t v = 0; v < n; ++v) {
      const auto rbytes = in.pod<std::uint32_t>();
      if (rbytes == 0 || rbytes > capacity) {
        throw DataError("checkpoint sparse row length " +
                        std::to_string(rbytes) + " outside (0, " +
                        std::to_string(capacity) + "]");
      }
      std::fill(buf.begin(), buf.end(), std::byte{0});
      in.bytes(buf.data(), rbytes);
      quant::check_sparse_row(codec, width, buf, rbytes);
      quant::decode_row(codec, buf, checkpoint.pi.row(v));
    }
  } else if (version == kVersionCodec) {
    const std::size_t vbytes = quant::encoded_bytes(codec, width);
    std::vector<std::byte> buf(vbytes);
    for (std::uint32_t v = 0; v < n; ++v) {
      in.bytes(buf.data(), vbytes);
      quant::decode_row(codec, buf, checkpoint.pi.row(v));
    }
  } else {
    const auto rows = checkpoint.pi.flat();
    in.bytes(rows.data(), rows.size_bytes());
  }
  checkpoint.global = GlobalState(k);
  const auto theta = checkpoint.global.theta_flat();
  in.bytes(theta.data(), theta.size_bytes());
  // beta = theta1 / (theta0 + theta1) turns a NaN into the 0.5 fallback
  // and an infinity into NaN, so refuse them here. Zero stays: the
  // fallback covers an all-zero pair.
  for (std::size_t i = 0; i < theta.size(); ++i) {
    if (!std::isfinite(theta[i]) || theta[i] < 0.0) {
      throw DataError("checkpoint theta for community " +
                      std::to_string(i / 2) + " slot " +
                      std::to_string(i % 2) + " is " +
                      std::to_string(theta[i]) +
                      "; must be finite and non-negative");
    }
  }
  checkpoint.global.update_beta_from_theta();
  return checkpoint;
}

void save_checkpoint(std::ostream& out, const Checkpoint& checkpoint,
                     quant::RowCodec pi_codec, float sparse_eps) {
  const std::string bytes =
      checkpoint_to_bytes(checkpoint, pi_codec, sparse_eps);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw Error("checkpoint write failed");
}

Checkpoint load_checkpoint(std::istream& in) {
  return checkpoint_from_bytes(read_to_eof(in));
}

void save_checkpoint_file(const std::string& path,
                          const Checkpoint& checkpoint,
                          quant::RowCodec pi_codec, float sparse_eps) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot open '" + path + "' for writing");
  save_checkpoint(out, checkpoint, pi_codec, sparse_eps);
}

Checkpoint load_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw DataError("cannot open checkpoint '" + path + "'");
  return load_checkpoint(in);
}

void check_trainable_pi(const PiMatrix& pi) {
  const std::uint32_t k = pi.num_communities();
  for (std::uint32_t v = 0; v < pi.num_vertices(); ++v) {
    const std::span<const float> row = pi.row(v);
    for (std::uint32_t c = 0; c <= k; ++c) {
      const float w = row[c];
      const bool phi_sum = c == k;
      if (std::isfinite(w) && (phi_sum ? w > 0.0f : w >= 0.0f)) continue;
      throw DataError(
          "checkpoint " + std::string(phi_sum ? "phi_sum" : "pi weight") +
          " for vertex " + std::to_string(v) + " column " +
          std::to_string(c) + " is " + std::to_string(w) +
          (phi_sum ? "; must be finite and positive"
                   : "; must be finite and non-negative"));
    }
  }
}

}  // namespace scd::core
