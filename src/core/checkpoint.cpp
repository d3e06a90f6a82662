#include "core/checkpoint.h"

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
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

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw DataError("checkpoint truncated");
  return value;
}

/// Sanity cap on K: a header beyond this is certainly garbage, and
/// rejecting it here keeps a corrupt uint32 from driving a ~2^37-byte
/// PiMatrix allocation (and keeps K + 1 row-width arithmetic safe).
constexpr std::uint32_t kMaxCommunities = 1u << 24;

/// Bytes left in the stream, or -1 when the stream is not seekable.
std::int64_t stream_remaining(std::istream& in) {
  const auto pos = in.tellg();
  if (pos == std::istream::pos_type(-1)) return -1;
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(pos);
  if (end == std::istream::pos_type(-1) || end < pos) return -1;
  return static_cast<std::int64_t>(end - pos);
}

/// Reject a header whose promised body cannot fit in the remaining
/// stream BEFORE sizing any allocation from it: a corrupt n or k must
/// produce a clear DataError, not a multi-gigabyte resize or a
/// half-filled matrix. `body_bytes` is a lower bound (exact for v1/v2,
/// conservative for v3's variably sized rows); a checkpoint embedded in
/// a longer stream stays loadable.
void require_body_fits(std::istream& in, std::uint64_t body_bytes) {
  const std::int64_t remaining = stream_remaining(in);
  if (remaining < 0) return;  // non-seekable: per-row checks still apply
  if (static_cast<std::uint64_t>(remaining) < body_bytes) {
    throw DataError("checkpoint truncated or corrupt: header promises " +
                    std::to_string(body_bytes) + " body bytes but only " +
                    std::to_string(remaining) + " remain");
  }
}

}  // namespace

void save_checkpoint(std::ostream& out, const Checkpoint& checkpoint,
                     quant::RowCodec pi_codec, float sparse_eps) {
  checkpoint.hyper.validate();
  const std::uint32_t n = checkpoint.pi.num_vertices();
  const std::uint32_t k = checkpoint.pi.num_communities();
  SCD_REQUIRE(k == checkpoint.hyper.num_communities &&
                  k == checkpoint.global.num_communities(),
              "checkpoint state disagrees on K");
  const bool sparse = quant::is_sparse(pi_codec);
  const bool encoded = pi_codec != quant::RowCodec::kFloat32;
  write_pod(out, kMagic);
  write_pod(out, sparse ? kVersionSparse
                        : (encoded ? kVersionCodec : kVersion));
  write_pod(out, checkpoint.iteration);
  write_pod(out, checkpoint.hyper.num_communities);
  write_pod(out, checkpoint.hyper.alpha);
  write_pod(out, checkpoint.hyper.eta0);
  write_pod(out, checkpoint.hyper.eta1);
  write_pod(out, checkpoint.hyper.delta);
  write_pod(out, n);
  if (sparse) {
    write_pod(out, static_cast<std::uint32_t>(pi_codec));
    const std::uint32_t width = checkpoint.pi.row_width();
    std::vector<std::byte> buf(quant::encoded_bytes(pi_codec, width));
    for (std::uint32_t v = 0; v < n; ++v) {
      quant::encode_row(pi_codec, checkpoint.pi.row(v), buf, sparse_eps);
      const auto rbytes =
          static_cast<std::uint32_t>(quant::row_bytes(pi_codec, width, buf));
      write_pod(out, rbytes);
      out.write(reinterpret_cast<const char*>(buf.data()),
                static_cast<std::streamsize>(rbytes));
    }
  } else if (encoded) {
    write_pod(out, static_cast<std::uint32_t>(pi_codec));
    const std::size_t vbytes =
        quant::encoded_bytes(pi_codec, checkpoint.pi.row_width());
    std::vector<std::byte> buf(vbytes);
    for (std::uint32_t v = 0; v < n; ++v) {
      quant::encode_row(pi_codec, checkpoint.pi.row(v), buf);
      out.write(reinterpret_cast<const char*>(buf.data()),
                static_cast<std::streamsize>(vbytes));
    }
  } else {
    for (std::uint32_t v = 0; v < n; ++v) {
      const auto row = checkpoint.pi.row(v);
      out.write(reinterpret_cast<const char*>(row.data()),
                static_cast<std::streamsize>(row.size_bytes()));
    }
  }
  const auto theta = checkpoint.global.theta_flat();
  out.write(reinterpret_cast<const char*>(theta.data()),
            static_cast<std::streamsize>(theta.size_bytes()));
  if (!out) throw Error("checkpoint write failed");
}

Checkpoint load_checkpoint(std::istream& in) {
  if (read_pod<std::uint64_t>(in) != kMagic) {
    throw DataError("not a scd checkpoint (bad magic)");
  }
  const auto version = read_pod<std::uint32_t>(in);
  if (version != kVersion && version != kVersionCodec &&
      version != kVersionSparse) {
    throw DataError("unsupported checkpoint version " +
                    std::to_string(version));
  }
  Checkpoint checkpoint;
  checkpoint.iteration = read_pod<std::uint64_t>(in);
  checkpoint.hyper.num_communities = read_pod<std::uint32_t>(in);
  checkpoint.hyper.alpha = read_pod<double>(in);
  checkpoint.hyper.eta0 = read_pod<double>(in);
  checkpoint.hyper.eta1 = read_pod<double>(in);
  checkpoint.hyper.delta = read_pod<double>(in);
  try {
    checkpoint.hyper.validate();
  } catch (const Error& e) {
    throw DataError(std::string("corrupt checkpoint hyper: ") + e.what());
  }
  const auto n = read_pod<std::uint32_t>(in);
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
  // against the stream BEFORE allocating n*width floats from header
  // fields that may be garbage.
  quant::RowCodec codec = quant::RowCodec::kFloat32;
  if (version == kVersionCodec || version == kVersionSparse) {
    const auto tag = read_pod<std::uint32_t>(in);
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

  checkpoint.pi = PiMatrix(n, k);
  checkpoint.pi_codec = codec;
  if (version == kVersionSparse) {
    const std::size_t capacity = quant::encoded_bytes(codec, width);
    // Rows land in a zero-padded capacity slot: decode_row (and the
    // sparse kernels) address the fixed layout, so the suffix beyond the
    // stored bytes must be deterministic.
    std::vector<std::byte> buf(capacity);
    for (std::uint32_t v = 0; v < n; ++v) {
      const auto rbytes = read_pod<std::uint32_t>(in);
      if (rbytes == 0 || rbytes > capacity) {
        throw DataError("checkpoint sparse row length " +
                        std::to_string(rbytes) + " outside (0, " +
                        std::to_string(capacity) + "]");
      }
      std::fill(buf.begin(), buf.end(), std::byte{0});
      in.read(reinterpret_cast<char*>(buf.data()),
              static_cast<std::streamsize>(rbytes));
      if (!in) throw DataError("checkpoint truncated");
      quant::check_sparse_row(codec, width, buf, rbytes);
      quant::decode_row(codec, buf, checkpoint.pi.row(v));
    }
  } else if (version == kVersionCodec) {
    const std::size_t vbytes = quant::encoded_bytes(codec, width);
    std::vector<std::byte> buf(vbytes);
    for (std::uint32_t v = 0; v < n; ++v) {
      in.read(reinterpret_cast<char*>(buf.data()),
              static_cast<std::streamsize>(vbytes));
      if (!in) throw DataError("checkpoint truncated");
      quant::decode_row(codec, buf, checkpoint.pi.row(v));
    }
  } else {
    for (std::uint32_t v = 0; v < n; ++v) {
      auto row = checkpoint.pi.row(v);
      in.read(reinterpret_cast<char*>(row.data()),
              static_cast<std::streamsize>(row.size_bytes()));
      if (!in) throw DataError("checkpoint truncated");
    }
  }
  checkpoint.global = GlobalState(k);
  auto theta = checkpoint.global.theta_flat();
  in.read(reinterpret_cast<char*>(theta.data()),
          static_cast<std::streamsize>(theta.size_bytes()));
  if (!in) throw DataError("checkpoint truncated");
  checkpoint.global.update_beta_from_theta();
  return checkpoint;
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

std::string checkpoint_to_bytes(const Checkpoint& checkpoint,
                                quant::RowCodec pi_codec, float sparse_eps) {
  std::ostringstream out(std::ios::binary);
  save_checkpoint(out, checkpoint, pi_codec, sparse_eps);
  return std::move(out).str();
}

Checkpoint checkpoint_from_bytes(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return load_checkpoint(in);
}

}  // namespace scd::core
