// Binary checkpointing of the model state.
//
// Long SG-MCMC runs (the paper's take 3-40 hours) need resumable state.
// A checkpoint captures everything the sampler's trajectory depends on
// besides the graph: pi (with phi sums), theta/beta, the iteration
// counter, and the hyperparameters — with a magic/version header and
// structural validation on load. Format is host-endian (checkpoints are
// machine-local artifacts, like MPI restart dumps).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/hyper.h"
#include "core/state.h"
#include "quant/row_codec.h"

namespace scd::core {

struct Checkpoint {
  std::uint64_t iteration = 0;
  Hyper hyper;
  PiMatrix pi{1, 1};
  GlobalState global{1};
  /// Codec the checkpoint's pi rows were stored in: kFloat32 for
  /// version-1 files, the on-disk codec tag for version-2/3 files. Rows
  /// are always decoded to floats on load; this records provenance so a
  /// resuming sampler can reject a codec mismatch instead of silently
  /// reinterpreting lossy state (DistributedOptions::resume_from).
  quant::RowCodec pi_codec = quant::RowCodec::kFloat32;
};

/// Serialize to a stream / file: writes exactly the bytes of
/// checkpoint_to_bytes. Throws scd::Error on I/O failure.
/// `pi_codec` selects the on-disk pi row encoding: kFloat32 (default)
/// writes the original version-1 format byte-for-byte; fp16/int8 write a
/// version-2 checkpoint with a codec tag and quant/row_codec.h-encoded
/// rows (smaller, lossy within the codec's error bound); the sparse
/// top-R codecs write a version-3 checkpoint whose rows are
/// length-prefixed (uint32 quant::row_bytes, then exactly that many
/// bytes), so on-disk size follows the rows' true sparsity instead of
/// the dense-fallback capacity. `sparse_eps` is the top-R mass tolerance
/// used when (re-)encoding rows for a sparse pi_codec; ignored
/// otherwise. Theta is always stored exact.
void save_checkpoint(std::ostream& out, const Checkpoint& checkpoint,
                     quant::RowCodec pi_codec = quant::RowCodec::kFloat32,
                     float sparse_eps = quant::kDefaultSparseEps);
void save_checkpoint_file(
    const std::string& path, const Checkpoint& checkpoint,
    quant::RowCodec pi_codec = quant::RowCodec::kFloat32,
    float sparse_eps = quant::kDefaultSparseEps);

/// Deserialize (any version; encoded rows are decoded on load). Reads
/// `in` to EOF and parses those bytes as checkpoint_from_bytes does;
/// bytes after the checkpoint are consumed and ignored. Throws
/// scd::DataError on corrupt or mismatched content.
Checkpoint load_checkpoint(std::istream& in);
Checkpoint load_checkpoint_file(const std::string& path);

/// In-memory round-trip through the same binary format — the
/// fault-tolerant sampler's rollback snapshots, the serving refresh, and
/// anything else that wants checkpoint semantics without touching the
/// filesystem. The writer fills one string reserved up front; the parser
/// reads the string in place through a bounds-checked cursor, and
/// tolerates trailing bytes.
std::string checkpoint_to_bytes(
    const Checkpoint& checkpoint,
    quant::RowCodec pi_codec = quant::RowCodec::kFloat32,
    float sparse_eps = quant::kDefaultSparseEps);
Checkpoint checkpoint_from_bytes(const std::string& bytes);

/// Throws scd::DataError, naming the vertex and the column, unless every
/// pi weight is finite and non-negative and every phi_sum (column K) is
/// finite and positive: the state the SGRLD row update can continue
/// from. The samplers' restore() calls it; the loader does not, so a
/// checkpoint that is only served keeps its parse path.
void check_trainable_pi(const PiMatrix& pi);

}  // namespace scd::core
