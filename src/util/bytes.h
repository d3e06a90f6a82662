// Minimal byte-buffer serialization for transport payloads.
//
// Only trivially-copyable scalars and spans thereof; byte order is the
// host's (the simulated cluster shares one process, and the real target
// cluster is homogeneous x86, as MPI deployments typically are).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "util/error.h"

namespace scd {

class ByteWriter {
 public:
  ByteWriter() : buffer_(&owned_) {}

  /// Serialize into `external` (cleared first, capacity kept) instead of
  /// an internal buffer — lets callers reuse one payload buffer across
  /// messages. `external` must outlive the writer; take() is then a move
  /// out of it.
  explicit ByteWriter(std::vector<std::byte>& external) : buffer_(&external) {
    external.clear();
  }

  template <typename T>
  void put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t offset = buffer_->size();
    buffer_->resize(offset + sizeof(T));
    std::memcpy(buffer_->data() + offset, &value, sizeof(T));
  }

  template <typename T>
  void put_span(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    put<std::uint64_t>(values.size());
    const std::size_t offset = buffer_->size();
    buffer_->resize(offset + values.size_bytes());
    if (!values.empty()) {
      std::memcpy(buffer_->data() + offset, values.data(),
                  values.size_bytes());
    }
  }

  std::span<const std::byte> bytes() const { return *buffer_; }
  std::vector<std::byte> take() { return std::move(*buffer_); }
  std::size_t size() const { return buffer_->size(); }

 private:
  std::vector<std::byte> owned_;
  std::vector<std::byte>* buffer_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    SCD_REQUIRE(pos_ + sizeof(T) <= bytes_.size(),
                "byte buffer underrun");
    T value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  template <typename T>
  std::vector<T> get_vector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto count = get<std::uint64_t>();
    SCD_REQUIRE(pos_ + count * sizeof(T) <= bytes_.size(),
                "byte buffer underrun");
    std::vector<T> values(count);
    if (count > 0) {
      std::memcpy(values.data(), bytes_.data() + pos_, count * sizeof(T));
    }
    pos_ += count * sizeof(T);
    return values;
  }

  /// get_vector into a reused buffer: after warm-up (capacity >= count)
  /// this allocates nothing.
  template <typename T>
  void get_into(std::vector<T>& out) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto count = get<std::uint64_t>();
    SCD_REQUIRE(pos_ + count * sizeof(T) <= bytes_.size(),
                "byte buffer underrun");
    out.resize(count);
    if (count > 0) {
      std::memcpy(out.data(), bytes_.data() + pos_, count * sizeof(T));
    }
    pos_ += count * sizeof(T);
  }

  bool exhausted() const { return pos_ == bytes_.size(); }
  /// The bytes not read yet.
  std::span<const std::byte> rest() const { return bytes_.subspan(pos_); }

 private:
  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace scd
