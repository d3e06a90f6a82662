#include "tune/search_space.h"

#include <cstdio>

#include "util/error.h"

namespace scd::tune {

const char* dim_name(Dim d) {
  switch (d) {
    case Dim::kWorkers: return "workers";
    case Dim::kThreadsPerNode: return "threads_per_node";
    case Dim::kPipeline: return "pipeline";
    case Dim::kMinibatchVertices: return "minibatch_vertices";
    case Dim::kPiCodec: return "pi_codec";
    case Dim::kSparsity: return "sparsity";
    case Dim::kCount: break;
  }
  return "?";
}

std::string TuneConfig::key() const {
  return "w" + std::to_string(workers) + " t" +
         std::to_string(threads_per_node) +
         " pipe=" + std::to_string(pipeline ? 1 : 0) + " M" +
         std::to_string(minibatch_vertices) +
         " codec=" + quant::codec_name(pi_codec) + " seps=" + [this] {
           char buf[32];
           std::snprintf(buf, sizeof buf, "%g", sparse_eps);
           return std::string(buf);
         }();
}

std::uint64_t SearchSpace::grid_size() const {
  std::uint64_t n = 1;
  for (const auto& v : values) n *= v.size();
  return n;
}

TuneConfig SearchSpace::materialize(const ConfigIndex& index) const {
  for (std::size_t d = 0; d < kNumDims; ++d) {
    SCD_REQUIRE(index[d] < values[d].size(), "config index out of range");
  }
  TuneConfig c;
  c.workers = static_cast<unsigned>(dim(Dim::kWorkers)[index[0]]);
  c.threads_per_node =
      static_cast<unsigned>(dim(Dim::kThreadsPerNode)[index[1]]);
  c.pipeline = dim(Dim::kPipeline)[index[2]] != 0;
  c.minibatch_vertices =
      static_cast<std::uint32_t>(dim(Dim::kMinibatchVertices)[index[3]]);
  c.pi_codec = static_cast<quant::RowCodec>(dim(Dim::kPiCodec)[index[4]]);
  c.sparse_eps =
      static_cast<double>(dim(Dim::kSparsity)[index[5]]) / 10000.0;
  return c;
}

void SearchSpace::validate() const {
  for (std::size_t d = 0; d < kNumDims; ++d) {
    SCD_REQUIRE(!values[d].empty(),
                std::string("search space: empty dimension ") +
                    dim_name(static_cast<Dim>(d)));
  }
  for (const std::uint64_t v : dim(Dim::kPipeline)) {
    SCD_REQUIRE(v <= 1, "search space: pipeline values must be 0/1");
  }
  for (const Dim d : {Dim::kWorkers, Dim::kThreadsPerNode,
                      Dim::kMinibatchVertices}) {
    for (const std::uint64_t v : dim(d)) {
      SCD_REQUIRE(v >= 1, std::string("search space: ") + dim_name(d) +
                              " values must be >= 1");
    }
  }
  for (const std::uint64_t v : dim(Dim::kPiCodec)) {
    SCD_REQUIRE(v < quant::kNumCodecs,
                "search space: pi_codec values must be quant::RowCodec"
                " enumerators");
    SCD_REQUIRE(!quant::is_sparse(static_cast<quant::RowCodec>(v)),
                "search space: pi_codec lists dense value codecs; "
                "sparsity > 0 lifts them to the sparse variant");
  }
  for (const std::uint64_t v : dim(Dim::kSparsity)) {
    SCD_REQUIRE(v < 10000,
                "search space: sparsity values are eps basis points in "
                "[0, 10000)");
  }
}

SearchSpace SearchSpace::default_space() {
  SearchSpace s;
  s.dim(Dim::kWorkers) = {4, 8, 16, 32};
  s.dim(Dim::kThreadsPerNode) = {4, 8, 16};
  s.dim(Dim::kPipeline) = {0, 1};
  s.dim(Dim::kMinibatchVertices) = {2048, 4096, 8192, 16384};
  s.dim(Dim::kPiCodec) = {
      static_cast<std::uint64_t>(quant::RowCodec::kFloat32),
      static_cast<std::uint64_t>(quant::RowCodec::kFp16),
      static_cast<std::uint64_t>(quant::RowCodec::kInt8)};
  // Sparse top-R eps in basis points: dense, tight (0.01), loose (0.05).
  s.dim(Dim::kSparsity) = {0, 100, 500};
  s.validate();
  return s;
}

}  // namespace scd::tune
