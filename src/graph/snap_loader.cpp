#include "graph/snap_loader.h"

#include <charconv>
#include <fstream>
#include <ostream>

#include "graph/builder.h"
#include "util/error.h"

namespace scd::graph {

namespace {

// Parse one unsigned integer starting at *pos; advances *pos past it.
// The integer must end the line or be followed by a space or tab, so
// "2x", "2.5" and "0x10" are refused rather than read as 2, 2 and 0.
std::uint64_t parse_uint(const std::string& line, std::size_t* pos,
                         std::size_t line_no) {
  const char* begin = line.data() + *pos;
  const char* end = line.data() + line.size();
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr == begin) {
    throw DataError("SNAP parse error at line " + std::to_string(line_no) +
                    ": expected integer in '" + line + "'");
  }
  if (ptr != end && *ptr != ' ' && *ptr != '\t') {
    throw DataError("SNAP parse error at line " + std::to_string(line_no) +
                    ": unexpected '" + std::string(1, *ptr) +
                    "' after vertex id in '" + line + "'");
  }
  *pos = static_cast<std::size_t>(ptr - line.data());
  return value;
}

}  // namespace

SnapLoadResult load_snap_stream(std::istream& in) {
  std::unordered_map<std::uint64_t, Vertex> remap;
  std::vector<std::uint64_t> original_ids;
  std::vector<std::pair<Vertex, Vertex>> edges;

  auto dense_id = [&](std::uint64_t raw) -> Vertex {
    auto [it, inserted] =
        remap.try_emplace(raw, static_cast<Vertex>(original_ids.size()));
    if (inserted) original_ids.push_back(raw);
    return it->second;
  };

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Trim trailing carriage return from CRLF files.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::size_t pos = line.find_first_not_of(" \t");
    if (pos == std::string::npos) continue;           // blank
    if (line[pos] == '#' || line[pos] == '%') continue;  // comment
    const std::uint64_t u_raw = parse_uint(line, &pos, line_no);
    pos = line.find_first_not_of(" \t", pos);
    if (pos == std::string::npos) {
      throw DataError("SNAP parse error at line " + std::to_string(line_no) +
                      ": missing second endpoint");
    }
    const std::uint64_t v_raw = parse_uint(line, &pos, line_no);
    if (u_raw == v_raw) continue;  // SNAP files contain occasional loops
    // Sequence the id assignments: emplace_back's argument evaluation
    // order is unspecified, and first-seen-order ids are part of the API.
    const Vertex u = dense_id(u_raw);
    const Vertex v = dense_id(v_raw);
    edges.emplace_back(u, v);
  }

  GraphBuilder builder(static_cast<Vertex>(original_ids.size()));
  for (const auto& [u, v] : edges) builder.add_edge(u, v);
  return SnapLoadResult{std::move(builder).build(), std::move(original_ids)};
}

SnapLoadResult load_snap_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw DataError("cannot open graph file '" + path + "'");
  return load_snap_stream(in);
}

void write_snap_stream(std::ostream& out, const Graph& graph,
                       std::string_view header) {
  if (!header.empty()) out << "# " << header << '\n';
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    for (Vertex w : graph.neighbors(v)) {
      if (v < w) out << v << '\t' << w << '\n';
    }
  }
}

}  // namespace scd::graph
