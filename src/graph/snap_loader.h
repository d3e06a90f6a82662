// Loader for SNAP edge-list text files (the format of the datasets in
// Table II: '#'-prefixed comment lines, then one "u<TAB>v" edge per line).
// Spaces work as separators too, '%' also starts a comment, and CRLF
// endings are accepted. Each endpoint is a decimal vertex id that must be
// followed by a space, a tab or the end of the line; any other character
// glued to it ("2x", "2.5", "0x10") is a DataError naming the line.
// Extra whitespace-separated columns after the second endpoint (weights,
// timestamps) are ignored.
//
// Vertex ids in SNAP files are sparse; the loader remaps them to a dense
// 0..N-1 range and can report the mapping for users who need to translate
// detected communities back to original ids.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"

namespace scd::graph {

struct SnapLoadResult {
  Graph graph;
  /// dense id -> original SNAP id
  std::vector<std::uint64_t> original_ids;
};

/// Parse from a stream (testable without touching the filesystem).
SnapLoadResult load_snap_stream(std::istream& in);

/// Parse from a file path; throws scd::DataError on malformed content or
/// missing file.
SnapLoadResult load_snap_file(const std::string& path);

/// Write `graph` as a SNAP edge list: `header` as one '#' comment line
/// (none if empty), then one "u<TAB>v" line per edge, u < v, in vertex
/// order. load_snap_stream reads it back as the same graph.
void write_snap_stream(std::ostream& out, const Graph& graph,
                       std::string_view header);

}  // namespace scd::graph
