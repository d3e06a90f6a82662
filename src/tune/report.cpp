#include "tune/report.h"

#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <tuple>

namespace scd::tune {

namespace {

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

void append_config(std::ostringstream& os, const TuneConfig& c) {
  os << "{\"key\": " << quoted(c.key()) << ", \"workers\": " << c.workers
     << ", \"threads_per_node\": " << c.threads_per_node
     << ", \"pipeline\": " << (c.pipeline ? 1 : 0)
     << ", \"minibatch_vertices\": " << c.minibatch_vertices
     << ", \"pi_codec\": " << quoted(quant::codec_name(c.pi_codec))
     << ", \"sparse_eps\": " << num(c.sparse_eps) << "}";
}

void append_probe(std::ostringstream& os, const ProbeResult& p,
                  const std::string& indent) {
  os << indent << "{\n";
  os << indent << "  \"config\": ";
  append_config(os, p.config);
  os << ",\n";
  os << indent << "  \"virtual_s\": " << num(p.virtual_s) << ",\n";
  os << indent << "  \"per_iteration_s\": " << num(p.per_iteration_s)
     << ",\n";
  os << indent << "  \"objective\": " << num(p.objective) << ",\n";
  os << indent << "  \"critical_path\": {";
  for (std::size_t s = 0; s < trace::kNumStages; ++s) {
    if (s) os << ", ";
    os << quoted(trace::stage_name(static_cast<trace::Stage>(s))) << ": "
       << num(p.on_path_s[s]);
  }
  os << "},\n";
  os << indent << "  \"phi_load_s\": " << num(p.phi_load_s) << ",\n";
  os << indent << "  \"phi_compute_s\": " << num(p.phi_compute_s) << ",\n";
  os << indent << "  \"comm_share\": " << num(p.comm_share) << ",\n";
  os << indent << "  \"compute_share\": " << num(p.compute_share) << ",\n";
  // metrics_json is already serialized JSON (a MetricsRegistry table
  // array); embed it verbatim.
  os << indent << "  \"metrics\": " << p.metrics_json << "\n";
  os << indent << "}";
}

std::string pct(double share) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", share * 100.0);
  return buf;
}

std::string ms(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f ms", seconds * 1e3);
  return buf;
}

}  // namespace

std::string tuning_log_json(const TuneResult& result) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"grid_size\": " << result.grid_size << ",\n";
  os << "  \"probes_run\": " << result.probes.size() << ",\n";
  os << "  \"probe_fraction\": " << num(result.probe_fraction()) << ",\n";
  os << "  \"rounds\": " << result.rounds << ",\n";
  os << "  \"best\":\n";
  append_probe(os, result.best, "  ");
  os << ",\n  \"probes\": [\n";
  for (std::size_t i = 0; i < result.probes.size(); ++i) {
    append_probe(os, result.probes[i], "    ");
    os << (i + 1 < result.probes.size() ? ",\n" : "\n");
  }
  os << "  ],\n";
  os << "  \"prunes\": [\n";
  for (std::size_t i = 0; i < result.prunes.size(); ++i) {
    const PruneRecord& r = result.prunes[i];
    os << "    {\"round\": " << r.round << ", \"dim\": "
       << quoted(dim_name(r.decision.dim)) << ", \"direction\": "
       << quoted(r.decision.upward ? "up" : "down") << ", \"rule\": "
       << quoted(r.decision.rule) << ", \"share_name\": "
       << quoted(r.decision.cited_share_name) << ", \"share\": "
       << num(r.decision.cited_share) << ", \"threshold\": "
       << num(r.decision.threshold) << ", \"why\": "
       << quoted(r.decision.why) << "}"
       << (i + 1 < result.prunes.size() ? ",\n" : "\n");
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

std::string why_report(const TuneResult& result) {
  std::ostringstream os;
  os << "scd tune: searched " << result.probes.size() << "/"
     << result.grid_size << " configurations (" <<
      pct(result.probe_fraction()) << " of the grid) in " << result.rounds
     << " round(s)\n\n";

  const ProbeResult& start = result.probes.front();
  const ProbeResult& best = result.best;
  os << "start  " << start.config.key() << "  objective "
     << ms(start.objective) << "/iteration\n";
  os << "best   " << best.config.key() << "  objective "
     << ms(best.objective) << "/iteration";
  if (best.objective > 0.0) {
    os << "  (" << pct(start.objective / best.objective - 1.0)
       << " faster than start)";
  }
  os << "\n\n";

  os << "where the best configuration spends its critical path:\n";
  for (std::size_t s = 0; s < trace::kNumStages; ++s) {
    const auto stage = static_cast<trace::Stage>(s);
    if (best.on_path_s[s] <= 0.0) continue;
    os << "  " << trace::stage_name(stage) << ": "
       << ms(best.on_path_s[s]) << " (" << pct(best.share(stage)) << ")\n";
  }
  os << "  comm share " << pct(best.comm_share) << ", compute share "
     << pct(best.compute_share) << "\n\n";

  if (result.prunes.empty()) {
    os << "pruned directions: none — every direction stayed live\n";
    return os.str();
  }
  os << "pruned directions (each cites the share that justified it):\n";
  // A rule refiring in later rounds adds no information; keep the first
  // occurrence of each (dimension, direction, rule).
  std::set<std::tuple<Dim, bool, std::string>> seen;
  for (const PruneRecord& r : result.prunes) {
    if (!seen.emplace(r.decision.dim, r.decision.upward, r.decision.rule)
             .second) {
      continue;
    }
    os << "  [round " << r.round << "] " << dim_name(r.decision.dim)
       << (r.decision.upward ? " up" : " down") << " — " << r.decision.rule
       << ": " << r.decision.why << " [" << r.decision.cited_share_name
       << " = " << pct(r.decision.cited_share) << ", threshold "
       << pct(r.decision.threshold) << "]\n";
  }
  return os.str();
}

}  // namespace scd::tune
