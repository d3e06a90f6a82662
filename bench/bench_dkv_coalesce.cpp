// Before/after study of the DKV request-coalescing + deduplication layer
// (the Section III-B batching design, taken further per owner shard).
//
// Three request models are costed for the same key traffic:
//
//  A. per_row_ms      — one RDMA message per row: latency_s +
//                       dkv_request_overhead_s charged per remote row.
//                       The naive fetch loop a worker would run without
//                       any batching.
//  B. seed_batch_ms   — one batched descriptor list: latency_s once,
//                       dkv_request_overhead_s per remote row (what this
//                       repo charged before the coalescing layer).
//  C. coalesced_ms    — this PR: keys deduplicated per stage via
//                       KeyIndex, then one message per contacted owner
//                       shard (SimRdmaDkv::read_cost_keys).
//
// The key traffic is a replayed trace, not a synthetic count: stratified
// random-node minibatches on the com-Friendster stand-in graph (65,608
// vertices, avg degree ~55) with link-aware neighbor sets (n = 32),
// chunked exactly like DistributedSampler::worker_loop chunks its
// update_phi loads (32 vertices per chunk; at paper scale every worker
// slice spans many chunks, so whole-minibatch chunks match the per-worker
// chunk composition). nonlink_partitions is chosen so minibatches are
// tens of vertices — the paper's M=16384 at N=65.6M, at 1/1000 stand-in
// scale. Duplication therefore comes from where the algorithm creates
// it: shared neighbor rows inside a chunk, and the stratified anchor
// vertex repeating in every update_beta pair.
//
// Also records phantom-vs-real keyed-cost parity (max relative error;
// must be exactly 0 — both sides are the same partition arithmetic).
#include <cmath>

#include "bench/bench_util.h"
#include "dkv/key_index.h"
#include "dkv/sim_rdma_dkv.h"
#include "graph/datasets.h"
#include "graph/minibatch.h"
#include "threading/thread_pool.h"

using namespace scd;

namespace {

constexpr std::uint64_t kIterations = 256;
constexpr std::uint64_t kChunkVertices = 32;
constexpr std::size_t kNumNeighbors = 32;
constexpr std::size_t kNonlinkPartitions = 1024;

/// One stage's accumulated traffic under the three request models.
struct StageCost {
  double refs = 0.0;
  double unique = 0.0;
  double per_row_s = 0.0;
  double seed_batch_s = 0.0;
  double coalesced_s = 0.0;

  void add_row(Table& table, const std::string& stage, std::uint32_t k,
               unsigned shards) const {
    const double iters = static_cast<double>(kIterations);
    table.add_row({stage, std::int64_t(k), std::int64_t(shards),
                   refs / iters, unique / iters, refs / unique,
                   per_row_s / iters * 1e3, seed_batch_s / iters * 1e3,
                   coalesced_s / iters * 1e3, per_row_s / coalesced_s,
                   seed_batch_s / coalesced_s});
  }
};

/// Cost of `keys` under models A and B: local rows stream from RAM,
/// remote rows each carry a request overhead — and, in the per-row model,
/// a full message latency as well.
void charge_uncoalesced(const dkv::SimRdmaDkv& store,
                        const comm::NetworkModel& net,
                        const sim::ComputeModel& node, unsigned shard,
                        std::span<const std::uint64_t> keys,
                        StageCost& cost) {
  std::uint64_t local = 0;
  for (std::uint64_t key : keys) {
    if (store.partition().owner(key) == shard) ++local;
  }
  const std::uint64_t remote = keys.size() - local;
  const std::uint64_t row_bytes = store.value_bytes();
  const double local_s = node.local_bytes_time(local * row_bytes);
  const std::uint64_t remote_bytes = remote * row_bytes;
  const double batch_s =
      net.dkv_batch_time(remote, remote_bytes, remote_bytes,
                         store.partition().num_shards());
  cost.seed_batch_s += local_s + batch_s;
  // Per-row messaging pays the one-way latency on every remote message,
  // not once per batch.
  cost.per_row_s +=
      local_s + batch_s +
      (remote > 0 ? static_cast<double>(remote - 1) * net.latency_s : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchIo io;
  if (!io.parse(argc, argv, "bench_dkv_coalesce",
                "DKV coalescing + dedup: before/after cost study")) {
    return 0;
  }

  const comm::NetworkModel net;
  const sim::ComputeModel node = sim::das5_node();

  rng::Xoshiro256 gen_rng(2016);
  const graph::DatasetSpec& spec = graph::dataset_by_name("com-Friendster");
  const graph::GeneratedGraph g = graph::generate_standin(gen_rng, spec);
  const graph::Vertex n_vertices = g.graph.num_vertices();

  graph::MinibatchSampler::Options mb_options;
  mb_options.strategy = graph::MinibatchStrategy::kStratifiedRandomNode;
  mb_options.nonlink_partitions = kNonlinkPartitions;
  const graph::MinibatchSampler minibatch(g.graph, nullptr, mb_options);

  Table table({"stage", "k", "shards", "refs_iter", "unique_iter",
               "dup_factor", "per_row_ms", "seed_batch_ms", "coalesced_ms",
               "speedup_vs_per_row", "speedup_vs_seed_batch"});
  Table parity({"shards", "batches_checked", "parity_max_rel_err"});

  for (const unsigned shards : {16u, 64u}) {
    // Parity stores: same partition arithmetic must price identical key
    // multisets identically whether or not the store holds data. Width
    // is small so the real store stays cheap to build.
    dkv::SimRdmaDkv parity_real(n_vertices, 9, shards, net, node);
    dkv::SimRdmaDkv parity_phantom(n_vertices, 9, shards, net, node,
                                   /*phantom=*/true);
    double parity_err = 0.0;
    std::int64_t parity_batches = 0;

    for (const std::uint32_t k : {1024u, 12288u}) {
      // [pi | sum phi] rows: K + 1 floats.
      dkv::SimRdmaDkv store(n_vertices, k + 1, shards, net, node,
                            /*phantom=*/true);
      StageCost load_pi;
      StageCost update_pi;
      StageCost update_beta;

      rng::Xoshiro256 mb_rng(7);
      rng::Xoshiro256 nbr_rng(11);
      graph::Minibatch mb;
      graph::MinibatchScratch mb_scratch;
      graph::NeighborSet nbr_set;
      graph::NeighborScratch nbr_scratch;
      dkv::KeyIndex index;
      std::vector<std::uint64_t> keys;

      auto charge_read = [&](StageCost& cost) {
        charge_uncoalesced(store, net, node, 0, keys, cost);
        index.build(keys);
        cost.refs += static_cast<double>(keys.size());
        cost.unique += static_cast<double>(index.unique_keys().size());
        cost.coalesced_s += store.read_cost_keys(0, index.unique_keys());
        if (k == 1024) {  // parity is width-independent; check once per K
          const double real_cost = parity_real.read_cost_keys(0, keys);
          const double phantom_cost =
              parity_phantom.read_cost_keys(0, keys);
          parity_err = std::max(
              parity_err, std::abs(real_cost - phantom_cost) / real_cost);
          ++parity_batches;
        }
      };

      for (std::uint64_t t = 0; t < kIterations; ++t) {
        minibatch.draw_into(mb_rng, mb, mb_scratch);

        // ---- load_pi: per chunk, a vertex plus its neighbor samples ---
        for (std::size_t lo = 0; lo < mb.vertices.size();
             lo += kChunkVertices) {
          const std::size_t hi =
              std::min(lo + kChunkVertices, mb.vertices.size());
          keys.clear();
          for (std::size_t vi = lo; vi < hi; ++vi) {
            const graph::Vertex a = mb.vertices[vi];
            keys.push_back(a);
            graph::draw_neighbor_set_into(
                nbr_rng, graph::NeighborMode::kLinkAware, n_vertices, a,
                g.graph.neighbors(a), kNumNeighbors, nbr_set, nbr_scratch);
            for (const graph::NeighborSample& nb : nbr_set.samples) {
              keys.push_back(nb.b);
            }
          }
          charge_read(load_pi);
        }

        // ---- update_pi: write back one row per minibatch vertex -------
        keys.assign(mb.vertices.begin(), mb.vertices.end());
        charge_uncoalesced(store, net, node, 0, keys, update_pi);
        update_pi.refs += static_cast<double>(keys.size());
        update_pi.unique += static_cast<double>(keys.size());
        update_pi.coalesced_s += store.write_cost_keys(0, keys);

        // ---- update_beta: both endpoints of every pair -----------------
        keys.clear();
        for (const graph::MinibatchPair& pair : mb.pairs) {
          keys.push_back(pair.a);
          keys.push_back(pair.b);
        }
        charge_read(update_beta);
      }

      load_pi.add_row(table, "load_pi", k, shards);
      update_pi.add_row(table, "update_pi", k, shards);
      update_beta.add_row(table, "update_beta", k, shards);
    }
    parity.add_row({std::int64_t(shards), parity_batches, parity_err});
  }

  io.emit(table, "dkv_coalesce",
          "DKV coalescing + dedup — per-iteration stage cost, "
          "com-Friendster stand-in trace");
  io.emit(parity, "dkv_coalesce_parity",
          "Phantom vs real keyed-cost parity (must be 0)");
  return 0;
}
