#include "core/distributed_sampler.h"

#include "core/phi_kernel.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>
#include <type_traits>

#include "core/checkpoint.h"
#include "core/deploy_share.h"
#include "core/distributed_workspace.h"
#include "fault/fault_injector.h"
#include "sim/pipeline_cost.h"
#include "threading/thread_pool.h"
#include "util/bytes.h"
#include "util/error.h"

namespace scd::core {

namespace {

// The protocol's message tags. The master drives each iteration with Ctrl
// records; the workers pass the two stage barriers among themselves with
// beats and answer the master with partial sums.
constexpr int kTagDeploy = 1;  // master -> worker deploy/stop records
constexpr int kTagCtrl = 2;    // master -> worker beta/eval/restart records
constexpr int kTagBeat = 3;    // worker -> worker stage-barrier beats
constexpr int kTagRatios = 4;  // worker -> master 2K ratio partials
constexpr int kTagEval = 5;    // worker -> master perplexity partials

enum Op : std::uint32_t {
  kDeploy = 1,  // new iteration: the minibatch share follows
  kBeta,        // theta stepped; the fresh beta follows
  kEvalDone,    // every live eval partial folded — next iteration
  kRestart,     // membership changed — the live ranks follow; await a
                // new deploy
  kStop,        // run complete
};

/// One master->worker control record, at the front of its message.
/// live_count/member_index tell the worker which slice of the minibatch
/// and held-out set is now its own — reassignment after a death is just
/// these two fields changing. `epoch` counts membership changes: a
/// worker drops messages whose record is from an epoch older than its
/// own.
struct Ctrl {
  std::uint64_t iteration = 0;
  std::uint32_t op = 0;
  std::uint32_t live_count = 0;
  std::uint32_t member_index = 0;
  std::uint32_t eval = 0;           // this iteration ends with an eval round
  std::uint32_t beta_follows = 0;   // beta follows (before any share)
  std::uint32_t epoch = 0;
};
static_assert(std::is_trivially_copyable_v<Ctrl>);

/// Modeled wire size of a stage-barrier beat (it carries no payload).
constexpr std::uint64_t kBeatBytes = 16;

using threading::ThreadPool;

/// Expected number of distinct rows in `refs` (approximately) uniform
/// row references over a population of `rows` — what the cost-only mode
/// charges for a deduplicated read stage so it stays in lockstep with
/// the real mode's KeyIndex.
std::uint64_t expected_distinct_rows(double refs, double rows) {
  if (refs <= 0.0 || rows <= 1.0) return 0;
  const double distinct = rows * -std::expm1(refs * std::log1p(-1.0 / rows));
  return static_cast<std::uint64_t>(std::llround(std::max(1.0, distinct)));
}

}  // namespace

DistributedSampler::DistributedSampler(comm::Cluster& cluster,
                                       const graph::Graph& training,
                                       const graph::HeldOutSplit* heldout,
                                       const Hyper& hyper,
                                       const DistributedOptions& options)
    : cluster_(cluster),
      graph_(&training),
      heldout_(heldout),
      hyper_(hyper),
      options_(options),
      num_workers_(cluster.num_ranks() - 1),
      num_vertices_(training.num_vertices()),
      heldout_size_(heldout != nullptr ? heldout->pairs().size() : 0),
      global_(hyper.num_communities) {
  SCD_REQUIRE(cluster.num_ranks() >= 2,
              "distributed sampler needs a master and >= 1 worker");
  hyper_.validate();
  options_.base.validate();
  SCD_REQUIRE(options_.chunk_vertices >= 1, "chunk_vertices must be >= 1");

  store_ = cluster.make_store(
      {.num_rows = num_vertices_,
       .row_width = pi_row_width(hyper_.num_communities),
       .phantom = false,
       .codec = options_.pi_codec,
       .sparse_eps = options_.sparse_eps});
  const Checkpoint* cp = options_.resume_from;
  if (cp != nullptr) {
    // Resuming lossy state under a different codec would silently change
    // what the DKV round-trips — refuse, naming both codecs.
    SCD_REQUIRE(
        cp->pi_codec == options_.pi_codec,
        std::string("checkpoint pi codec '") +
            quant::codec_name(cp->pi_codec) +
            "' does not match the run's pi codec '" +
            quant::codec_name(options_.pi_codec) +
            "'; re-encode the checkpoint or match DistributedOptions::"
            "pi_codec to resume");
    SCD_REQUIRE(cp->pi.num_vertices() == num_vertices_ &&
                    cp->hyper.num_communities == hyper_.num_communities,
                "checkpoint shape does not match the run");
    global_ = cp->global;
  } else {
    global_.init_random(options_.base.seed, hyper_);
  }
  {
    // The store image: the checkpoint's rows, or the deterministic
    // expanded-mean initialisation the in-process samplers draw. Rows go
    // to disjoint slots (the sim store's sparse byte and nnz totals are
    // integer sums, equal in any order), so a transient pool builds it;
    // the pool is joined here, before run() can fork the proc ranks.
    const unsigned threads =
        std::min(cluster.num_ranks(), std::thread::hardware_concurrency());
    ThreadPool pool(std::max(threads, 1u));
    pool.parallel_for_dynamic(
        0, num_vertices_, init_rows_per_claim(hyper_.num_communities),
        [&](unsigned, std::uint64_t lo, std::uint64_t hi) {
          if (cp != nullptr) {
            for (std::uint64_t v = lo; v < hi; ++v) {
              store_->init_row(v, cp->pi.row(static_cast<std::uint32_t>(v)));
            }
            return;
          }
          std::vector<float> row(store_->row_width());
          for (std::uint64_t v = lo; v < hi; ++v) {
            init_pi_row(options_.base.seed, v, options_.base.init_shape, row);
            store_->init_row(v, row);
          }
        });
  }
  minibatch_.emplace(training, heldout, options_.base.minibatch);
}

DistributedSampler::DistributedSampler(comm::Cluster& cluster,
                                       const PhantomWorkload& workload,
                                       const Hyper& hyper,
                                       const DistributedOptions& options)
    : cluster_(cluster),
      phantom_(workload),
      hyper_(hyper),
      options_(options),
      num_workers_(cluster.num_ranks() - 1),
      num_vertices_(workload.num_vertices),
      heldout_size_(workload.heldout_pairs),
      global_(hyper.num_communities) {
  SCD_REQUIRE(cluster.num_ranks() >= 2,
              "distributed sampler needs a master and >= 1 worker");
  SCD_REQUIRE(workload.num_vertices >= 2 &&
                  workload.minibatch_vertices >= 1,
              "phantom workload underspecified");
  SCD_REQUIRE(std::isfinite(workload.avg_degree) &&
                  workload.avg_degree >= 0.0 &&
                  workload.avg_degree <=
                      static_cast<double>(workload.num_vertices - 1),
              "phantom workload avg_degree must be finite and in [0, N - 1]");
  hyper_.validate();
  options_.base.validate();
  SCD_REQUIRE(cluster.simulated(),
              "cost-only mode needs the simulated backend");
  store_ = cluster.make_store(
      {.num_rows = num_vertices_,
       .row_width = pi_row_width(hyper_.num_communities),
       .phantom = true,
       .codec = options_.pi_codec,
       .sparse_eps = options_.sparse_eps});
}

DistributedResult DistributedSampler::run(std::uint64_t iterations) {
  SCD_REQUIRE(!ran_, "a DistributedSampler instance runs exactly once");
  ran_ = true;
  if (!cluster_.simulated()) {
    // The wall-clock backend replays only what needs no virtual clock:
    // tracing samples virtual time, and every fault except an
    // (iteration, point)-anchored crash is priced in it.
    SCD_REQUIRE(options_.trace == nullptr,
                "tracing needs the simulated backend");
    if (options_.fault_plan != nullptr) {
      const fault::FaultPlan& plan = *options_.fault_plan;
      SCD_REQUIRE(plan.links.empty() && plan.stragglers.empty() &&
                      plan.dkv_stalls.empty(),
                  "the process backend replays crash-only fault plans");
      for (const fault::CrashEvent& c : plan.crashes) {
        SCD_REQUIRE(c.iteration_triggered(),
                    "process-backend crashes must be iteration-triggered "
                    "(at_iteration/at_point), not virtual-time");
      }
    }
  }
  history_.clear();
  if (options_.base.eval_interval > 0) {
    history_.reserve(iterations / options_.base.eval_interval + 1);
  }
  comm::Transport& net = cluster_.transport();
  if (real()) {
    // Pre-warm the transport's payload pool past the most messages in
    // flight: per worker, two pipelined deploys behind a beta record,
    // the record it holds, and its replies.
    const std::size_t max_vertices = minibatch_->max_vertices_bound();
    const std::size_t share_vertices = max_vertices / num_workers_ + 1;
    const std::size_t share_adjacency = std::min<std::size_t>(
        share_vertices * graph_->max_degree(), 2 * graph_->num_edges());
    const std::size_t share_pairs =
        minibatch_->max_pairs_bound() / num_workers_ + 1;
    net.reserve_buffers(
        8 * std::size_t{num_workers_} + 4,
        phantom_share_bytes(share_vertices, share_adjacency, share_pairs));
  }
  for (unsigned rank = 1; rank <= num_workers_; ++rank) {
    net.reserve_mailbox(0, rank, kTagDeploy, 8);
    net.reserve_mailbox(0, rank, kTagCtrl, 4);
    for (const int tag : {kTagRatios, kTagEval}) {
      net.reserve_mailbox(rank, 0, tag, 4);
    }
    if (rank != 1) {  // the first stage-barrier coordinator is rank 1
      net.reserve_mailbox(rank, 1, kTagBeat, 2);
      net.reserve_mailbox(1, rank, kTagBeat, 2);
    }
  }

  if (options_.fault_plan != nullptr) {
    SCD_REQUIRE(real(), "fault-tolerant mode needs a real-mode sampler");
    for (const fault::CrashEvent& c : options_.fault_plan->crashes) {
      // Workers reach the before-eval seam only on eval iterations;
      // anchored anywhere else the crash would silently never fire.
      SCD_REQUIRE(!c.iteration_triggered() ||
                      c.at_point != fault::CrashPoint::kBeforeEval ||
                      eval_due(c.at_iteration),
                  "a kBeforeEval crash must be anchored at an iteration "
                  "that ends with an eval round (at_iteration " +
                      std::to_string(c.at_iteration) + " has none)");
    }
    injector_ = std::make_unique<fault::FaultInjector>(*options_.fault_plan,
                                                       cluster_.num_ranks());
    cluster_.install_fault_hooks(injector_.get());
    store_->install_fault(injector_.get(), cluster_.rank_clocks());
  }

  if (options_.trace != nullptr) {
    trace::TraceRecorder& rec = *options_.trace;
    cluster_.install_trace(&rec);  // REQUIREs a lane per rank
    store_->install_trace(&rec);
    rec.set_lane_name(0, "rank 0 (master)");
    for (unsigned wi = 0; wi < num_workers_; ++wi) {
      rec.set_lane_name(wi + 1, "rank " + std::to_string(wi + 1) +
                                    " (worker " + std::to_string(wi) + ")");
    }
    // Worst case per iteration: ~16 spans on any lane; the master
    // receives 2 messages per worker (ratios, eval), a worker at most 3
    // records plus 2 beats per other worker (the barrier coordinator).
    // Reserving up front keeps recording allocation-free for the whole
    // run.
    const std::size_t w = num_workers_;
    rec.reserve_lane(0, iterations * 16 + 16, iterations * 2 * w + 16);
    for (unsigned rank = 1; rank <= num_workers_; ++rank) {
      rec.reserve_lane(rank, iterations * 16 + 16,
                       iterations * (2 * w + 1) + 16);
    }
  }

  cluster_.run([this, iterations](comm::Context& ctx) {
    if (ctx.is_master()) {
      master_loop(ctx, iterations);
    } else {
      worker_loop(ctx);
    }
  });

  if (injector_ != nullptr) {
    // The injector dies with this sampler; leave no dangling hooks behind.
    cluster_.install_fault_hooks(nullptr);
    store_->install_fault(nullptr, nullptr);
  }
  if (options_.trace != nullptr) {
    cluster_.install_trace(nullptr);
    store_->install_trace(nullptr);
  }

  DistributedResult result;
  result.iterations = iterations;
  result.virtual_seconds = cluster_.max_clock();
  result.avg_iteration_seconds =
      iterations > 0 ? result.virtual_seconds /
                           static_cast<double>(iterations)
                     : 0.0;
  result.critical_path = cluster_.max_stats();
  result.history = history_;
  result.crashed_ranks = crashed_ranks_;
  result.redone_iterations = redone_iterations_;
  return result;
}

DistributedSampler::~DistributedSampler() = default;

// ---------------------------------------------------------------------
// Stage helpers
//
// One SG-MCMC iteration's stages; the loops below only decide how the
// ranks synchronize between them.
// ---------------------------------------------------------------------

/// The master's state for one run: its workspace and the beta it ships.
struct DistributedSampler::MasterRank {
  comm::Context& ctx;
  comm::Transport& net;
  MasterWorkspace ws;
  std::vector<float> beta_buf;

  MasterRank(const DistributedSampler& s, comm::Context& c)
      : ctx(c),
        net(c.transport()),
        ws(s.hyper_.num_communities, s.num_workers_),
        beta_buf(s.global_.beta_all().begin(), s.global_.beta_all().end()) {
    if (s.real()) ws.reserve_real(*s.graph_, *s.minibatch_);
  }
};

/// One worker's state for one run: its workspace, beta and likelihood
/// terms, and the size of the share it is working on.
struct DistributedSampler::WorkerRank {
  comm::Context& ctx;
  comm::Transport& net;
  dkv::ShardedDkv& store;
  const unsigned wi;  // worker index == DKV shard (static even in FT)
  const std::size_t vbytes;
  // Largest neighbor set a vertex can draw (link-aware adds its links).
  const std::size_t set_bound;
  const double phantom_set_size;  // cost-only: mean neighbor set size
  WorkerWorkspace ws;
  std::vector<float> beta_buf;
  LikelihoodTerms terms;
  std::uint64_t n_local = 0;  // vertices of the current share
  std::uint64_t p_local = 0;  // gradient pairs of the current share

  /// `heldout_pairs` bounds the held-out pairs this rank may evaluate.
  WorkerRank(const DistributedSampler& s, comm::Context& c,
             std::size_t heldout_pairs)
      : ctx(c),
        net(c.transport()),
        store(*s.store_),
        wi(c.rank() - 1),
        vbytes(s.store_->value_bytes()),
        set_bound(s.options_.base.num_neighbors +
                  (s.real() ? s.graph_->max_degree() : 0)),
        phantom_set_size(s.options_.base.num_neighbors +
                         (s.options_.base.neighbor_mode ==
                                  NeighborMode::kLinkAware
                              ? s.phantom_.avg_degree
                              : 0.0)),
        ws(s.hyper_.num_communities),
        beta_buf(s.hyper_.num_communities, 0.0f) {
    if (!s.real()) return;
    const unsigned w = s.num_workers_;
    const std::size_t share_vertices =
        s.minibatch_->max_vertices_bound() / w + 1;
    const std::size_t share_adjacency = std::min<std::size_t>(
        share_vertices * s.graph_->max_degree(), 2 * s.graph_->num_edges());
    const std::size_t share_pairs = s.minibatch_->max_pairs_bound() / w + 1;
    const std::size_t stage_refs_bound = std::max<std::size_t>(
        {std::size_t{s.options_.chunk_vertices} * (1 + set_bound),
         2 * share_pairs, 2 * heldout_pairs});
    ws.reserve_real(share_vertices, share_adjacency, share_pairs,
                    pi_row_width(s.hyper_.num_communities), vbytes,
                    set_bound, stage_refs_bound,
                    s.options_.base.num_neighbors,
                    static_cast<graph::Vertex>(s.num_vertices_));
  }

  /// Deduplicated stage read: fetch each distinct row of ws.keys once
  /// (pi is read-only between the stage barriers, so one copy serves
  /// every reference); row_of maps a reference index back to its row.
  /// Rows stay in the wire codec — the enc kernels dequantize
  /// in-register, so nothing is decoded into a float staging area here.
  double load_stage_rows() {
    ws.key_index.build(ws.keys);
    const auto unique = ws.key_index.unique_keys();
    ws.rows_enc.resize(unique.size() * vbytes);
    return store.get_rows_encoded(wi, unique, ws.rows_enc);
  }
  std::span<const std::byte> row_of(std::size_t ref) const {
    const std::size_t slot = ws.key_index.remap()[ref];
    return {ws.rows_enc.data() + slot * vbytes, vbytes};
  }
};

// ---- master stages ---------------------------------------------------

double DistributedSampler::draw_minibatch(MasterRank& m, std::uint64_t t) {
  const auto sp = m.ctx.trace_span(comm::Phase::kDrawMinibatch, t);
  std::uint64_t vertices = phantom_.minibatch_vertices;
  if (real()) {
    rng::Xoshiro256 mb_rng =
        derive_rng(options_.base.seed, rng_label::kMinibatch, t);
    minibatch_->draw_into(mb_rng, m.ws.mb, m.ws.mb_scratch);
    vertices = m.ws.mb.vertices.size();
  }
  m.ctx.charge(comm::Phase::kDrawMinibatch,
               m.ctx.compute().draw_cost_per_vertex_s *
                   static_cast<double>(vertices));
  return real() ? m.ws.mb.scale : 1.0;
}

void DistributedSampler::send_share(MasterRank& m, unsigned slot,
                                    unsigned parts, unsigned rank,
                                    std::uint64_t t, ByteWriter& message) {
  if (!real()) {
    // Cost-only: the record, priced with a phantom share of the right
    // size behind it.
    const auto [vlo, vhi] =
        ThreadPool::chunk_bounds(0, phantom_.minibatch_vertices, slot, parts);
    const auto [plo, phi] =
        ThreadPool::chunk_bounds(0, phantom_.minibatch_pairs, slot, parts);
    const std::uint64_t vertices = vhi - vlo;
    const auto adjacency = static_cast<std::uint64_t>(
        static_cast<double>(vertices) * phantom_.avg_degree);
    const std::uint64_t bytes =
        message.size() + phantom_share_bytes(vertices, adjacency, phi - plo);
    m.net.send_raw(0, rank, kTagDeploy, message.take(), bytes);
    return;
  }
  const graph::Minibatch& mb = m.ws.mb;
  DeployShare& share = m.ws.shares[slot];
  share.clear();
  share.iteration = t;
  const auto [vlo, vhi] =
      ThreadPool::chunk_bounds(0, mb.vertices.size(), slot, parts);
  for (std::uint64_t i = vlo; i < vhi; ++i) {
    const graph::Vertex a = mb.vertices[i];
    share.vertices.push_back(a);
    const auto adj = graph_->neighbors(a);
    share.degrees.push_back(static_cast<std::uint32_t>(adj.size()));
    share.adjacency.insert(share.adjacency.end(), adj.begin(), adj.end());
  }
  const auto [plo, phi] =
      ThreadPool::chunk_bounds(0, mb.pairs.size(), slot, parts);
  for (std::uint64_t i = plo; i < phi; ++i) {
    share.pair_a.push_back(mb.pairs[i].a);
    share.pair_b.push_back(mb.pairs[i].b);
    share.pair_y.push_back(mb.pairs[i].link ? 1 : 0);
  }
  serialize_share(share, message);
  m.net.send_bytes(0, rank, kTagDeploy, message.take());
}

void DistributedSampler::step_theta(MasterRank& m, std::uint64_t t,
                                    double scale) {
  const std::uint32_t k = hyper_.num_communities;
  if (real()) {
    const std::vector<double>& ratios = m.ws.ratios;
    std::vector<double>& grad = m.ws.grad;
    grad.assign(std::size_t{k} * 2, 0.0);
    theta_grad_from_ratios(std::span<const double>(ratios.data(), k),
                           std::span<const double>(ratios.data() + k, k),
                           global_.theta_flat(), grad);
    for (double& g : grad) g *= scale;
    const double eps = options_.base.step.eps(t);
    if (!update_theta(options_.base.seed, t, global_, grad, eps,
                      hyper_.eta0, hyper_.eta1, options_.base.noise_factor,
                      options_.base.gradient_form)) {
      refuse_diverged_step(t, "theta", eps);
    }
    std::copy(global_.beta_all().begin(), global_.beta_all().end(),
              m.beta_buf.begin());
  } else {
    m.beta_buf.assign(k, 0.5f);
  }
  m.ctx.charge_serial(comm::Phase::kUpdateBetaTheta,
                      static_cast<double>(k) * 2.0,
                      m.ctx.compute().theta_unit_cycles);
}

// ---- worker stages ---------------------------------------------------

void DistributedSampler::unpack_share(WorkerRank& r, std::uint64_t t,
                                      std::span<const std::byte> bytes) {
  comm::Context& ctx = r.ctx;
  const double before = ctx.now();
  if (real()) {
    deserialize_share_into(bytes, r.ws.share);
    SCD_ASSERT(r.ws.share.iteration == t, "deploy out of order");
    r.n_local = r.ws.share.vertices.size();
    r.p_local = r.ws.share.pair_a.size();
  } else {
    const auto [vlo, vhi] = ThreadPool::chunk_bounds(
        0, phantom_.minibatch_vertices, r.wi, num_workers_);
    const auto [plo, phi] = ThreadPool::chunk_bounds(
        0, phantom_.minibatch_pairs, r.wi, num_workers_);
    r.n_local = vhi - vlo;
    r.p_local = phi - plo;
  }
  ctx.book(comm::Phase::kDeployMinibatch, ctx.now() - before);
}

void DistributedSampler::sample_neighbors(WorkerRank& r, std::uint64_t t) {
  // In link-aware mode the set additionally holds the vertex's links,
  // which arrived with the deploy share.
  double total_samples = static_cast<double>(r.n_local) * r.phantom_set_size;
  if (real()) {
    WorkerWorkspace& ws = r.ws;
    const DeployShare& share = ws.share;
    ws.ensure_neighbor_sets(r.n_local, r.set_bound);
    total_samples = 0.0;
    std::size_t adj_offset = 0;
    for (std::size_t vi = 0; vi < r.n_local; ++vi) {
      const graph::Vertex a = share.vertices[vi];
      rng::Xoshiro256 nbr_rng =
          derive_rng(options_.base.seed, rng_label::kNeighbors, t, a);
      graph::draw_neighbor_set_into(
          nbr_rng, options_.base.neighbor_mode,
          static_cast<graph::Vertex>(num_vertices_), a,
          share.adj_of(vi, adj_offset), options_.base.num_neighbors,
          ws.neighbor_sets[vi], ws.nbr_scratch);
      adj_offset += share.degrees[vi];
      total_samples +=
          static_cast<double>(ws.neighbor_sets[vi].samples.size());
    }
  }
  const auto sp = r.ctx.trace_span(comm::Phase::kSampleNeighbors, t);
  r.ctx.charge_kernel(comm::Phase::kSampleNeighbors, total_samples,
                      r.ctx.compute().neighbor_unit_cycles);
}

void DistributedSampler::update_phi(WorkerRank& r, std::uint64_t t) {
  comm::Context& ctx = r.ctx;
  WorkerWorkspace& ws = r.ws;
  const std::uint32_t k = hyper_.num_communities;
  const std::uint32_t width = pi_row_width(k);
  const quant::RowCodec codec = store_->codec();
  const bool sparse = quant::is_sparse(codec);
  // Chunked loads double-buffered with compute.
  ws.staged.resize(r.n_local * width);
  sim::PipelineCost pipe;
  const std::uint64_t chunk = options_.chunk_vertices;
  for (std::uint64_t lo = 0; lo < r.n_local; lo += chunk) {
    const std::uint64_t hi = std::min<std::uint64_t>(lo + chunk, r.n_local);
    double load_cost;
    double chunk_samples;
    double load_begin = 0.0;
    double load_end = 0.0;
    if (real()) {
      ws.keys.clear();
      chunk_samples = 0.0;
      for (std::uint64_t vi = lo; vi < hi; ++vi) {
        ws.keys.push_back(ws.share.vertices[vi]);
        for (const graph::NeighborSample& nb : ws.neighbor_sets[vi].samples) {
          ws.keys.push_back(nb.b);
        }
        chunk_samples +=
            static_cast<double>(ws.neighbor_sets[vi].samples.size());
      }
      load_begin = ctx.now();
      load_cost = r.load_stage_rows();
      load_end = ctx.now();
      // Compute phi* for the chunk from the freshly loaded rows. The
      // vertex's own row decodes once into the staging slot; neighbor
      // rows are read straight from the encoded buffer.
      std::size_t ref_idx = 0;
      for (std::uint64_t vi = lo; vi < hi; ++vi) {
        const graph::Vertex a = ws.share.vertices[vi];
        const graph::NeighborSet& set = ws.neighbor_sets[vi];
        std::span<const std::byte> row_a = r.row_of(ref_idx);
        const std::size_t first_nbr_ref = ref_idx + 1;
        ref_idx += 1 + set.samples.size();
        std::span<float> out(ws.staged.data() + vi * width, width);
        const double eps = options_.base.step.eps(t);
        if (!staged_phi_update_enc(
                codec, options_.base.seed, t, a, row_a, set,
                [&](std::size_t i) { return r.row_of(first_nbr_ref + i); },
                r.terms, eps, hyper_.normalized_alpha(), out, ws.scratch,
                options_.base.noise_factor, options_.base.gradient_form)) {
          refuse_diverged_step(t, "the phi row of vertex " + std::to_string(a),
                               eps);
        }
      }
    } else {
      // Expected distinct-row count of uniformly random references,
      // split into the expected local/remote mix.
      chunk_samples = static_cast<double>(hi - lo) * r.phantom_set_size;
      load_cost =
          phantom_read_cost(r, static_cast<double>(hi - lo) + chunk_samples);
    }
    // Sparse rows: each neighbor costs its O(nnz) support loop, and the
    // per-vertex stage + epilogue + re-sparsify cost O(K) once.
    const double phi_units =
        sparse ? chunk_samples * store_->avg_row_nnz() +
                     static_cast<double>(hi - lo) * k
               : chunk_samples * k;
    double compute_cost =
        ctx.compute().kernel_time(phi_units, ctx.compute().phi_unit_cycles);
    if (!ctx.simulated()) {
      // Wall backend: replace the modeled split with the measured one —
      // DKV wait vs. phi kernel time of this chunk.
      load_cost = load_end - load_begin;
      compute_cost = ctx.now() - load_end;
    }
    pipe.add_chunk(load_cost, compute_cost);
  }
  // Stats record the sub-stage views of Table III; the clock advances
  // by the (possibly overlapped) critical path. One kUpdatePhi span
  // covers the overlapped load+compute pipeline — the kLoadPi
  // sub-stage view lives only in PhaseStats, since the two interleave
  // within the same virtual interval. The pipeline total bypasses
  // charge(), so a straggler's slowdown is applied here explicitly
  // (without a fault plan the factor is 1.0, and x * 1.0 == x).
  const auto sp = ctx.trace_span(comm::Phase::kUpdatePhi, t);
  const double factor =
      injector_ != nullptr ? injector_->compute_factor(ctx.rank(), ctx.now())
                           : 1.0;
  ctx.book(comm::Phase::kLoadPi, pipe.load_total() * factor);
  ctx.book(comm::Phase::kUpdatePhi, pipe.compute_total() * factor);
  ctx.advance(pipe.total(options_.pipeline) * factor);
}

void DistributedSampler::write_pi(WorkerRank& r, std::uint64_t t) {
  // Normalization is folded into phi*; this is the DKV write-back.
  comm::Context& ctx = r.ctx;
  const auto sp = ctx.trace_span(comm::Phase::kUpdatePi, t);
  ctx.charge_kernel(comm::Phase::kUpdatePi,
                    static_cast<double>(r.n_local) * hyper_.num_communities,
                    ctx.compute().pi_unit_cycles);
  double write_cost;
  if (real()) {
    // Minibatch vertices are already unique — no dedup needed.
    r.ws.keys.assign(r.ws.share.vertices.begin(), r.ws.share.vertices.end());
    write_cost = store_->put_rows(r.wi, r.ws.keys, r.ws.staged);
  } else {
    const std::uint64_t local = r.n_local / num_workers_;
    write_cost = store_->write_cost(r.wi, local, r.n_local - local);
  }
  ctx.charge(comm::Phase::kUpdatePi, write_cost);
}

void DistributedSampler::ratio_partials(WorkerRank& r) {
  comm::Context& ctx = r.ctx;
  WorkerWorkspace& ws = r.ws;
  const std::uint32_t k = hyper_.num_communities;
  const quant::RowCodec codec = store_->codec();
  const bool sparse = quant::is_sparse(codec);
  std::vector<double>& ratios = ws.ratios;
  ratios.assign(std::size_t{k} * 2, 0.0);
  double load_cost;
  if (real()) {
    const DeployShare& share = ws.share;
    ws.keys.clear();
    for (std::uint64_t i = 0; i < r.p_local; ++i) {
      ws.keys.push_back(share.pair_a[i]);
      ws.keys.push_back(share.pair_b[i]);
    }
    load_cost = r.load_stage_rows();
    std::span<double> link(ratios.data(), k);
    std::span<double> nonlink(ratios.data() + k, k);
    if (sparse) {
      // Support-driven scatters per pair; the dense eps_a*eps_b*bt_j/Z
      // term folds once per stratum.
      double eps_link = 0.0;
      double eps_nonlink = 0.0;
      for (std::uint64_t i = 0; i < r.p_local; ++i) {
        const bool y = share.pair_y[i] != 0;
        sparse_accumulate_theta_ratio_enc(
            codec, r.row_of(2 * i), r.row_of(2 * i + 1), k, r.terms, y,
            y ? link : nonlink, y ? eps_link : eps_nonlink);
      }
      sparse_theta_epilogue(eps_link, eps_nonlink, r.terms, link, nonlink);
    } else {
      for (std::uint64_t i = 0; i < r.p_local; ++i) {
        const bool y = share.pair_y[i] != 0;
        fast_accumulate_theta_ratio_enc(codec, r.row_of(2 * i),
                                        r.row_of(2 * i + 1), k, r.terms, y,
                                        y ? link : nonlink, ws.scratch.w);
      }
    }
  } else {
    load_cost = phantom_read_cost(r, static_cast<double>(2 * r.p_local));
  }
  ctx.charge(comm::Phase::kUpdateBetaTheta, load_cost);
  // Sparse pairs cost their two supports (capped at K: a fallback side
  // degrades to the dense pass) plus the 2K epilogue fold.
  const double beta_units =
      sparse ? static_cast<double>(r.p_local) *
                       std::min<double>(k, 2.0 * store_->avg_row_nnz()) +
                   2.0 * k
             : static_cast<double>(r.p_local) * k;
  ctx.charge_kernel(comm::Phase::kUpdateBetaTheta, beta_units,
                    ctx.compute().beta_unit_cycles);
}

void DistributedSampler::eval_partial(WorkerRank& r,
                                      PerplexityEvaluator* evaluator) {
  comm::Context& ctx = r.ctx;
  WorkerWorkspace& ws = r.ws;
  const std::uint32_t k = hyper_.num_communities;
  const quant::RowCodec codec = store_->codec();
  std::vector<double>& acc = ws.eval_acc;
  acc.assign(2, 0.0);  // [sum log avg, pair count]
  std::uint64_t pairs;
  if (real()) {
    const auto slice = evaluator->slice();
    ws.keys.clear();
    for (const graph::HeldOutPair& p : slice) {
      ws.keys.push_back(p.a);
      ws.keys.push_back(p.b);
    }
    ctx.charge(comm::Phase::kPerplexity, r.load_stage_rows());
    for (std::size_t i = 0; i < slice.size(); ++i) {
      evaluator->add_sample_prob(
          i, fast_pair_likelihood_enc(codec, r.row_of(2 * i),
                                      r.row_of(2 * i + 1), k, r.terms,
                                      slice[i].link));
    }
    evaluator->finish_sample();
    acc[0] = evaluator->sum_log_avg();
    acc[1] = static_cast<double>(slice.size());
    pairs = evaluator->size();
  } else {
    const auto [lo, hi] =
        ThreadPool::chunk_bounds(0, heldout_size_, r.wi, num_workers_);
    pairs = hi - lo;
    ctx.charge(comm::Phase::kPerplexity,
               phantom_read_cost(r, static_cast<double>(2 * pairs)));
  }
  const double perp_pair_units =
      quant::is_sparse(codec)
          ? std::min<double>(k, 2.0 * store_->avg_row_nnz())
          : static_cast<double>(k);
  ctx.charge_kernel(comm::Phase::kPerplexity,
                    static_cast<double>(pairs) * perp_pair_units,
                    ctx.compute().perplexity_unit_cycles);
}

double DistributedSampler::phantom_read_cost(const WorkerRank& r,
                                             double refs) const {
  // Cost-only twin of load_stage_rows for `refs` uniform references.
  const std::uint64_t rows =
      expected_distinct_rows(refs, static_cast<double>(num_vertices_));
  const std::uint64_t local = rows / num_workers_;
  return store_->read_cost(r.wi, local, rows - local);
}

// ---------------------------------------------------------------------
// Protocol
//
// The master deploys each iteration with Ctrl records, gathers the
// workers' partial sums and ships the stepped beta back; the workers
// pass the two stage barriers (phi before pi, pi before beta) among
// themselves, through the lowest live worker. No rank joins a
// collective, so membership can shrink mid-run: a missing message
// (recv_bytes_or_dead) is the failure detector. Each stage barrier, gather and beta release
// charges the collective skew once, as the collective it stands for
// would (4 per iteration + 1 per eval). Under options_.pipeline the
// master deploys iteration t+1 before it gathers t's ratio partials, so
// its draw and deploy overlap all of the workers' stages of t.
//
// Recovery (fault plan only; without one a dead worker is a
// TransportError): a worker that dies before a stage barrier is missed
// there by every survivor alike, and they abandon the iteration with an
// empty ratio partial; one that dies later is missed by the master's
// gather. Either way the master finds the dead rank's partial missing. It
// redoes an interrupted iteration over the survivors (pi writes that
// landed before the crash are kept — SG-MCMC tolerates the
// perturbation), re-homes the dead rank's DKV shard to the lowest
// surviving worker, and re-slices its minibatch/held-out slices by
// (member_index, live_count). With rollback_interval > 0 the master
// instead restores the last in-memory core/checkpoint snapshot. Each
// recovery starts a new membership epoch; the survivors learn it and the
// live ranks from the restart record and drop the deploy prefetched in
// the old one. Workers fail-stop only at fixed protocol points when
// their virtual clock passes the plan's crash time, after completing all
// earlier sends — which makes detection, and therefore the whole faulted
// trajectory, deterministic.
// ---------------------------------------------------------------------

void DistributedSampler::master_loop(comm::Context& ctx,
                                     std::uint64_t iterations) {
  const std::uint32_t k = hyper_.num_communities;
  const unsigned w = num_workers_;
  MasterRank m(*this, ctx);
  comm::Transport& net = m.net;
  std::vector<float>& beta_buf = m.beta_buf;
  const double skew = ctx.network().collective_skew_s;
  const bool rollback =
      injector_ != nullptr && options_.rollback_interval > 0;

  std::vector<unsigned> live(w);
  for (unsigned wi = 0; wi < w; ++wi) live[wi] = wi + 1;
  std::uint32_t epoch = 0;

  // A message starts with a record stamped with the current epoch, and
  // carries beta after it when the record says so.
  std::vector<std::byte> out;
  auto start_message = [&](Ctrl c) {
    c.epoch = epoch;
    out = net.acquire_buffer();
    ByteWriter message(out);
    message.put(c);
    if (c.beta_follows != 0) {
      message.put_span(std::span<const float>(beta_buf));
    }
    return message;
  };
  auto release = [&](std::uint64_t t, Op op, int tag, bool beta) {
    for (unsigned rank : live) {
      ByteWriter message = start_message({t, op, 0, 0, 0, beta ? 1u : 0u});
      if (op == kRestart) message.put_span(std::span<const unsigned>(live));
      net.send_bytes(0, rank, tag, message.take());
    }
  };

  // Rollback snapshots: a full checkpoint serialized to memory. Taking
  // one costs the master a wire-read of every pi row. The snapshot of
  // boundary t is taken before the master's last release of iteration
  // t - 1 (its beta, or the eval release): every pi write of t - 1 has
  // landed and every worker waits for that release, so no rank touches
  // pi while it is read. Evaluated per snapshot: sparse rows' average
  // wire bytes drift as the model concentrates.
  std::string snap_bytes;
  auto snap_wire_s = [&]() {
    return ctx.network().transfer_time(static_cast<std::uint64_t>(
        std::llround(static_cast<double>(num_vertices_) *
                     store_->avg_row_wire_bytes())));
  };
  auto take_snapshot = [&](std::uint64_t t) {
    if (!rollback || t >= iterations || t % options_.rollback_interval != 0) {
      return;
    }
    const auto sp = ctx.trace_span(comm::Phase::kBarrierWait, t);
    Checkpoint cp;
    cp.iteration = t;
    cp.hyper = hyper_;
    cp.pi = snapshot_pi();
    cp.global = global_;
    // Snapshots store pi in the run's wire codec: the modeled wire charge
    // (snap_wire_s) already prices the per-row actual bytes, and a
    // rollback restore then re-encodes through the same codec —
    // consistent, and exact under fp32.
    snap_bytes = checkpoint_to_bytes(cp, options_.pi_codec,
                                     options_.sparse_eps);
    ctx.charge(comm::Phase::kBarrierWait, snap_wire_s());
  };
  take_snapshot(0);

  // Rank-ordered gather from every live worker; consume(payload) runs per
  // arrival, so reductions fold in rank order (deterministic). An empty
  // payload is a worker that abandoned the iteration at a stage barrier.
  // Returns true when at least one worker turned out dead instead.
  std::vector<unsigned> dead_now;
  auto gather = [&](int tag, auto&& consume) {
    dead_now.clear();
    bool abandoned = false;
    const double before = ctx.now();
    for (unsigned rank : live) {
      auto payload = net.recv_bytes_or_dead(0, rank, tag);
      if (!payload.has_value()) {
        if (injector_ == nullptr) {
          throw comm::TransportError("worker rank " + std::to_string(rank) +
                                     " died and no fault plan is set");
        }
        dead_now.push_back(rank);
        continue;
      }
      if (payload->empty()) {
        abandoned = true;
      } else {
        consume(*payload);
      }
      net.recycle_buffer(std::move(*payload));
    }
    ctx.book(comm::Phase::kBarrierWait, ctx.now() - before);
    SCD_ASSERT(!abandoned || !dead_now.empty(),
               "a worker abandoned the iteration, but no worker died");
    return !dead_now.empty();
  };

  bool beta_follows = true;  // the next deploy ships beta: initial or
                             // restored by a rollback
  bool prefetched = false;   // iteration t was deployed during t - 1
  double scale_next = 0.0;   // h(E_n) of the prefetched minibatch

  // Draw iteration t's minibatch and ship it: per live worker one
  // message of the deploy record, beta when due, and the worker's share.
  // Returns the minibatch's h(E_n) scale.
  auto deploy = [&](std::uint64_t t) -> double {
    const double scale = draw_minibatch(m, t);
    const auto sp = ctx.trace_span(comm::Phase::kDeployMinibatch, t);
    const auto lw = static_cast<std::uint32_t>(live.size());
    for (std::uint32_t li = 0; li < lw; ++li) {
      ByteWriter message =
          start_message({t, kDeploy, lw, li, eval_due(t) ? 1u : 0u,
                         beta_follows ? 1u : 0u});
      send_share(m, li, lw, live[li], t, message);
    }
    beta_follows = false;
    return scale;
  };

  // Failure detected at iteration `t`: charge the heartbeat timeout,
  // shrink membership, re-home the dead shards, optionally roll back,
  // and tell the survivors to restart in a new epoch. `lost` = the
  // iteration was still in flight (vs. fully applied, eval round aside).
  // Returns the next iteration to run.
  auto handle_death = [&](bool lost, std::uint64_t t) -> std::uint64_t {
    const auto sp = ctx.trace_span(trace::Stage::kRecovery, t);
    const double start = ctx.now();  // wall clocks advance between reads
    double detect = start;
    for (unsigned rank : dead_now) {
      // Iteration-triggered crashes have no crash *time* (+inf): the
      // detection instant is then just the gather's own now().
      const double ct = injector_->crash_time(rank);
      if (std::isfinite(ct)) {
        detect = std::max(detect, ct + injector_->heartbeat_timeout_s());
      }
    }
    ctx.book(comm::Phase::kBarrierWait, detect - start);
    ctx.advance_to(detect);
    for (unsigned rank : dead_now) {
      crashed_ranks_.push_back(rank);
      live.erase(std::find(live.begin(), live.end(), rank));
    }
    SCD_REQUIRE(!live.empty(), "all workers failed; run cannot continue");
    for (unsigned rank : dead_now) {
      const unsigned heir = live.front() - 1;
      ctx.charge(comm::Phase::kBarrierWait, store_->rehome_cost(rank - 1));
      store_->rehome_shard(rank - 1, heir);
    }
    std::uint64_t next = lost ? t : t + 1;
    if (rollback) {
      const Checkpoint cp = checkpoint_from_bytes(snap_bytes);
      for (std::uint64_t v = 0; v < num_vertices_; ++v) {
        store_->init_row(v, cp.pi.row(static_cast<std::uint32_t>(v)));
      }
      global_ = cp.global;
      std::copy(global_.beta_all().begin(), global_.beta_all().end(),
                beta_buf.begin());
      ctx.charge(comm::Phase::kBarrierWait, snap_wire_s());
      beta_follows = true;
      next = cp.iteration;
    }
    redone_iterations_ += (t + 1) - next;
    if (trace::TraceRecorder* rec = ctx.trace()) {
      rec->metrics().count(trace::Metric::kRecoveries, ctx.rank(),
                           dead_now.size());
      rec->metrics().count(trace::Metric::kRedoneIterations, ctx.rank(),
                           (t + 1) - next);
    }
    ++epoch;
    prefetched = false;
    release(next, kRestart, kTagCtrl, false);
    return next;
  };

  std::uint64_t t = 0;
  while (t < iterations) {
    if (options_.master_iteration_hook) options_.master_iteration_hook(t);

    // ---- deploy t (unless prefetched), and prefetch t+1 when pipelined --
    const double scale = prefetched ? scale_next : deploy(t);
    prefetched = options_.pipeline && t + 1 < iterations;
    if (prefetched) scale_next = deploy(t + 1);

    // ---- gather ratio partials, step theta -----------------------------
    std::vector<double>& ratios = m.ws.ratios;
    ratios.assign(std::size_t{k} * 2, 0.0);
    bool ratio_death;
    {
      const auto sp = ctx.trace_span(comm::Phase::kBarrierWait, t);
      ratio_death = gather(kTagRatios, [&](const std::vector<std::byte>& p) {
        SCD_ASSERT(p.size() == ratios.size() * sizeof(double),
                   "malformed ratio partial");
        for (std::size_t i = 0; i < ratios.size(); ++i) {
          double part;
          std::memcpy(&part, p.data() + i * sizeof(double), sizeof(part));
          ratios[i] += part;
        }
      });
      if (!ratio_death) ctx.charge(comm::Phase::kBarrierWait, skew);
    }
    if (ratio_death) {
      t = handle_death(/*lost=*/true, t);
      continue;
    }
    const bool eval = eval_due(t);
    {
      const auto sp = ctx.trace_span(comm::Phase::kUpdateBetaTheta, t);
      step_theta(m, t, scale);
    }
    if (!eval) take_snapshot(t + 1);
    {
      const auto sp = ctx.trace_span(comm::Phase::kUpdateBetaTheta, t);
      ctx.charge(comm::Phase::kUpdateBetaTheta, skew);
      release(t, kBeta, kTagCtrl, /*beta=*/true);
    }

    // ---- perplexity over the live ranks' held-out slices ---------------
    if (eval) {
      std::vector<double>& acc = m.ws.eval_acc;
      acc.assign(2, 0.0);
      bool eval_death;
      {
        const auto sp = ctx.trace_span(comm::Phase::kBarrierWait, t);
        eval_death = gather(kTagEval, [&](const std::vector<std::byte>& p) {
          SCD_ASSERT(p.size() == 2 * sizeof(double), "malformed eval partial");
          double part[2];
          std::memcpy(part, p.data(), sizeof(part));
          acc[0] += part[0];
          acc[1] += part[1];
        });
        ctx.charge(comm::Phase::kBarrierWait, skew);
      }
      if (acc[1] > 0.0) {
        const double perp = PerplexityEvaluator::perplexity(
            acc[0], static_cast<std::uint64_t>(acc[1]));
        history_.push_back({t + 1, ctx.now(), perp});
      }
      if (eval_death) {
        // Theta/beta/pi for t are fully applied — nothing to redo.
        t = handle_death(/*lost=*/false, t);
        continue;
      }
      take_snapshot(t + 1);
      // Workers wait for this release, so none starts the prefetched
      // deploy while a death could still void it.
      const auto sp = ctx.trace_span(comm::Phase::kBarrierWait, t);
      release(t, kEvalDone, kTagCtrl, false);
    }
    ++t;
  }

  {
    const auto sp = ctx.trace_span(comm::Phase::kBarrierWait, iterations);
    release(iterations, kStop, kTagDeploy, false);
  }
}

void DistributedSampler::worker_loop(comm::Context& ctx) {
  // Under a fault plan a survivor's held-out slice grows after a death,
  // so its workspace is sized for the whole held-out set.
  const auto [eh_lo, eh_hi] =
      ThreadPool::chunk_bounds(0, heldout_size_, ctx.rank() - 1, num_workers_);
  WorkerRank r(*this, ctx,
               injector_ != nullptr ? heldout_size_ : eh_hi - eh_lo);
  comm::Transport& net = r.net;
  const double skew = ctx.network().collective_skew_s;
  std::uint32_t epoch = 0;
  // The live worker ranks, as of the latest restart record.
  std::vector<unsigned> live(num_workers_);
  for (unsigned wi = 0; wi < num_workers_; ++wi) live[wi] = wi + 1;

  // The next record on `tag`, booking the wait to `p`. A message whose
  // record is from an older epoch — a deploy prefetched before a
  // restart — is dropped whole. Beta behind the record is installed;
  // `msg` keeps the message and `rest` the bytes after it (a deploy's
  // share, a restart's live ranks) until the next call.
  std::vector<std::byte> msg;
  std::span<const std::byte> rest;
  auto recv_record = [&](int tag, comm::Phase p) -> Ctrl {
    const auto sp = ctx.trace_span(p);
    const double before = ctx.now();
    Ctrl c;
    for (;;) {
      net.recycle_buffer(std::move(msg));
      msg = net.recv_bytes(ctx.rank(), 0, tag);
      ByteReader in(msg);
      c = in.get<Ctrl>();
      if (c.epoch < epoch) continue;
      if (c.beta_follows != 0) {
        in.get_into(r.beta_buf);
        SCD_ASSERT(r.beta_buf.size() == hyper_.num_communities,
                   "malformed beta payload");
        r.terms.refresh(r.beta_buf, hyper_.delta);
      }
      rest = in.rest();
      break;
    }
    ctx.book(p, ctx.now() - before);
    return c;
  };
  // Wait for the master's record `op` of iteration t. False when a
  // restart arrives instead: this rank adopts its epoch and live ranks.
  auto await_release = [&](comm::Phase p, Op op, std::uint64_t t) {
    const Ctrl c = recv_record(kTagCtrl, p);
    if (c.op == kRestart) {
      epoch = c.epoch;
      ByteReader in(rest);
      in.get_into(live);
      return false;
    }
    SCD_ASSERT(c.op == op && c.iteration == t, "unexpected stage record");
    return true;
  };
  // Stage barrier among the live workers, through the lowest live one
  // (the coordinator): every other worker sends it a beat and waits for
  // its release. A worker that died before its beat is missed by the
  // coordinator, which then releases the others with a one-byte abandon
  // verdict; a dead coordinator is missed by all of them. Either way
  // every survivor abandons the iteration: each tells the master with an
  // empty ratio partial and waits for the restart record. Returns false
  // then.
  auto stage_barrier = [&](std::uint64_t t) {
    const auto sp = ctx.trace_span(comm::Phase::kBarrierWait, t);
    const double before = ctx.now();
    const unsigned self = ctx.rank();
    const unsigned coordinator = live.front();
    bool all_in = true;
    auto take = [&](unsigned from) {  // the beat's payload, or dead
      auto beat = net.recv_bytes_or_dead(self, from, kTagBeat);
      if (!beat.has_value() && injector_ == nullptr) {
        throw comm::TransportError("worker rank " + std::to_string(from) +
                                   " died and no fault plan is set");
      }
      if (!beat.has_value() || !beat->empty()) all_in = false;
      if (beat.has_value()) net.recycle_buffer(std::move(*beat));
    };
    if (self == coordinator) {
      for (unsigned rank : live) {
        if (rank != self) take(rank);
      }
      if (all_in) ctx.advance(skew);
      const std::uint8_t abandon = 1;
      for (unsigned rank : live) {
        if (rank == self) continue;
        if (all_in) {
          net.send_phantom(self, rank, kTagBeat, kBeatBytes);
        } else {
          net.send<std::uint8_t>(self, rank, kTagBeat,
                                 std::span<const std::uint8_t>(&abandon, 1));
        }
      }
    } else {
      net.send_phantom(self, coordinator, kTagBeat, kBeatBytes);
      take(coordinator);
    }
    ctx.book(comm::Phase::kBarrierWait, ctx.now() - before);
    if (all_in) return true;
    net.send_phantom(self, 0, kTagRatios, 0);
    await_release(comm::Phase::kBarrierWait, kRestart, t);
    return false;
  };
  // Fail-stop point: past the plan's crash time — or exactly at a
  // plan-scheduled (iteration, point) trigger — this rank dies here,
  // after completing every earlier send, before the upcoming one, which
  // is what makes detection deterministic.
  auto fail_stop = [&](std::uint64_t t, fault::CrashPoint point) -> bool {
    if (injector_ == nullptr ||
        !injector_->crashed(ctx.rank(), ctx.now(), t, point)) {
      return false;
    }
    net.mark_rank_dead(ctx.rank());
    return true;
  };

  // Held-out slice of the current membership; rebuilt when (live_count,
  // member_index) changes. Running per-pair averages restart then — the
  // pairs moved owner, and their history moved off-cluster with the dead
  // rank (documented approximation in DESIGN.md).
  std::unique_ptr<PerplexityEvaluator> evaluator;
  unsigned eval_live = 0;
  unsigned eval_member = 0;

  for (;;) {
    const Ctrl c = recv_record(kTagDeploy, comm::Phase::kDeployMinibatch);
    if (c.op == kStop) {
      net.recycle_buffer(std::move(msg));
      return;
    }
    SCD_ASSERT(c.op == kDeploy && c.live_count == live.size(),
               "unexpected record at the deploy point");
    const std::uint64_t t = c.iteration;
    const unsigned lw = c.live_count;
    const unsigned li = c.member_index;

    unpack_share(r, t, rest);
    sample_neighbors(r, t);
    update_phi(r, t);

    if (fail_stop(t, fault::CrashPoint::kAfterPhi)) return;
    if (!stage_barrier(t)) continue;

    write_pi(r, t);

    if (fail_stop(t, fault::CrashPoint::kAfterPi)) return;
    if (!stage_barrier(t)) continue;

    {
      const auto sp = ctx.trace_span(comm::Phase::kUpdateBetaTheta, t);
      ratio_partials(r);
    }
    if (fail_stop(t, fault::CrashPoint::kBeforeRatios)) return;
    {
      const auto sp = ctx.trace_span(comm::Phase::kUpdateBetaTheta, t);
      net.send<double>(ctx.rank(), 0, kTagRatios,
                       std::span<const double>(r.ws.ratios));
    }
    if (!await_release(comm::Phase::kUpdateBetaTheta, kBeta, t)) continue;

    if (c.eval != 0) {  // eval_due(t) on the master
      {
        const auto sp = ctx.trace_span(comm::Phase::kPerplexity, t);
        if (real() &&
            (evaluator == nullptr || eval_live != lw || eval_member != li)) {
          const auto [lo, hi] =
              ThreadPool::chunk_bounds(0, heldout_size_, li, lw);
          evaluator = std::make_unique<PerplexityEvaluator>(
              std::span<const graph::HeldOutPair>(
                  heldout_->pairs().data() + lo, hi - lo));
          eval_live = lw;
          eval_member = li;
        }
        eval_partial(r, evaluator.get());
        if (fail_stop(t, fault::CrashPoint::kBeforeEval)) return;
        net.send<double>(ctx.rank(), 0, kTagEval,
                         std::span<const double>(r.ws.eval_acc));
      }
      if (!await_release(comm::Phase::kBarrierWait, kEvalDone, t)) {
        continue;
      }
    }
  }
}

PiMatrix DistributedSampler::snapshot_pi() const {
  SCD_REQUIRE(real(), "no pi state in cost-only mode");
  PiMatrix pi = PiMatrix::for_overwrite(
      static_cast<std::uint32_t>(num_vertices_), hyper_.num_communities);
  for (std::uint64_t v = 0; v < num_vertices_; ++v) {
    store_->read_row(v, pi.row(static_cast<std::uint32_t>(v)));
  }
  return pi;
}

}  // namespace scd::core
