#include "core/distributed_sampler.h"

#include "core/phi_kernel.h"

#include <algorithm>
#include <cmath>
#include <cstring>
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

constexpr int kTagDeploy = 1;
constexpr unsigned kChannelGlobal = 0;   // master + all workers
constexpr unsigned kChannelWorkers = 1;  // workers only (DKV consistency)

// Fault-tolerant protocol tags. FT mode replaces the collectives with
// master-coordinated point-to-point rounds (collectives require static
// membership; these survive a shrinking live set).
constexpr int kTagCtrl = 2;       // master -> worker FtCtrl records
constexpr int kTagHeartbeat = 3;  // worker -> master stage-done beacons
constexpr int kTagRatios = 4;     // worker -> master 2K ratio partials
constexpr int kTagBeta = 5;       // master -> worker fresh beta
constexpr int kTagEval = 6;       // worker -> master perplexity partials

enum FtOp : std::uint32_t {
  kFtDeploy = 1,  // new iteration: share follows (and beta, when flagged)
  kFtPiGo,        // all live workers finished update_phi — write pi
  kFtBetaGo,      // all live workers finished update_pi — compute ratios
  kFtBeta,        // theta stepped; beta payload follows
  kFtRestart,     // membership changed — discard stage, await new deploy
  kFtStop,        // run complete
};

/// One master->worker control record. live_count/member_index tell the
/// worker which slice of the minibatch and held-out set is now its own —
/// reassignment after a death is just these two fields changing.
struct FtCtrl {
  std::uint64_t iteration = 0;
  std::uint32_t op = 0;
  std::uint32_t live_count = 0;
  std::uint32_t member_index = 0;
  std::uint32_t eval = 0;           // this iteration ends with an eval round
  std::uint32_t beta_follows = 0;   // a kTagBeta payload precedes the share
};
static_assert(std::is_trivially_copyable_v<FtCtrl>);

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

/// Per-vertex cost of the master's minibatch draw: the alias-anchor path
/// (graph/minibatch.h) trades the Lemire rejection loop for a table
/// lookup, which the compute model prices separately.
double draw_cost_per_vertex(const comm::Context& ctx,
                            const DistributedOptions& options) {
  return options.base.minibatch.alias_anchor
             ? ctx.compute().draw_cost_per_vertex_alias_s
             : ctx.compute().draw_cost_per_vertex_s;
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
       .sparse_eps = options_.sparse_eps,
       .sparse_modeled_nnz = 0});
  if (options_.resume_from != nullptr) {
    // Resuming lossy state under a different codec would silently change
    // what the DKV round-trips — refuse, naming both codecs.
    const Checkpoint& cp = *options_.resume_from;
    SCD_REQUIRE(
        cp.pi_codec == options_.pi_codec,
        std::string("checkpoint pi codec '") + quant::codec_name(cp.pi_codec) +
            "' does not match the run's pi codec '" +
            quant::codec_name(options_.pi_codec) +
            "'; re-encode the checkpoint or match DistributedOptions::"
            "pi_codec to resume");
    SCD_REQUIRE(cp.pi.num_vertices() == num_vertices_ &&
                    cp.hyper.num_communities == hyper_.num_communities,
                "checkpoint shape does not match the run");
    for (std::uint64_t v = 0; v < num_vertices_; ++v) {
      store_->init_row(v, cp.pi.row(static_cast<std::uint32_t>(v)));
    }
    global_ = cp.global;
  } else {
    // Deterministic expanded-mean initialisation, identical to the
    // in-process samplers (setup is untimed, as in the paper).
    std::vector<float> row(store_->row_width());
    for (std::uint64_t v = 0; v < num_vertices_; ++v) {
      init_pi_row(options_.base.seed, v, options_.base.init_shape, row);
      store_->init_row(v, row);
    }
    global_.init_random(options_.base.seed, hyper_);
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
  hyper_.validate();
  options_.base.validate();
  SCD_REQUIRE(cluster.simulated(),
              "cost-only mode needs the simulated backend");
  store_ = cluster.make_store(
      {.num_rows = num_vertices_,
       .row_width = pi_row_width(hyper_.num_communities),
       .phantom = true,
       .codec = options_.pi_codec,
       .sparse_eps = options_.sparse_eps,
       .sparse_modeled_nnz = options_.sparse_modeled_nnz});
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
  if (real()) {
    // Pre-warm the transport's payload pool: with pipelining, up to two
    // deploy shares per worker are in flight while the master serializes
    // a third batch.
    const std::size_t max_vertices = minibatch_->max_vertices_bound();
    const std::size_t share_vertices = max_vertices / num_workers_ + 1;
    const std::size_t share_adjacency = std::min<std::size_t>(
        share_vertices * graph_->max_degree(), 2 * graph_->num_edges());
    const std::size_t share_pairs =
        minibatch_->max_pairs_bound() / num_workers_ + 1;
    cluster_.transport().reserve_buffers(
        2 * num_workers_ + 2,
        phantom_share_bytes(share_vertices, share_adjacency, share_pairs));
  }
  // Pre-warm the collective slot pool and deploy mailboxes past their
  // worst-case in-flight depth: each rank can hold one undeparted slot
  // and each channel one partially-arrived slot, and the pipelined
  // master stays at most a couple of deploys ahead of any worker.
  cluster_.transport().reserve_collectives(
      num_workers_ + 4, 2 * std::size_t{hyper_.num_communities} + 2,
      std::size_t{hyper_.num_communities} * sizeof(float));
  for (unsigned wi = 0; wi < num_workers_; ++wi) {
    cluster_.transport().reserve_mailbox(0, wi + 1, kTagDeploy, 8);
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
    // Worst case per rank-iteration: ~12 spans (workers touch every
    // stage) and ~8 message/collective edges. Reserving up front keeps
    // recording allocation-free for the whole run.
    rec.reserve(iterations * 12 + 16, iterations * 8 + 16);
  }

  cluster_.run([this, iterations](comm::Context& ctx) {
    if (injector_ != nullptr) {
      if (ctx.is_master()) {
        ft_master_loop(ctx, iterations);
      } else {
        ft_worker_loop(ctx);
      }
    } else if (ctx.is_master()) {
      master_loop(ctx, iterations);
    } else {
      worker_loop(ctx, iterations);
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
// One SG-MCMC iteration, written once; the two protocols below only
// decide how the ranks synchronize between stages. A stage's charges,
// books, spans and sends run in the same order under either protocol,
// so modeled virtual time does not depend on which one drives it.
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
  const bool dedup;
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
        dedup(s.options_.dedup_reads),
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
    if (dedup) {
      ws.key_index.build(ws.keys);
      const auto unique = ws.key_index.unique_keys();
      ws.rows_enc.resize(unique.size() * vbytes);
      return store.get_rows_encoded(wi, unique, ws.rows_enc);
    }
    ws.rows_enc.resize(ws.keys.size() * vbytes);
    return store.get_rows_encoded(wi, ws.keys, ws.rows_enc);
  }
  std::span<const std::byte> row_of(std::size_t ref) const {
    const std::size_t slot = dedup ? ws.key_index.remap()[ref] : ref;
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
               draw_cost_per_vertex(m.ctx, options_) *
                   static_cast<double>(vertices));
  return real() ? m.ws.mb.scale : 1.0;
}

void DistributedSampler::send_share(MasterRank& m, unsigned slot,
                                    unsigned parts, unsigned rank,
                                    std::uint64_t t) {
  if (!real()) {
    // Cost-only: a phantom share of the right size.
    const auto [vlo, vhi] =
        ThreadPool::chunk_bounds(0, phantom_.minibatch_vertices, slot, parts);
    const auto [plo, phi] =
        ThreadPool::chunk_bounds(0, phantom_.minibatch_pairs, slot, parts);
    const std::uint64_t vertices = vhi - vlo;
    const auto adjacency = static_cast<std::uint64_t>(
        static_cast<double>(vertices) * phantom_.avg_degree);
    m.net.send_phantom(0, rank, kTagDeploy,
                       phantom_share_bytes(vertices, adjacency, phi - plo));
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
  // Serialize into a pooled payload buffer; the receiving worker
  // recycles it after deserializing.
  std::vector<std::byte> payload = m.net.acquire_buffer();
  ByteWriter writer(payload);
  serialize_share(share, writer);
  m.net.send_bytes(0, rank, kTagDeploy, std::move(payload));
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
    update_theta(options_.base.seed, t, global_, grad,
                 options_.base.step.eps(t), hyper_.eta0, hyper_.eta1,
                 options_.base.noise_factor, options_.base.gradient_form);
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

void DistributedSampler::recv_share(WorkerRank& r, std::uint64_t t) {
  comm::Context& ctx = r.ctx;
  const auto sp = ctx.trace_span(comm::Phase::kDeployMinibatch, t);
  const double before = ctx.now();
  if (real()) {
    std::vector<std::byte> payload =
        r.net.recv_bytes(ctx.rank(), 0, kTagDeploy);
    deserialize_share_into(payload, r.ws.share);
    r.net.recycle_buffer(std::move(payload));
    SCD_ASSERT(r.ws.share.iteration == t, "deploy out of order");
    r.n_local = r.ws.share.vertices.size();
    r.p_local = r.ws.share.pair_a.size();
  } else {
    r.net.recv_discard(ctx.rank(), 0, kTagDeploy);
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
        staged_phi_update_enc(
            codec, options_.base.seed, t, a, row_a, set,
            [&](std::size_t i) { return r.row_of(first_nbr_ref + i); },
            r.terms, options_.base.step.eps(t), hyper_.normalized_alpha(),
            out, ws.scratch, options_.base.noise_factor,
            options_.base.gradient_form);
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
  // charge(), so an FT straggler's slowdown is applied here explicitly
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

double DistributedSampler::phantom_read_cost(WorkerRank& r, double refs) {
  // Cost-only twin of load_stage_rows for `refs` uniform references.
  comm::Context& ctx = r.ctx;
  const double n = static_cast<double>(num_vertices_);
  const std::uint64_t rows =
      r.dedup ? expected_distinct_rows(refs, n)
              : static_cast<std::uint64_t>(std::llround(refs));
  const std::uint64_t local = rows / num_workers_;
  const std::uint64_t remote = rows - local;
  // Modeled worker-side row cache: remote rows are served at the
  // steady-state LRU hit rate — capacity over the remote row population
  // this worker can request (every row not on its own shard). Uniform
  // references make that the stationary occupancy of any
  // capacity-bounded cache, so no replacement policy needs simulating.
  const double cache_population = n - n / static_cast<double>(num_workers_);
  const double cache_hit_rate =
      options_.dkv_cache_rows == 0 || cache_population <= 0.0
          ? 0.0
          : std::min(1.0, static_cast<double>(options_.dkv_cache_rows) /
                              cache_population);
  if (cache_hit_rate == 0.0) return store_->read_cost(r.wi, local, remote);
  const auto hits = static_cast<std::uint64_t>(
      std::llround(static_cast<double>(remote) * cache_hit_rate));
  const std::uint64_t misses = remote - hits;
  if (trace::TraceRecorder* rec = ctx.trace()) {
    rec->metrics().count(trace::Metric::kDkvHits, ctx.rank(), hits);
    rec->metrics().count(trace::Metric::kDkvMisses, ctx.rank(), misses);
  }
  // Hits stream the cached rows from local memory; misses pay the
  // remote read plus the cache's insert/evict bookkeeping. Rows are
  // cached encoded, so hits stream the modeled wire bytes per row.
  const double cache_s =
      ctx.compute().local_bytes_time(static_cast<std::uint64_t>(
          std::llround(static_cast<double>(hits) *
                       store_->avg_row_wire_bytes()))) +
      static_cast<double>(misses) * ctx.compute().dkv_cache_insert_s;
  return cache_s + store_->read_cost(r.wi, local, misses);
}

// ---------------------------------------------------------------------
// Legacy protocol: barriers and collectives
// ---------------------------------------------------------------------

void DistributedSampler::master_loop(comm::Context& ctx,
                                     std::uint64_t iterations) {
  const std::uint32_t k = hyper_.num_communities;
  MasterRank m(*this, ctx);
  comm::Transport& net = m.net;

  // Initial beta so workers can form likelihood terms.
  {
    const auto sp = ctx.trace_span(trace::Stage::kSetup);
    net.broadcast(0, 0, std::span<float>(m.beta_buf), kChannelGlobal);
  }

  // Draw + scatter one minibatch; returns its h(E_n) scale.
  auto deploy = [&](std::uint64_t t) -> double {
    const double scale = draw_minibatch(m, t);
    const auto sp = ctx.trace_span(comm::Phase::kDeployMinibatch, t);
    for (unsigned wi = 0; wi < num_workers_; ++wi) {
      send_share(m, wi, num_workers_, wi + 1, t);
    }
    return scale;
  };

  double scale_current = deploy(0);
  double scale_next = 0.0;

  for (std::uint64_t t = 0; t < iterations; ++t) {
    if (options_.master_iteration_hook) options_.master_iteration_hook(t);

    // Pipelined: prepare iteration t+1 while workers run update_phi of t.
    if (options_.pipeline && t + 1 < iterations) {
      scale_next = deploy(t + 1);
    }

    // update_beta/theta: collect the workers' ratio partials.
    m.ws.ratios.assign(std::size_t{k} * 2, 0.0);
    {
      const auto sp = ctx.trace_span(comm::Phase::kBarrierWait, t);
      const double before = ctx.now();
      net.reduce_sum(0, 0, m.ws.ratios, kChannelGlobal);
      ctx.book(comm::Phase::kBarrierWait, ctx.now() - before);
    }
    {
      const auto sp = ctx.trace_span(comm::Phase::kUpdateBetaTheta, t);
      step_theta(m, t, scale_current);
      const double before = ctx.now();
      net.broadcast(0, 0, std::span<float>(m.beta_buf), kChannelGlobal);
      ctx.book(comm::Phase::kUpdateBetaTheta, ctx.now() - before);
    }

    // Non-pipelined: the next draw serializes after this iteration.
    if (!options_.pipeline && t + 1 < iterations) {
      scale_next = deploy(t + 1);
    }

    if (eval_due(t)) {
      std::vector<double>& acc = m.ws.eval_acc;
      acc.assign(2, 0.0);  // [sum log avg, pair count]
      const auto sp = ctx.trace_span(comm::Phase::kBarrierWait, t);
      const double before = ctx.now();
      net.reduce_sum(0, 0, acc, kChannelGlobal);
      ctx.book(comm::Phase::kBarrierWait, ctx.now() - before);
      if (real()) {
        const double perp = PerplexityEvaluator::perplexity(
            acc[0], static_cast<std::uint64_t>(acc[1]));
        history_.push_back({t + 1, ctx.now(), perp});
      }
    }

    scale_current = scale_next;
  }
}

void DistributedSampler::worker_loop(comm::Context& ctx,
                                     std::uint64_t iterations) {
  const unsigned w = num_workers_;
  const auto [eh_lo, eh_hi] =
      ThreadPool::chunk_bounds(0, heldout_size_, ctx.rank() - 1, w);
  WorkerRank r(*this, ctx, eh_hi - eh_lo);
  comm::Transport& net = r.net;

  // Initial beta.
  {
    const auto sp = ctx.trace_span(trace::Stage::kSetup);
    net.broadcast(ctx.rank(), 0, std::span<float>(r.beta_buf),
                  kChannelGlobal);
  }
  r.terms.refresh(r.beta_buf, hyper_.delta);

  // This worker's held-out slice and its persistent running averages.
  std::unique_ptr<PerplexityEvaluator> evaluator;
  if (real() && heldout_ != nullptr && heldout_size_ > 0) {
    evaluator = std::make_unique<PerplexityEvaluator>(
        std::span<const graph::HeldOutPair>(heldout_->pairs().data() + eh_lo,
                                            eh_hi - eh_lo));
  }

  for (std::uint64_t t = 0; t < iterations; ++t) {
    recv_share(r, t);
    sample_neighbors(r, t);
    update_phi(r, t);

    // phi must be fully read cluster-wide before anyone writes pi.
    {
      const auto sp = ctx.trace_span(comm::Phase::kBarrierWait, t);
      ctx.timed_barrier(kChannelWorkers, w);
    }

    write_pi(r, t);

    // pi must be visible cluster-wide before update_beta reads it.
    {
      const auto sp = ctx.trace_span(comm::Phase::kBarrierWait, t);
      ctx.timed_barrier(kChannelWorkers, w);
    }

    {
      const auto sp = ctx.trace_span(comm::Phase::kUpdateBetaTheta, t);
      ratio_partials(r);
      const double before = ctx.now();
      net.reduce_sum(ctx.rank(), 0, r.ws.ratios, kChannelGlobal);
      net.broadcast(ctx.rank(), 0, std::span<float>(r.beta_buf),
                    kChannelGlobal);
      ctx.book(comm::Phase::kUpdateBetaTheta, ctx.now() - before);
      if (real()) r.terms.refresh(r.beta_buf, hyper_.delta);
    }

    if (eval_due(t)) {
      const auto sp = ctx.trace_span(comm::Phase::kPerplexity, t);
      eval_partial(r, evaluator.get());
      net.reduce_sum(ctx.rank(), 0, r.ws.eval_acc, kChannelGlobal);
    }
  }
}

// ---------------------------------------------------------------------
// Fault-tolerant protocol (options_.fault_plan != nullptr)
//
// The collectives of the legacy loops assume static membership, so FT
// mode replaces them with master-coordinated point-to-point rounds: the
// master drives every stage with FtCtrl records, workers answer with
// per-stage heartbeats, and a missing heartbeat (recv_bytes_or_dead) is
// the failure detector. Virtual-time parity with the legacy path is kept
// by charging the collective skew once per replaced collective (4 per
// iteration + 1 per eval). Recovery: the interrupted iteration is redone
// over the survivors (pi writes that landed before the crash are kept —
// SG-MCMC tolerates the perturbation), the dead rank's DKV shard is
// re-homed to the lowest surviving worker, and its minibatch/held-out
// slices are re-sliced by (member_index, live_count). With
// rollback_interval > 0 the master instead restores the last in-memory
// core/checkpoint snapshot. Workers fail-stop only at fixed protocol
// points when their virtual clock passes the plan's crash time, after
// completing all earlier sends — which makes detection, and therefore
// the whole faulted trajectory, deterministic.
// ---------------------------------------------------------------------

void DistributedSampler::ft_master_loop(comm::Context& ctx,
                                        std::uint64_t iterations) {
  const std::uint32_t k = hyper_.num_communities;
  const unsigned w = num_workers_;
  MasterRank m(*this, ctx);
  comm::Transport& net = m.net;
  std::vector<float>& beta_buf = m.beta_buf;
  const double skew = ctx.network().collective_skew_s;

  std::vector<unsigned> live(w);
  for (unsigned wi = 0; wi < w; ++wi) live[wi] = wi + 1;

  auto send_beta = [&](unsigned rank) {
    net.send<float>(0, rank, kTagBeta, std::span<const float>(beta_buf));
  };
  auto send_ctrl = [&](unsigned rank, const FtCtrl& c) {
    net.send<FtCtrl>(0, rank, kTagCtrl, std::span<const FtCtrl>(&c, 1));
  };
  {
    const auto sp = ctx.trace_span(trace::Stage::kSetup);
    for (unsigned rank : live) send_beta(rank);
  }

  // Rollback snapshots: a full checkpoint serialized to memory. Taking
  // one costs the master a wire-read of every pi row (workers are
  // quiescent — blocked on the next deploy — whenever this runs).
  // Evaluated per snapshot: sparse rows' average wire bytes drift as
  // the model concentrates.
  std::string snap_bytes;
  auto snap_wire_s = [&]() {
    return ctx.network().transfer_time(static_cast<std::uint64_t>(
        std::llround(static_cast<double>(num_vertices_) *
                     store_->avg_row_wire_bytes())));
  };
  auto take_snapshot = [&](std::uint64_t t) {
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
  if (options_.rollback_interval > 0) take_snapshot(0);

  // Rank-ordered gather from every live worker; consume(rank, payload)
  // runs per arrival, so reductions fold in rank order (deterministic).
  // Returns true when at least one worker turned out dead instead.
  std::vector<unsigned> dead_now;
  auto gather = [&](int tag, auto&& consume) {
    dead_now.clear();
    const double before = ctx.now();
    for (unsigned rank : live) {
      auto payload = net.recv_bytes_or_dead(0, rank, tag);
      if (!payload.has_value()) {
        dead_now.push_back(rank);
        continue;
      }
      consume(rank, *payload);
      net.recycle_buffer(std::move(*payload));
    }
    ctx.book(comm::Phase::kBarrierWait, ctx.now() - before);
    return !dead_now.empty();
  };

  bool beta_follows = false;  // next deploy must re-ship beta (rollback)

  // Failure detected at iteration `t`: charge the heartbeat timeout,
  // shrink membership, re-home the dead shards, optionally roll back,
  // and tell the survivors to restart. `lost` = the iteration was still
  // in flight (vs. fully applied, eval round aside). Returns the next
  // iteration to run.
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
    if (options_.rollback_interval > 0) {
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
    for (std::size_t li = 0; li < live.size(); ++li) {
      send_ctrl(live[li], {next, kFtRestart,
                           static_cast<std::uint32_t>(live.size()),
                           static_cast<std::uint32_t>(li), 0, 0});
    }
    return next;
  };

  auto beat_check = [&](std::uint64_t t) {
    return [t](unsigned, const std::vector<std::byte>& payload) {
      SCD_ASSERT(payload.size() == sizeof(std::uint64_t),
                 "malformed heartbeat");
      std::uint64_t beat;
      std::memcpy(&beat, payload.data(), sizeof(beat));
      SCD_ASSERT(beat == t, "heartbeat from a stale iteration");
    };
  };

  std::uint64_t t = 0;
  while (t < iterations) {
    if (options_.master_iteration_hook) options_.master_iteration_hook(t);
    const unsigned lw = static_cast<unsigned>(live.size());
    const bool ev = eval_due(t);

    // ---- deploy: ctrl (+ beta after rollback) + minibatch share --------
    const double scale = draw_minibatch(m, t);
    {
      const auto sp = ctx.trace_span(comm::Phase::kDeployMinibatch, t);
      for (unsigned li = 0; li < lw; ++li) {
        send_ctrl(live[li], {t, kFtDeploy, lw, li, ev ? 1u : 0u,
                             beta_follows ? 1u : 0u});
        if (beta_follows) send_beta(live[li]);
        send_share(m, li, lw, live[li], t);
      }
      beta_follows = false;
    }

    // ---- phi done? -----------------------------------------------------
    bool death;
    {
      const auto sp = ctx.trace_span(comm::Phase::kBarrierWait, t);
      death = gather(kTagHeartbeat, beat_check(t));
      if (!death) {
        ctx.charge(comm::Phase::kBarrierWait, skew);
        for (unsigned rank : live) {
          send_ctrl(rank, {t, kFtPiGo, lw, 0, 0, 0});
        }
      }
    }
    if (death) {
      t = handle_death(/*lost=*/true, t);
      continue;
    }

    // ---- pi done? ------------------------------------------------------
    {
      const auto sp = ctx.trace_span(comm::Phase::kBarrierWait, t);
      death = gather(kTagHeartbeat, beat_check(t));
      if (!death) {
        ctx.charge(comm::Phase::kBarrierWait, skew);
        for (unsigned rank : live) {
          send_ctrl(rank, {t, kFtBetaGo, lw, 0, 0, 0});
        }
      }
    }
    if (death) {
      t = handle_death(/*lost=*/true, t);
      continue;
    }

    // ---- gather ratio partials, step theta -----------------------------
    std::vector<double>& ratios = m.ws.ratios;
    ratios.assign(std::size_t{k} * 2, 0.0);
    bool ratio_death;
    {
      const auto sp = ctx.trace_span(comm::Phase::kBarrierWait, t);
      ratio_death =
          gather(kTagRatios, [&](unsigned, const std::vector<std::byte>& p) {
            SCD_ASSERT(p.size() == ratios.size() * sizeof(double),
                       "malformed ratio partial");
            for (std::size_t i = 0; i < ratios.size(); ++i) {
              double part;
              std::memcpy(&part, p.data() + i * sizeof(double),
                          sizeof(part));
              ratios[i] += part;
            }
          });
      if (!ratio_death) ctx.charge(comm::Phase::kBarrierWait, skew);
    }
    if (ratio_death) {
      t = handle_death(/*lost=*/true, t);
      continue;
    }
    {
      const auto sp = ctx.trace_span(comm::Phase::kUpdateBetaTheta, t);
      step_theta(m, t, scale);
      for (unsigned rank : live) {
        send_ctrl(rank, {t, kFtBeta, lw, 0, 0, 0});
        send_beta(rank);
      }
      ctx.charge(comm::Phase::kUpdateBetaTheta, skew);
    }

    // ---- perplexity over the live ranks' held-out slices ---------------
    if (ev) {
      std::vector<double>& acc = m.ws.eval_acc;
      acc.assign(2, 0.0);
      bool eval_death;
      {
        const auto sp = ctx.trace_span(comm::Phase::kBarrierWait, t);
        eval_death =
            gather(kTagEval, [&](unsigned, const std::vector<std::byte>& p) {
              SCD_ASSERT(p.size() == 2 * sizeof(double),
                         "malformed eval partial");
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
    }

    ++t;
    if (options_.rollback_interval > 0 && t < iterations &&
        t % options_.rollback_interval == 0) {
      take_snapshot(t);
    }
  }

  {
    const auto sp = ctx.trace_span(comm::Phase::kBarrierWait, iterations);
    for (unsigned rank : live) {
      send_ctrl(rank, {iterations, kFtStop, 0, 0, 0, 0});
    }
  }
}

void DistributedSampler::ft_worker_loop(comm::Context& ctx) {
  // Reserve for the full held-out set: a survivor's slice grows after a
  // death (FT mode does not promise an allocation-free steady state).
  WorkerRank r(*this, ctx, heldout_size_);
  comm::Transport& net = r.net;

  auto recv_beta = [&]() {
    const std::vector<float> fresh = net.recv<float>(ctx.rank(), 0, kTagBeta);
    SCD_ASSERT(fresh.size() == r.beta_buf.size(), "malformed beta payload");
    std::copy(fresh.begin(), fresh.end(), r.beta_buf.begin());
    r.terms.refresh(r.beta_buf, hyper_.delta);
  };
  {
    const auto sp = ctx.trace_span(trace::Stage::kSetup);
    recv_beta();
  }

  auto recv_ctrl = [&](comm::Phase p) -> FtCtrl {
    const auto sp = ctx.trace_span(p);
    const double before = ctx.now();
    const std::vector<FtCtrl> msg =
        net.recv<FtCtrl>(ctx.rank(), 0, kTagCtrl);
    SCD_ASSERT(msg.size() == 1, "malformed ctrl record");
    ctx.book(p, ctx.now() - before);
    return msg[0];
  };
  // Fail-stop point: past the plan's crash time — or exactly at a
  // plan-scheduled (iteration, point) trigger — this rank dies here,
  // after completing every earlier send, before the upcoming one, which
  // is what makes the master's detection order deterministic.
  auto fail_stop = [&](std::uint64_t t, fault::CrashPoint point) -> bool {
    if (!injector_->crashed(ctx.rank(), ctx.now(), t, point)) return false;
    net.mark_rank_dead(ctx.rank());
    return true;
  };
  auto send_beat = [&](std::uint64_t t) {
    const auto sp = ctx.trace_span(comm::Phase::kBarrierWait, t);
    const std::uint64_t beat = t;
    net.send<std::uint64_t>(ctx.rank(), 0, kTagHeartbeat,
                            std::span<const std::uint64_t>(&beat, 1));
  };

  // Held-out slice of the current membership; rebuilt when (live_count,
  // member_index) changes. Running per-pair averages restart then — the
  // pairs moved owner, and their history moved off-cluster with the dead
  // rank (documented approximation in DESIGN.md).
  std::unique_ptr<PerplexityEvaluator> evaluator;
  unsigned eval_live = 0;
  unsigned eval_member = 0;

  for (;;) {
    const FtCtrl c = recv_ctrl(comm::Phase::kDeployMinibatch);
    if (c.op == kFtStop) return;
    if (c.op == kFtRestart) continue;  // stale membership; await deploy
    SCD_ASSERT(c.op == kFtDeploy, "unexpected ctrl op at deploy point");
    const std::uint64_t t = c.iteration;
    const unsigned lw = c.live_count;
    const unsigned li = c.member_index;
    if (c.beta_follows != 0) {
      // Re-shipped beta after a rollback — part of the recovery.
      const auto sp = ctx.trace_span(trace::Stage::kRecovery, t);
      recv_beta();
    }

    recv_share(r, t);
    sample_neighbors(r, t);
    update_phi(r, t);

    if (fail_stop(t, fault::CrashPoint::kAfterPhi)) return;
    send_beat(t);
    {
      const FtCtrl go = recv_ctrl(comm::Phase::kBarrierWait);
      if (go.op == kFtRestart) continue;
      SCD_ASSERT(go.op == kFtPiGo && go.iteration == t,
                 "unexpected ctrl op at pi point");
    }

    write_pi(r, t);

    if (fail_stop(t, fault::CrashPoint::kAfterPi)) return;
    send_beat(t);
    {
      const FtCtrl go = recv_ctrl(comm::Phase::kBarrierWait);
      if (go.op == kFtRestart) continue;
      SCD_ASSERT(go.op == kFtBetaGo && go.iteration == t,
                 "unexpected ctrl op at beta point");
    }

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
    {
      const FtCtrl go = recv_ctrl(comm::Phase::kUpdateBetaTheta);
      if (go.op == kFtRestart) continue;
      SCD_ASSERT(go.op == kFtBeta && go.iteration == t,
                 "unexpected ctrl op at beta receive point");
      const auto sp = ctx.trace_span(comm::Phase::kUpdateBetaTheta, t);
      recv_beta();
    }

    if (c.eval != 0) {  // eval_due(t) on the master
      const auto sp = ctx.trace_span(comm::Phase::kPerplexity, t);
      if (evaluator == nullptr || eval_live != lw || eval_member != li) {
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
  }
}


PiMatrix DistributedSampler::snapshot_pi() const {
  SCD_REQUIRE(real(), "no pi state in cost-only mode");
  PiMatrix pi(static_cast<std::uint32_t>(num_vertices_),
              hyper_.num_communities);
  for (std::uint64_t v = 0; v < num_vertices_; ++v) {
    store_->read_row(v, pi.row(static_cast<std::uint32_t>(v)));
  }
  return pi;
}

}  // namespace scd::core
