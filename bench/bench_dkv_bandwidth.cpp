// Figure 5: bandwidth of the DKV store's one-sided reads vs the qperf
// envelope (raw latency + line rate), across payload sizes.
//
// Conditions mirror the paper's microbenchmark: one server, one client
// (so the congestion de-rater is off), the DKV reads values spread across
// a larger server-side region while qperf re-reads one location — which
// is what causes the DKV's dip at the largest payloads.
//
// Expected shape: DKV trails qperf below ~4 KB (per-request overhead),
// matches it closely between 8 KB and 512 KB, dips slightly at 1 MB.
#include "bench/bench_util.h"

using namespace scd;

int main(int argc, char** argv) {
  bench::BenchIo io;
  if (!io.parse(argc, argv, "bench_dkv_bandwidth",
                "Figure 5: DKV read bandwidth vs qperf")) {
    return 0;
  }

  comm::NetworkModel net;
  net.congestion_strength = 0.0;  // single client/server, uncontended

  // The server exposes a rotating window of 32 values, so the touched
  // region is 32x the payload — past the LLC for megabyte payloads.
  constexpr std::uint64_t kValueWindow = 32;

  Table fig5({"payload_bytes", "dkv_read_MBps", "qperf_MBps",
              "dkv_vs_qperf_pct"});
  for (std::uint64_t payload :
       {256ull, 1024ull, 4096ull, 8192ull, 32768ull, 131072ull, 524288ull,
        1048576ull}) {
    const double dkv_time = net.dkv_batch_time(
        /*requests=*/1, payload, payload * kValueWindow, /*cluster=*/1);
    const double qperf_time = comm::qperf_transfer_time(net, payload);
    const double dkv_bw = double(payload) / dkv_time;
    const double qperf_bw = double(payload) / qperf_time;
    fig5.add_row({std::int64_t(payload), dkv_bw / 1e6, qperf_bw / 1e6,
                  100.0 * dkv_bw / qperf_bw});
  }
  io.emit(fig5, "fig5_dkv_bandwidth",
          "Fig 5 — DKV read bandwidth vs qperf envelope");
  return 0;
}
