// perfbench: one workload, one process, one JSON result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures with the observability plane off and prints the
// end-to-end metrics; --trace 1 turns it on and prints the per-layer ones.
// Both runs execute the same sim-clock schedule. Diagnostics go to stderr;
// the last stdout line is {"correct","attempted","failed","metrics"}.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "layers.h"

namespace perfbench {
namespace {

namespace sim = vde::sim;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool Parse(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(v, &end);
      if (*end != '\0' || args->seconds <= 0) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      args->trace = v[0] == '1';
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && FindWorkload(args->workload) != nullptr;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string Number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Mid-distribution quantile (Hyndman & Fan type 5, ties at their mid-rank):
// each distinct value v sits at F(v) - share(v)/2 and p interpolates
// linearly between neighbouring values. The sim's latencies are discrete
// (most ops take exactly the uncontended path), and the plain order
// statistic would stick to that one value whatever share of ops took it;
// this estimator moves with the shares. On tie-free data it is the usual
// Hazen quantile.
double Quantile(std::vector<sim::SimTime> v, double p) {
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  double below = 0;  // ops strictly below the current value
  double prev_pos = 0, prev_val = 0;
  bool have_prev = false;
  for (size_t i = 0; i < v.size();) {
    size_t j = i;
    while (j < v.size() && v[j] == v[i]) ++j;
    const double count = static_cast<double>(j - i);
    const double pos = (below + count / 2) / n;
    const double val = static_cast<double>(v[i]);
    if (pos >= p) {
      if (!have_prev) return val;
      return prev_val + (p - prev_pos) / (pos - prev_pos) * (val - prev_val);
    }
    prev_pos = pos;
    prev_val = val;
    have_prev = true;
    below += count;
    i = j;
  }
  return prev_val;
}

// Host throughput is measured per round on the process CPU clock and
// reported from the fastest tenth of the rounds: contention from other
// processes or virtual machines on the host only ever slows a round (a vCPU
// descheduled by the hypervisor still accrues CPU time here), so the fast
// rounds estimate the simulator's own cost; the 10th percentile rather
// than the minimum keeps one lucky round from setting the figure.
double FastRoundSeconds(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = 0.1 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::vector<Metric> EndToEnd(const Bench& b) {
  const Window& w = b.window();
  const double window_s = static_cast<double>(w.close - w.open) * 1e-9;
  const uint64_t device_bytes =
      (w.end.device.bytes_read - w.begin.device.bytes_read) +
      (w.end.device.bytes_written - w.begin.device.bytes_written);
  return {
      {"sim_iops", Ratio(static_cast<double>(w.latency_ns.size()), window_s),
       "ops/s"},
      {"sim_lat_p50_us", Quantile(w.latency_ns, 0.50) / 1e3, "us"},
      {"sim_lat_p99_us", Quantile(w.latency_ns, 0.99) / 1e3, "us"},
      {"host_ops_per_s",
       Ratio(static_cast<double>(kRoundOps),
             FastRoundSeconds(b.round_cpu_seconds())),
       "ops/s"},
      {"setup_s", b.setup_seconds(), "s"},
      {"stored_bytes_per_user_byte",
       Ratio(static_cast<double>(b.AllocatedBytes()),
             static_cast<double>(b.LiveBytes())),
       "ratio"},
      {"device_bytes_per_user_byte",
       Ratio(static_cast<double>(device_bytes),
             static_cast<double>(w.read_bytes + w.write_bytes)),
       "ratio"},
      {"host_peak_rss_mb", w.peak_rss_mib, "MiB"},
  };
}

std::vector<Metric> PerLayer(const Bench& b) {
  const Window& w = b.window();
  const Snapshot& s0 = w.begin;
  const Snapshot& s1 = w.end;
  const double ops = static_cast<double>(w.latency_ns.size());
  auto per_op = [&](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before) / ops;
  };
  const vde::rbd::ImageStats& i0 = s0.image;
  const vde::rbd::ImageStats& i1 = s1.image;
  const double window_ns = static_cast<double>(w.close - w.open);
  const unsigned cores = b.spec().cores;

  // Stage budget: sum over the window's ops of each op's exclusive stage
  // time, divided by all ops (zeros included).
  auto stage_us = [&](vde::obs::Stage st) {
    return static_cast<double>(w.stage_ns[static_cast<size_t>(st)]) / ops /
           1e3;
  };
  double mean_lat_ns = 0;
  for (const sim::SimTime l : w.latency_ns) mean_lat_ns += static_cast<double>(l);
  mean_lat_ns /= ops;
  double stage_sum_ns = 0;
  for (const uint64_t v : w.stage_ns) stage_sum_ns += static_cast<double>(v);
  stage_sum_ns /= ops;

  // Host time per layer, at the counts this window recorded.
  LayerCounts counts;
  const WorkloadSpec& spec = b.spec();
  if (spec.enc.compression.enabled()) {
    counts.enc_blocks = (i1.compress_blocks - i0.compress_blocks) +
                        (i1.compress_verbatim_blocks - i0.compress_verbatim_blocks);
    counts.dec_blocks = i1.compress_expanded_blocks - i0.compress_expanded_blocks;
    counts.cipher_bytes = static_cast<uint64_t>(Ratio(
        static_cast<double>(i1.compress_stored_bytes - i0.compress_stored_bytes),
        static_cast<double>(counts.enc_blocks)));
    counts.lz_in_blocks =
        (i1.compress_in_bytes - i0.compress_in_bytes) / vde::core::kBlockSize;
    counts.lz_out_blocks = counts.dec_blocks;
  } else {
    counts.enc_blocks = w.write_bytes / vde::core::kBlockSize;
    counts.dec_blocks = w.read_bytes / vde::core::kBlockSize;
    counts.cipher_bytes = vde::core::kBlockSize;
  }
  counts.crc_frames = (s1.store.transactions - s0.store.transactions) +
                      (s1.kv_wal_commits - s0.kv_wal_commits);
  counts.crc_bytes = (s1.store.journal_bytes - s0.store.journal_bytes) +
                     (s1.kv_wal_bytes - s0.kv_wal_bytes);
  const LayerTimes lt = TimeLayers(spec, counts, b.seed());
  const double host_total_ns =
      b.measured_cpu_seconds() * 1e9 / static_cast<double>(b.measured_done());
  const double bench_ns =
      b.bench_host_seconds() * 1e9 / static_cast<double>(b.measured_done());
  const double format_ns = lt.format_ns / ops;
  const double crc_ns = lt.crc32c_ns / ops;

  const uint64_t iv_lookups =
      (i1.iv_hits - i0.iv_hits) + (i1.iv_misses - i0.iv_misses);
  return {
      {"sim.events_per_op", per_op(s1.events, s0.events), "events/op"},
      {"sim.host_ns_per_event",
       b.measured_cpu_seconds() * 1e9 /
           static_cast<double>(b.measured_events()),
       "ns/event"},
      {"sim.core_busy_frac",
       cores == 0 ? 0
                  : Ratio(static_cast<double>(s1.core_busy_ns - s0.core_busy_ns),
                          window_ns * cores),
       "ratio"},
      {"stage.queue_us", stage_us(vde::obs::Stage::kQueue), "us/op"},
      {"stage.wb_us", stage_us(vde::obs::Stage::kWb), "us/op"},
      {"stage.compress_us", stage_us(vde::obs::Stage::kCompress), "us/op"},
      {"stage.crypto_us", stage_us(vde::obs::Stage::kCrypto), "us/op"},
      {"stage.replicate_us", stage_us(vde::obs::Stage::kReplicate), "us/op"},
      {"stage.store_us", stage_us(vde::obs::Stage::kStore), "us/op"},
      {"stage.device_us", stage_us(vde::obs::Stage::kDevice), "us/op"},
      {"stage.other_us",
       stage_us(vde::obs::Stage::kOther) + stage_us(vde::obs::Stage::kRecovery),
       "us/op"},
      {"stage.unattributed_us", (mean_lat_ns - stage_sum_ns) / 1e3, "us/op"},
      {"host.format_ns_per_op", format_ns, "ns/op"},
      {"host.cipher_ns_per_op", lt.cipher_ns / ops, "ns/op"},
      {"host.crc32c_ns_per_op", crc_ns, "ns/op"},
      {"host.lz_ns_per_op", lt.lz_ns / ops, "ns/op"},
      {"host.bench_ns_per_op", bench_ns, "ns/op"},
      {"host.other_ns_per_op", host_total_ns - format_ns - crc_ns - bench_ns,
       "ns/op"},
      {"rbd.iv_cache.hit_ratio",
       Ratio(static_cast<double>(i1.iv_hits - i0.iv_hits),
             static_cast<double>(iv_lookups)),
       "ratio"},
      {"rbd.iv_cache.meta_bytes_fetched_per_read",
       Ratio(static_cast<double>(i1.iv_meta_bytes_fetched -
                                 i0.iv_meta_bytes_fetched),
             static_cast<double>(w.reads)),
       "B/read"},
      {"rbd.writeback.rmw_blocks_per_write",
       Ratio(static_cast<double>(i1.rmw_blocks - i0.rmw_blocks),
             static_cast<double>(w.writes)),
       "blocks/write"},
      {"rbd.writeback.flush_txns_per_write",
       Ratio(static_cast<double>(i1.wb_flushes - i0.wb_flushes),
             static_cast<double>(w.writes)),
       "txns/write"},
      {"rbd.trim_state.bitmap_updates_per_op",
       per_op(i1.trim_bitmap_updates, i0.trim_bitmap_updates), "1/op"},
      {"rbd.compress.stored_ratio",
       Ratio(static_cast<double>(i1.compress_stored_bytes -
                                 i0.compress_stored_bytes),
             static_cast<double>(i1.compress_in_bytes - i0.compress_in_bytes)),
       "ratio"},
      {"qos.wait_us_per_op", per_op(i1.qos_wait_ns, i0.qos_wait_ns) / 1e3,
       "us/op"},
      {"qos.queued_frac",
       Ratio(static_cast<double>(i1.qos_queued - i0.qos_queued),
             static_cast<double>(i1.qos_submitted - i0.qos_submitted)),
       "ratio"},
      {"rados.mclock.wait_us_per_op",
       per_op(s1.mclock_wait_ns, s0.mclock_wait_ns) / 1e3, "us/op"},
      {"rados.mclock.reservation_dispatches",
       per_op(s1.mclock_reservation_dispatches,
              s0.mclock_reservation_dispatches),
       "1/op"},
      {"rados.map_refreshes",
       per_op(s1.cluster.map_refreshes, s0.cluster.map_refreshes), "1/op"},
      {"net.client_bytes_per_op",
       per_op(s1.client_net_bytes, s0.client_net_bytes), "B/op"},
      {"net.node_bytes_per_op", per_op(s1.node_net_bytes, s0.node_net_bytes),
       "B/op"},
      {"objstore.txns_per_op",
       per_op(s1.store.transactions, s0.store.transactions), "1/op"},
      {"objstore.journal_bytes_per_op",
       per_op(s1.store.journal_bytes, s0.store.journal_bytes), "B/op"},
      {"objstore.rmw_sectors_per_op",
       per_op(s1.store.rmw_sectors, s0.store.rmw_sectors), "1/op"},
      {"kv.wal_commits_per_op", static_cast<double>(counts.crc_frames) / ops,
       "1/op"},
      {"kv.wal_bytes_per_op", static_cast<double>(counts.crc_bytes) / ops,
       "B/op"},
      {"device.read_ops_per_op",
       per_op(s1.device.read_ops, s0.device.read_ops), "1/op"},
      {"device.write_ops_per_op",
       per_op(s1.device.write_ops, s0.device.write_ops), "1/op"},
      {"device.read_bytes_per_op",
       per_op(s1.device.bytes_read, s0.device.bytes_read), "B/op"},
      {"device.write_bytes_per_op",
       per_op(s1.device.bytes_written, s0.device.bytes_written), "B/op"},
  };
}

sim::Task<void> Drive(Bench* bench, Checker* checker, CheckReport* report,
                      vde::Status* status) {
  *status = co_await bench->Setup();
  if (!status->ok()) co_return;
  *status = co_await checker->SnapshotSample();
  if (!status->ok()) co_return;
  *status = co_await bench->Measure();
  if (!status->ok()) co_return;
  *status = co_await checker->Run(report);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const HostClock::time_point process_start = HostClock::now();
  Args args;
  if (!Parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  sim::Scheduler sched;
  if (spec.cores > 0) sched.ConfigureCores(spec.cores);
  Bench bench(spec, args.seed, args.seconds, args.trace, process_start);
  Checker checker(bench);
  CheckReport report;
  vde::Status status = vde::Status::IoError("simulation stalled");
  sched.Spawn(Drive(&bench, &checker, &report, &status));
  sched.Run();
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", spec.name.c_str(),
                 status.ToString().c_str());
    return 1;
  }

  const std::vector<Metric> metrics =
      args.trace ? PerLayer(bench) : EndToEnd(bench);
  const Window& w = bench.window();
  std::fprintf(stderr,
               "perfbench: sim window: ops=%zu open_ns=%llu close_ns=%llu "
               "events=%llu latency_sum_ns=%llu\n",
               w.latency_ns.size(), static_cast<unsigned long long>(w.open),
               static_cast<unsigned long long>(w.close),
               static_cast<unsigned long long>(w.end.events - w.begin.events),
               static_cast<unsigned long long>(std::accumulate(
                   w.latency_ns.begin(), w.latency_ns.end(), uint64_t{0})));
  for (const std::string& e : bench.errors()) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  std::fprintf(stderr,
               "perfbench: %s seed=%llu window=%zu ops measured=%llu "
               "readback=%llu/%llu evp=%llu/%llu overwritten=%llu "
               "conservation=%s tamper=%s/%s\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               w.latency_ns.size(),
               static_cast<unsigned long long>(bench.measured_done()),
               static_cast<unsigned long long>(report.readback_blocks -
                                               report.readback_mismatches),
               static_cast<unsigned long long>(report.readback_blocks),
               static_cast<unsigned long long>(report.evp_blocks -
                                               report.evp_failures),
               static_cast<unsigned long long>(report.evp_blocks),
               static_cast<unsigned long long>(report.overwritten_sampled),
               report.conservation_checked ? "checked" : "n/a",
               report.tamper_detected_by_evp ? "evp-detected" : "evp-MISSED",
               report.tamper_detected_by_read ? "read-detected"
                                              : "read-MISSED");

  std::string out = "{\"correct\": ";
  out += bench.errors().empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(bench.attempted());
  out += ", \"failed\": " + std::to_string(bench.failed());
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
