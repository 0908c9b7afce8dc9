// One benchmark run: builds the cluster and images of a workload, prefills
// the working set, drives a closed loop at a fixed queue depth per image
// through the public rbd::Image Aio* API, and keeps a shadow copy of every
// byte the guest wrote so the checks (checks.cc) can judge the program's
// outputs without trusting it.
//
// Two clocks: sim-clock metrics come from a fixed window (the first
// `window_ops` measured completions), so they are identical for a seed no
// matter how fast the host is; host-clock metrics cover every measured op
// of the run, which lasts whole rounds until the host-time budget is spent.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "qos/scheduler.h"
#include "rados/cluster.h"
#include "rbd/image.h"
#include "sim/scheduler.h"
#include "workloads.h"

namespace perfbench {

using HostClock = std::chrono::steady_clock;

inline double SecondsBetween(HostClock::time_point a, HostClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// CPU seconds this process has run. The simulator is single-threaded, so
// this is its host work without the time other processes held the core.
double ProcessCpuSeconds();

// splitmix64: the benchmark's own generator, independent of the program's.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

// Guest content: per 512 B sector, a leading run of one repeated byte
// (`compressible_pct` of the sector), then generator bytes. Any 4 KiB block
// assembled from such sectors compresses to about the same ratio, whatever
// the IO grid.
void FillGuestContent(SplitMix& rng, uint32_t compressible_pct,
                      vde::MutByteSpan out);

// Counters of every layer at one instant; window metrics are differences.
struct Snapshot {
  uint64_t events = 0;
  uint64_t core_busy_ns = 0;  // summed over cores
  vde::rbd::ImageStats image;  // summed over images
  vde::dev::DeviceStats device;
  vde::objstore::StoreStats store;
  vde::rados::ClusterStats cluster;
  uint64_t kv_wal_commits = 0;  // OMAP KV WAL, summed over OSDs
  uint64_t kv_wal_bytes = 0;
  uint64_t client_net_bytes = 0;
  uint64_t node_net_bytes = 0;
  uint64_t mclock_wait_ns = 0;
  uint64_t mclock_reservation_dispatches = 0;
};

struct ImageState {
  std::shared_ptr<vde::rbd::Image> image;
  vde::Bytes shadow;                 // working-set bytes as the guest wrote
  std::vector<uint32_t> write_gen;   // per 4 KiB block: writes covering it
  std::vector<uint8_t> discarded;    // per block: reads zeros (last TRIM)
  SplitMix rng{0};
};

// Per-window results on the sim clock.
struct Window {
  vde::sim::SimTime open = 0;
  vde::sim::SimTime close = 0;
  std::vector<vde::sim::SimTime> latency_ns;
  std::array<uint64_t, vde::obs::kNumStages> stage_ns{};
  uint64_t reads = 0, writes = 0;
  uint64_t read_bytes = 0, write_bytes = 0;
  Snapshot begin, end;
  // Peak resident memory from process start to the window's close: the
  // state the measured work built, independent of how many extra rounds
  // the host-time budget allowed.
  double peak_rss_mib = 0;
};

class Bench {
 public:
  Bench(const WorkloadSpec& spec, uint64_t seed, double seconds, bool trace,
        HostClock::time_point process_start);

  // Cluster + images + prefill; stops at the first measured op.
  vde::sim::Task<vde::Status> Setup();
  // Warm-up, then the measured closed loop, then flush + drain.
  vde::sim::Task<vde::Status> Measure();

  Snapshot TakeSnapshot();
  // Blocks whose shadow content is live (not discarded), times 4 KiB.
  uint64_t LiveBytes() const;
  // Allocated object-data bytes over the whole cluster.
  uint64_t AllocatedBytes() const;

  const WorkloadSpec& spec() const { return spec_; }
  uint64_t seed() const { return seed_; }
  vde::rados::Cluster& cluster() { return *cluster_; }
  std::vector<ImageState>& images() { return images_; }
  const Window& window() const { return window_; }
  uint64_t attempted() const { return measured_issued_; }
  uint64_t failed() const { return failed_; }
  uint64_t measured_done() const { return measured_done_; }
  const std::vector<std::string>& errors() const { return errors_; }
  void AddError(std::string e);

  double setup_seconds() const { return setup_s_; }
  // Process CPU seconds of the whole measured phase.
  double measured_cpu_seconds() const { return measured_cpu_s_; }
  // Process CPU seconds of each measured round: from the issue of its
  // first op to the moment the closed loop asks for the op after its last.
  const std::vector<double>& round_cpu_seconds() const {
    return round_cpu_s_;
  }
  uint64_t measured_events() const { return measured_events_; }
  // Host (CPU-bound, so wall-clock) time spent in the benchmark's own
  // generator and checks during the measured phase (traced runs only; zero
  // otherwise).
  double bench_host_seconds() const { return bench_ns_ * 1e-9; }

  static constexpr const char* kPassphrase = "perfbench";

 private:
  struct Op {
    enum Kind { kRead, kWrite, kDiscard } kind = kRead;
    uint64_t offset = 0;
    uint64_t length = 0;
  };

  vde::sim::Task<vde::Status> Prefill(ImageState& img);
  vde::sim::Task<void> Worker(size_t image_index);
  Op NextOp(ImageState& img);
  void ApplyToShadow(ImageState& img, const Op& op, vde::ByteSpan data);
  // Closed-loop admission: false once the last whole round is issued.
  bool TakeTicket(bool* measured);
  void OnMeasuredDone(const Op& op, vde::sim::SimTime latency,
                      const vde::obs::TraceContext* trace);

  WorkloadSpec spec_;
  uint64_t seed_;
  double seconds_;
  bool trace_;
  HostClock::time_point process_start_;

  std::unique_ptr<vde::rados::Cluster> cluster_;
  std::shared_ptr<vde::qos::Scheduler> qos_;
  std::vector<ImageState> images_;

  uint64_t issued_ = 0;           // every op, warm-up included
  uint64_t measured_issued_ = 0;  // ops issued after the warm-up
  uint64_t measured_limit_ = 0;   // end of the current round
  uint64_t measured_done_ = 0;
  uint64_t failed_ = 0;
  uint64_t measured_events_ = 0;
  Window window_;
  bool window_closed_ = false;
  bool stopped_ = false;          // the last round has been issued
  double measure_start_cpu_ = 0;
  double round_start_cpu_ = 0;
  std::vector<double> round_cpu_s_;
  HostClock::time_point deadline_{};
  double setup_s_ = 0;
  double measured_cpu_s_ = 0;
  uint64_t events_at_open_ = 0;
  int64_t bench_ns_ = 0;
  std::vector<std::string> errors_;
};

}  // namespace perfbench
