#include "bench.h"

#include <sys/resource.h>

#include <time.h>

#include <algorithm>
#include <cstring>

#include "sim/sync.h"

namespace perfbench {

using vde::Bytes;
using vde::ByteSpan;
using vde::MutByteSpan;
using vde::Status;
namespace sim = vde::sim;
namespace rbd = vde::rbd;
namespace rados = vde::rados;

namespace {

constexpr uint64_t kBlock = vde::core::kBlockSize;
constexpr uint64_t kSector = 512;
constexpr uint64_t kPrefillChunk = 1 << 20;

}  // namespace

void FillGuestContent(SplitMix& rng, uint32_t compressible_pct,
                      MutByteSpan out) {
  const size_t run = kSector * compressible_pct / 100;
  for (size_t s = 0; s < out.size(); s += kSector) {
    uint8_t* p = out.data() + s;
    const size_t n = std::min<size_t>(kSector, out.size() - s);
    const size_t r = std::min(run, n);
    std::memset(p, static_cast<int>(rng.Next() | 1) & 0xFF, r);
    for (size_t i = r; i < n; i += 8) {
      const uint64_t v = rng.Next();
      std::memcpy(p + i, &v, std::min<size_t>(8, n - i));
    }
  }
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

Bench::Bench(const WorkloadSpec& spec, uint64_t seed, double seconds,
             bool trace, HostClock::time_point process_start)
    : spec_(spec),
      seed_(seed),
      seconds_(seconds),
      trace_(trace),
      process_start_(process_start) {}

void Bench::AddError(std::string e) {
  // The first few are enough to diagnose; a systematic fault would
  // otherwise flood the log.
  if (errors_.size() < 16) errors_.push_back(std::move(e));
}

sim::Task<Status> Bench::Setup() {
  rados::ClusterConfig cc;
  cc.nodes = spec_.nodes;
  cc.osds_per_node = spec_.osds_per_node;
  cc.store.alloc_unit = spec_.alloc_unit;
  cc.qos.enabled = spec_.mclock;
  auto cluster = co_await rados::Cluster::Create(cc);
  if (!cluster.ok()) co_return cluster.status();
  cluster_ = std::move(cluster).value();

  if (!spec_.qos_weights.empty()) {
    vde::qos::Scheduler::Config qc;
    qc.max_inflight_total = spec_.qos_max_inflight;
    qos_ = std::make_shared<vde::qos::Scheduler>(qc);
  }
  const uint64_t ws = spec_.WorkingSetBytes();
  images_.resize(spec_.images);
  for (size_t i = 0; i < spec_.images; ++i) {
    rbd::ImageOptions o;
    o.size = ws;
    o.enc = spec_.enc;
    // Deterministic IV/nonce stream per (seed, image): fresh per write, but
    // reproducible run to run.
    o.enc.iv_seed = seed_ * 0x100000001B3ULL + i + 1;
    o.luks.pbkdf2_iterations = 10;
    o.luks.af_stripes = 8;
    o.iv_cache.enabled = spec_.iv_cache;
    o.iv_cache.max_objects = spec_.iv_cache_objects;
    o.obs.enabled = trace_;
    if (qos_ != nullptr) {
      o.qos_scheduler = qos_;
      o.qos.enabled = true;
      o.qos.weight = spec_.qos_weights[i];
    }
    if (spec_.mclock) {
      o.tenant.id = i + 1;
      o.tenant.reservation_iops = i == 0 ? spec_.reserved_iops : 0;
    }
    auto image = co_await rbd::Image::Create(
        *cluster_, "bench" + std::to_string(i), kPassphrase, o);
    if (!image.ok()) co_return image.status();
    ImageState& st = images_[i];
    st.image = std::move(image).value();
    st.shadow.assign(ws, 0);
    st.write_gen.assign(ws / kBlock, 0);
    st.discarded.assign(ws / kBlock, 0);
    st.rng = SplitMix(seed_ * 0xD1B54A32D192ED03ULL + i);
  }
  for (ImageState& img : images_) {
    VDE_CO_RETURN_IF_ERROR(co_await Prefill(img));
  }
  co_await cluster_->Drain();
  co_return Status::Ok();
}

sim::Task<Status> Bench::Prefill(ImageState& img) {
  Bytes buf(kPrefillChunk);
  for (uint64_t off = 0; off < img.shadow.size(); off += kPrefillChunk) {
    FillGuestContent(img.rng, spec_.compressible_pct, buf);
    ApplyToShadow(img, Op{Op::kWrite, off, kPrefillChunk}, buf);
    VDE_CO_RETURN_IF_ERROR(co_await img.image->Write(off, buf));
  }
  VDE_CO_RETURN_IF_ERROR(co_await img.image->Flush());
  co_return Status::Ok();
}

Bench::Op Bench::NextOp(ImageState& img) {
  const uint64_t ws = spec_.WorkingSetBytes();
  Op op;
  if (spec_.discard_pct > 0 && img.rng.Below(100) < spec_.discard_pct) {
    // A whole aligned block: TRIM rounds inward to 4 KiB, so a smaller
    // discard would be a no-op.
    op.kind = Op::kDiscard;
    op.offset = img.rng.Below(ws / kBlock) * kBlock;
    op.length = kBlock;
    return op;
  }
  const bool write = spec_.write_pct == 100 ||
                     (spec_.write_pct > 0 && img.rng.Below(100) < spec_.write_pct);
  op.kind = write ? Op::kWrite : Op::kRead;
  const uint64_t slots = (ws - spec_.io_size) / spec_.align + 1;
  op.offset = img.rng.Below(slots) * spec_.align;
  op.length = spec_.io_size;
  return op;
}

void Bench::ApplyToShadow(ImageState& img, const Op& op, ByteSpan data) {
  const uint64_t first = op.offset / kBlock;
  const uint64_t last = (op.offset + op.length - 1) / kBlock;
  if (op.kind == Op::kWrite) {
    std::memcpy(img.shadow.data() + op.offset, data.data(), op.length);
    for (uint64_t b = first; b <= last; ++b) {
      img.write_gen[b]++;
      img.discarded[b] = 0;
    }
  } else if (op.kind == Op::kDiscard) {
    std::memset(img.shadow.data() + op.offset, 0, op.length);
    for (uint64_t b = first; b <= last; ++b) img.discarded[b] = 1;
  }
}

bool Bench::TakeTicket(bool* measured) {
  if (issued_ < kWarmupOps) {
    ++issued_;
    *measured = false;
    return true;
  }
  if (stopped_) return false;
  if (measured_issued_ == measured_limit_) {
    // The run always covers the sim window plus one more round, so the
    // host-clock decision to stop happens after the window closed and
    // cannot change a sim-clock metric.
    const bool required =
        measured_limit_ < spec_.window_ops + kRoundOps;
    const double cpu = ProcessCpuSeconds();
    if (measured_limit_ > 0) round_cpu_s_.push_back(cpu - round_start_cpu_);
    round_start_cpu_ = cpu;
    if (!required && HostClock::now() >= deadline_) {
      stopped_ = true;
      return false;
    }
    measured_limit_ += kRoundOps;
  }
  if (measured_issued_ == 0) {
    const HostClock::time_point start = HostClock::now();
    measure_start_cpu_ = ProcessCpuSeconds();
    setup_s_ = SecondsBetween(process_start_, start);
    deadline_ = start + std::chrono::duration_cast<HostClock::duration>(
                                     std::chrono::duration<double>(seconds_));
    window_.open = sim::Scheduler::Current().now();
    window_.begin = TakeSnapshot();
    events_at_open_ = window_.begin.events;
  }
  ++issued_;
  ++measured_issued_;
  *measured = true;
  return true;
}

void Bench::OnMeasuredDone(const Op& op, sim::SimTime latency,
                           const vde::obs::TraceContext* trace) {
  ++measured_done_;
  if (window_closed_) return;
  window_.latency_ns.push_back(latency);
  if (op.kind == Op::kRead) {
    window_.reads++;
    window_.read_bytes += op.length;
  } else if (op.kind == Op::kWrite) {
    window_.writes++;
    window_.write_bytes += op.length;
  }
  if (trace != nullptr) {
    for (size_t s = 0; s < vde::obs::kNumStages; ++s) {
      window_.stage_ns[s] += trace->stage_ns()[s];
    }
  }
  if (window_.latency_ns.size() == spec_.window_ops) {
    window_.close = sim::Scheduler::Current().now();
    window_.end = TakeSnapshot();
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    window_.peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;
    window_closed_ = true;
  }
}

sim::Task<void> Bench::Worker(size_t image_index) {
  ImageState& img = images_[image_index];
  Bytes buf(spec_.io_size);
  Bytes expect(spec_.io_size);
  bool measured = false;
  while (TakeTicket(&measured)) {
    const bool timed = trace_ && measured;
    const HostClock::time_point g0 = timed ? HostClock::now()
                                           : HostClock::time_point{};
    const Op op = NextOp(img);
    if (op.kind == Op::kWrite) {
      FillGuestContent(img.rng, spec_.compressible_pct, buf);
      ApplyToShadow(img, op, buf);
    } else if (op.kind == Op::kDiscard) {
      ApplyToShadow(img, op, {});
    } else {
      // The image applies overlapping IO in submission order, so a read
      // returns the shadow as of its issue.
      std::memcpy(expect.data(), img.shadow.data() + op.offset, op.length);
    }
    if (timed) bench_ns_ += (HostClock::now() - g0).count();

    sim::SimTime done_at = 0;
    auto c = rbd::Completion::Create([&done_at](rbd::Completion&) {
      done_at = sim::Scheduler::Current().now();
    });
    const sim::SimTime start = sim::Scheduler::Current().now();
    switch (op.kind) {
      case Op::kRead:
        img.image->AioRead(MutByteSpan(buf), op.offset, c);
        break;
      case Op::kWrite:
        img.image->AioWrite(ByteSpan(buf), op.offset, c);
        break;
      case Op::kDiscard:
        img.image->AioDiscard(op.offset, op.length, c);
        break;
    }
    co_await c->Wait();

    if (!c->status().ok()) {
      if (measured) {
        ++failed_;
      } else {
        AddError("warm-up op failed: " + c->status().ToString());
      }
    } else if (op.kind == Op::kRead) {
      const HostClock::time_point v0 = timed ? HostClock::now()
                                             : HostClock::time_point{};
      if (std::memcmp(buf.data(), expect.data(), op.length) != 0) {
        AddError("read at " + std::to_string(op.offset) + " of image " +
                 std::to_string(image_index) + " differs from the shadow");
      }
      if (timed) bench_ns_ += (HostClock::now() - v0).count();
    }
    if (measured) OnMeasuredDone(op, done_at - start, c->trace().get());
  }
}

sim::Task<Status> Bench::Measure() {
  std::vector<sim::Task<void>> workers;
  for (size_t i = 0; i < images_.size(); ++i) {
    for (size_t q = 0; q < spec_.queue_depth; ++q) {
      workers.push_back(Worker(i));
    }
  }
  co_await sim::WhenAll(std::move(workers));
  measured_cpu_s_ = ProcessCpuSeconds() - measure_start_cpu_;
  measured_events_ =
      sim::Scheduler::Current().events_processed() - events_at_open_;
  if (!window_closed_) {
    co_return Status::IoError("measured phase ended before the sim window");
  }
  for (ImageState& img : images_) {
    VDE_CO_RETURN_IF_ERROR(co_await img.image->Flush());
  }
  co_await cluster_->Drain();
  co_return Status::Ok();
}

Snapshot Bench::TakeSnapshot() {
  Snapshot s;
  const sim::Scheduler& sched = sim::Scheduler::Current();
  s.events = sched.events_processed();
  for (const sim::SimTime b : sched.core_busy_ns()) s.core_busy_ns += b;
  for (const ImageState& img : images_) {
    const rbd::ImageStats st = img.image->stats();
#define PERFBENCH_ADD(field) s.image.field += st.field;
    VDE_IMAGE_STATS_COUNTERS(PERFBENCH_ADD)
#undef PERFBENCH_ADD
  }
  s.device = cluster_->TotalDeviceStats();
  s.store = cluster_->TotalStoreStats();
  s.cluster = cluster_->stats();
  for (size_t i = 0; i < cluster_->osd_count(); ++i) {
    rados::Osd& osd = cluster_->osd(i);
    const vde::kv::KvStats& kv = osd.store().kv_store().stats();
    s.kv_wal_commits += kv.wal_commits;
    s.kv_wal_bytes += kv.wal_bytes;
    if (const rados::MClockQueue* q = osd.qos(); q != nullptr) {
      for (const auto& [tenant, ts] : q->tenant_stats()) {
        s.mclock_wait_ns += ts.wait_ns;
        s.mclock_reservation_dispatches += ts.reservation_dispatches;
      }
    }
  }
  s.client_net_bytes = cluster_->client_nic().egress().bytes_transferred() +
                       cluster_->client_nic().ingress().bytes_transferred();
  for (size_t n = 0; n < spec_.nodes; ++n) {
    vde::net::Nic& nic = cluster_->node_nic(n);
    s.node_net_bytes +=
        nic.egress().bytes_transferred() + nic.ingress().bytes_transferred();
  }
  return s;
}

uint64_t Bench::LiveBytes() const {
  uint64_t live = 0;
  for (const ImageState& img : images_) {
    live += static_cast<uint64_t>(
                std::count(img.discarded.begin(), img.discarded.end(), 0)) *
            kBlock;
  }
  return live;
}

uint64_t Bench::AllocatedBytes() const {
  const vde::objstore::StoreSpace space = cluster_->TotalStoreSpace();
  return space.total_bytes - space.free_bytes;
}

}  // namespace perfbench
