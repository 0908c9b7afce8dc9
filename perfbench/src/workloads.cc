#include "workloads.h"

namespace perfbench {

namespace {

using vde::core::CipherMode;
using vde::core::Compression;
using vde::core::Integrity;
using vde::core::IvLayout;

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> all;

  // The paper's authenticated random-IV write path: AES-GCM with a fresh
  // nonce per block write, IVs batched at the object end, default cluster.
  {
    WorkloadSpec w;
    w.name = "randwrite-gcm-objend";
    w.enc.mode = CipherMode::kGcmRandom;
    w.enc.layout = IvLayout::kObjectEnd;
    w.objects_per_image = 8;
    w.queue_depth = 32;
    w.write_pct = 100;
    w.window_ops = 16000;
    all.push_back(w);
  }
  // The read path: per-block metadata from OMAP, HMAC-verified, with an IV
  // cache holding half of the working set's objects.
  {
    WorkloadSpec w;
    w.name = "randread-hmac-omap";
    w.enc.mode = CipherMode::kXtsRandom;
    w.enc.layout = IvLayout::kOmap;
    w.enc.integrity = Integrity::kHmac;
    w.objects_per_image = 16;
    w.iv_cache = true;
    w.iv_cache_objects = 8;
    w.queue_depth = 32;
    w.write_pct = 0;
    w.window_ops = 40000;
    all.push_back(w);
  }
  // A database-style guest: 1 KiB IOs on a 512 B grid (write-back RMW),
  // TRIM, and compressible content through the LZ codec into 512 B
  // allocation units; the working set fits in the IV cache.
  {
    WorkloadSpec w;
    w.name = "rwmix-sub4k-compress";
    w.enc.mode = CipherMode::kXtsRandom;
    w.enc.layout = IvLayout::kUnaligned;
    w.enc.integrity = Integrity::kHmac;
    w.enc.compression.codec = Compression::kLz;
    w.alloc_unit = 512;
    w.objects_per_image = 16;
    w.iv_cache = true;
    w.iv_cache_objects = 64;
    w.queue_depth = 16;
    w.io_size = 1024;
    w.align = 512;
    w.discard_pct = 10;
    w.write_pct = 70;
    w.compressible_pct = 50;
    w.window_ops = 30000;
    all.push_back(w);
  }
  // Four tenants on one client and a small cluster: client DWRR QoS, OSD
  // mClock with one reserved tenant, and the 4-core sim CPU model.
  {
    WorkloadSpec w;
    w.name = "tenants-9osd-4core";
    w.nodes = 3;
    w.osds_per_node = 3;
    w.cores = 4;
    w.mclock = true;
    w.images = 4;
    w.queue_depth = 8;
    w.objects_per_image = 4;
    w.enc.mode = CipherMode::kXtsRandom;
    w.enc.layout = IvLayout::kObjectEnd;
    w.qos_weights = {1, 2, 3, 4};
    w.qos_max_inflight = 16;
    w.reserved_iops = 2000;
    w.write_pct = 50;
    w.window_ops = 30000;
    all.push_back(w);
  }
  return all;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const std::vector<WorkloadSpec> kAll = MakeWorkloads();
  for (const WorkloadSpec& w : kAll) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
