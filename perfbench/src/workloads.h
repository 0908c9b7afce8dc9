// The benchmark's four workloads. Each one stresses a different set of
// layers (perfbench/README.md says which metric each layer should move);
// sizes are whole 4 MiB objects because the object store allocates an
// object's full extent on first write, so a partly written object would
// make stored_bytes_per_user_byte measure the thick provisioning instead of
// the data.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"

namespace perfbench {

// Ops (summed over all images) run before measuring, and the size of the
// measured rounds that continue until the host-time budget is spent. A
// round must exceed the largest total queue depth (32), so the window is
// complete before the loop can stop.
inline constexpr uint64_t kWarmupOps = 2000;
inline constexpr uint64_t kRoundOps = 1000;

struct WorkloadSpec {
  std::string name;

  // Cluster shape.
  size_t nodes = 3;
  size_t osds_per_node = 9;
  unsigned cores = 0;         // sim CPU model: 0 = off
  uint32_t alloc_unit = 0;    // object-store allocator unit (0 = sector)
  bool mclock = false;        // cluster-side QoS dequeue on every OSD

  // Images: one per tenant, each driven by its own closed loop.
  size_t images = 1;
  size_t queue_depth = 32;    // in-flight ops per image
  uint64_t objects_per_image = 8;
  vde::core::EncryptionSpec enc;
  bool iv_cache = false;
  size_t iv_cache_objects = 0;
  // Client-side qos::Scheduler shared by all images (weights per image)
  // with a cap on total in-flight requests, so the weights decide order.
  std::vector<uint32_t> qos_weights;
  size_t qos_max_inflight = 0;
  // Cluster mClock reservation of image 0 (the reserved tenant), IOPS.
  double reserved_iops = 0;

  // Op mix. Offsets sit on an `align` grid inside the working set.
  uint32_t io_size = 4096;
  uint32_t align = 4096;
  uint32_t discard_pct = 0;   // of all ops; one whole 4 KiB block each
  uint32_t write_pct = 0;     // of the non-discard ops
  uint32_t compressible_pct = 0;  // leading share of every 512 B sector
                                  // filled with one repeated byte

  // The sim window: the first `window_ops` measured completions (summed
  // over all images).
  uint64_t window_ops = 20000;

  uint64_t WorkingSetBytes() const { return objects_per_image << 22; }
};

// Null when `name` is not a workload.
const WorkloadSpec* FindWorkload(const std::string& name);

}  // namespace perfbench
