// Host time per layer: each layer's public entry points are timed in
// isolation, on inputs shaped like the workload's and at the call counts
// the traced run recorded, so a later change to one primitive shows up as
// a change of its own line rather than only in the total.
#pragma once

#include <cstdint>

#include "workloads.h"

namespace perfbench {

// Work the traced run's sim window did in each layer.
struct LayerCounts {
  uint64_t enc_blocks = 0;    // blocks through EncryptionFormat::MakeWrite
  uint64_t dec_blocks = 0;    // blocks through EncryptionFormat::FinishRead
  uint64_t cipher_bytes = 0;  // mean ciphertext bytes per block pass
  uint64_t lz_in_blocks = 0;  // blocks offered to the LZ compressor
  uint64_t lz_out_blocks = 0; // blocks expanded by the LZ decoder
  uint64_t crc_frames = 0;    // WAL frames, each one CRC32C pass
  uint64_t crc_bytes = 0;     // bytes those frames carried
};

// Host nanoseconds the counted work costs, per layer. Nested layers are
// reported separately: `format` includes its `cipher` and `lz` work.
struct LayerTimes {
  double format_ns = 0;
  double cipher_ns = 0;
  double crc32c_ns = 0;
  double lz_ns = 0;
};

LayerTimes TimeLayers(const WorkloadSpec& spec, const LayerCounts& counts,
                      uint64_t seed);

}  // namespace perfbench
