// Correctness checks that do not trust the program:
//   - a full read-back of every image's working set against the shadow copy
//     (zeros where the guest discarded);
//   - a sample of stored blocks fetched raw through the object stores' Peek
//     hooks on every replica, decrypted and authenticated with OpenSSL EVP
//     under the key unlocked from the image header;
//   - IV freshness: an overwritten sampled block carries a new IV/nonce, and
//     no GCM nonce repeats across the sample;
//   - conservation on incompressible content: device bytes written in the
//     window >= replication x guest bytes written, and allocated bytes >=
//     replication x live bytes;
//   - a tamper self-test: one stored byte flipped with TamperObjectData must
//     make both the EVP check and the image read-back fail.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct CheckReport {
  uint64_t readback_blocks = 0;
  uint64_t readback_mismatches = 0;
  uint64_t evp_blocks = 0;
  uint64_t evp_failures = 0;
  uint64_t replica_mismatches = 0;
  uint64_t overwritten_sampled = 0;
  uint64_t stale_ivs = 0;
  uint64_t nonce_repeats = 0;
  bool conservation_checked = false;
  bool tamper_detected_by_evp = false;
  bool tamper_detected_by_read = false;
};

class Checker {
 public:
  explicit Checker(Bench& bench) : bench_(bench) {}

  // Picks the sampled blocks and records their metadata rows as stored
  // after the prefill. Runs before the measured phase.
  vde::sim::Task<vde::Status> SnapshotSample();

  // Runs every check after the measured phase; each failure is recorded
  // with Bench::AddError.
  vde::sim::Task<vde::Status> Run(CheckReport* report);

 private:
  struct Sample {
    size_t image = 0;
    uint64_t block = 0;      // block index in the image
    uint32_t write_gen = 0;  // at SnapshotSample
    vde::Bytes iv;           // IV / nonce bytes of the row at SnapshotSample
  };
  struct Stored {
    vde::Bytes data;  // the block's 4 KiB slot
    vde::Bytes row;   // its per-block metadata row
  };

  vde::sim::Task<vde::Result<Stored>> PeekBlock(size_t osd, size_t image,
                                                 uint64_t block);
  vde::sim::Task<vde::Status> ReadBack(CheckReport* report);
  vde::sim::Task<vde::Status> CheckSample(CheckReport* report);
  void CheckConservation(CheckReport* report);
  vde::sim::Task<vde::Status> TamperSelfTest(CheckReport* report);
  vde::Result<vde::Bytes> UnlockMasterKey(size_t image);
  std::string ObjectOf(size_t image, uint64_t block) const;
  size_t PrimaryOf(const std::string& oid) const;
  vde::Bytes IvOf(const vde::Bytes& row) const;
  // Bytes of the slot that hold ciphertext (the rest may be punched).
  size_t LiveLen(const vde::Bytes& row) const;

  Bench& bench_;
  std::vector<Sample> samples_;
};

}  // namespace perfbench
