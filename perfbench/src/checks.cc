#include "checks.h"

#include <algorithm>
#include <cstring>
#include <set>

#include "core/luks_header.h"
#include "evp.h"

namespace perfbench {

using vde::Bytes;
using vde::ByteSpan;
using vde::Result;
using vde::Status;
namespace sim = vde::sim;
using vde::core::CipherMode;
using vde::core::IvLayout;

namespace {

constexpr uint64_t kBlock = vde::core::kBlockSize;
constexpr uint64_t kReadBackChunk = 1 << 20;
constexpr size_t kSampleBlocks = 256;  // spread over the images

uint64_t LoadLe(const Bytes& b, size_t off, size_t n) {
  uint64_t v = 0;
  for (size_t i = 0; i < n; ++i) v |= static_cast<uint64_t>(b[off + i]) << (8 * i);
  return v;
}

Bytes BlockKey(uint64_t block_in_object) {
  Bytes key(8);
  for (int i = 0; i < 8; ++i) {
    key[i] = static_cast<uint8_t>(block_in_object >> (8 * (7 - i)));
  }
  return key;
}

}  // namespace

std::string Checker::ObjectOf(size_t image, uint64_t block) const {
  const vde::rbd::Image& img = *bench_.images()[image].image;
  return img.ObjectName(block / img.blocks_per_object());
}

size_t Checker::PrimaryOf(const std::string& oid) const {
  return bench_.cluster().placement().OsdsFor(oid).front();
}

Bytes Checker::IvOf(const Bytes& row) const {
  const vde::core::EncryptionSpec& enc = bench_.spec().enc;
  const size_t header = enc.compression.enabled() ? 3 : 0;
  const size_t n = enc.mode == CipherMode::kGcmRandom ? 12 : 16;
  if (row.size() < header + n) return {};
  return Bytes(row.begin() + static_cast<long>(header),
               row.begin() + static_cast<long>(header + n));
}

size_t Checker::LiveLen(const Bytes& row) const {
  if (!bench_.spec().enc.compression.enabled() || row.size() < 3 ||
      row[0] == 0) {
    return kBlock;
  }
  const size_t clen = LoadLe(row, 1, 2);
  return std::min<size_t>(std::max<size_t>(clen, 16), kBlock);
}

sim::Task<Result<Checker::Stored>> Checker::PeekBlock(size_t osd, size_t image,
                                                      uint64_t block) {
  const vde::rbd::Image& img = *bench_.images()[image].image;
  const vde::core::EncryptionSpec& enc = bench_.spec().enc;
  const std::string oid = ObjectOf(image, block);
  const uint64_t in_obj = block % img.blocks_per_object();
  const size_t meta = enc.MetaPerBlock();
  vde::objstore::ObjectStore& store = bench_.cluster().osd(osd).store();
  Stored out;
  uint64_t data_off = in_obj * kBlock;
  if (enc.layout == IvLayout::kUnaligned) data_off = in_obj * (kBlock + meta);
  auto data = store.PeekObjectData(oid, data_off, kBlock);
  if (!data.ok()) co_return data.status();
  out.data = std::move(data).value();
  if (enc.layout == IvLayout::kOmap) {
    auto row = co_await store.PeekOmapRow(oid, BlockKey(in_obj));
    if (!row.ok()) co_return row.status();
    out.row = std::move(row).value();
  } else {
    const uint64_t row_off = enc.layout == IvLayout::kUnaligned
                                 ? data_off + kBlock
                                 : img.object_size() + in_obj * meta;
    auto row = store.PeekObjectData(oid, row_off, meta);
    if (!row.ok()) co_return row.status();
    out.row = std::move(row).value();
  }
  co_return out;
}

sim::Task<Status> Checker::SnapshotSample() {
  const WorkloadSpec& spec = bench_.spec();
  const size_t per_image =
      (kSampleBlocks + spec.images - 1) / spec.images;
  SplitMix pick(bench_.seed() ^ 0x5A17E5A17E5A17E5ULL);
  for (size_t i = 0; i < spec.images; ++i) {
    const ImageState& img = bench_.images()[i];
    const uint64_t blocks = img.write_gen.size();
    std::set<uint64_t> chosen;
    while (chosen.size() < std::min<uint64_t>(per_image, blocks)) {
      chosen.insert(pick.Below(blocks));
    }
    for (const uint64_t b : chosen) {
      auto stored = co_await PeekBlock(PrimaryOf(ObjectOf(i, b)), i, b);
      if (!stored.ok()) co_return stored.status();
      samples_.push_back(Sample{i, b, img.write_gen[b], IvOf(stored->row)});
    }
  }
  co_return Status::Ok();
}

Result<Bytes> Checker::UnlockMasterKey(size_t image) {
  // The header object: [magic u32][len u32][size u64][object_size u64]
  // [stripe_unit u64][stripe_count u64][mode layout integrity encrypted u8]
  // [snap_count u32][snaps...][luks_len u32][luks blob]...
  const std::string oid = "rbd_header." + bench_.images()[image].image->name();
  vde::objstore::ObjectStore& store =
      bench_.cluster().osd(PrimaryOf(oid)).store();
  auto raw = store.PeekObjectData(oid, 0, store.ObjectSize(oid));
  if (!raw.ok()) return raw.status();
  const Bytes& h = *raw;
  size_t pos = 44;
  if (h.size() < pos + 4) return Status::Corruption("short image header");
  const uint64_t snaps = LoadLe(h, pos, 4);
  pos += 4;
  for (uint64_t s = 0; s < snaps; ++s) {
    if (h.size() < pos + 10) return Status::Corruption("short snap list");
    pos += 10 + LoadLe(h, pos + 8, 2);
  }
  if (h.size() < pos + 4) return Status::Corruption("short image header");
  const uint64_t luks_len = LoadLe(h, pos, 4);
  pos += 4;
  if (h.size() < pos + luks_len) return Status::Corruption("short LUKS blob");
  auto luks = vde::core::LuksHeader::Deserialize(
      ByteSpan(h.data() + pos, luks_len));
  if (!luks.ok()) return luks.status();
  return luks->Unlock(Bench::kPassphrase);
}

sim::Task<Status> Checker::ReadBack(CheckReport* report) {
  for (size_t i = 0; i < bench_.images().size(); ++i) {
    ImageState& img = bench_.images()[i];
    for (uint64_t off = 0; off < img.shadow.size(); off += kReadBackChunk) {
      auto got = co_await img.image->Read(off, kReadBackChunk);
      if (!got.ok()) {
        bench_.AddError("read-back of image " + std::to_string(i) + " at " +
                        std::to_string(off) + ": " + got.status().ToString());
        report->readback_mismatches += kReadBackChunk / kBlock;
        continue;
      }
      for (uint64_t b = 0; b < kReadBackChunk; b += kBlock) {
        report->readback_blocks++;
        if (std::memcmp(got->data() + b, img.shadow.data() + off + b,
                        kBlock) != 0) {
          report->readback_mismatches++;
        }
      }
    }
  }
  if (report->readback_mismatches > 0) {
    bench_.AddError("read-back: " +
                    std::to_string(report->readback_mismatches) + " of " +
                    std::to_string(report->readback_blocks) +
                    " blocks differ from the shadow");
  }
  co_return Status::Ok();
}

sim::Task<Status> Checker::CheckSample(CheckReport* report) {
  std::vector<EvpOpener> openers;
  for (size_t i = 0; i < bench_.images().size(); ++i) {
    auto key = UnlockMasterKey(i);
    if (!key.ok()) co_return key.status();
    openers.emplace_back(bench_.spec().enc, *key);
  }
  const bool gcm = bench_.spec().enc.mode == CipherMode::kGcmRandom;
  std::set<Bytes> nonces;
  for (const Sample& s : samples_) {
    const ImageState& img = bench_.images()[s.image];
    if (gcm && !nonces.insert(s.iv).second) report->nonce_repeats++;
    if (img.discarded[s.block]) continue;  // no record to open
    const std::string oid = ObjectOf(s.image, s.block);
    const std::vector<size_t> acting =
        bench_.cluster().placement().OsdsFor(oid);
    auto primary = co_await PeekBlock(acting.front(), s.image, s.block);
    if (!primary.ok()) co_return primary.status();
    for (size_t r = 1; r < acting.size(); ++r) {
      auto replica = co_await PeekBlock(acting[r], s.image, s.block);
      if (!replica.ok()) co_return replica.status();
      // Only the live ciphertext prefix must agree: a compressed block's
      // slot tail is punched, and punched bytes are undefined.
      const size_t live = LiveLen(primary->row);
      if (replica->row != primary->row ||
          std::memcmp(replica->data.data(), primary->data.data(), live) != 0) {
        report->replica_mismatches++;
      }
    }
    Bytes plain(kBlock);
    report->evp_blocks++;
    const std::string why =
        openers[s.image].Open(s.block, primary->data, primary->row, plain);
    if (!why.empty() ||
        std::memcmp(plain.data(), img.shadow.data() + s.block * kBlock,
                    kBlock) != 0) {
      report->evp_failures++;
      bench_.AddError("EVP check of image " + std::to_string(s.image) +
                      " block " + std::to_string(s.block) + ": " +
                      (why.empty() ? "plaintext differs from the shadow" : why));
    }
    const Bytes iv = IvOf(primary->row);
    if (img.write_gen[s.block] != s.write_gen) {
      report->overwritten_sampled++;
      if (iv == s.iv) report->stale_ivs++;
      if (gcm && !nonces.insert(iv).second) report->nonce_repeats++;
    } else if (iv != s.iv) {
      report->stale_ivs++;  // a row changed without a write
    }
  }
  if (report->replica_mismatches > 0) {
    bench_.AddError(std::to_string(report->replica_mismatches) +
                    " sampled blocks differ between replicas");
  }
  if (report->stale_ivs > 0) {
    bench_.AddError(std::to_string(report->stale_ivs) +
                    " sampled blocks: IV changed without a write, or kept "
                    "across an overwrite");
  }
  if (report->nonce_repeats > 0) {
    bench_.AddError(std::to_string(report->nonce_repeats) +
                    " GCM nonces repeat in the sample");
  }
  co_return Status::Ok();
}

void Checker::CheckConservation(CheckReport* report) {
  if (bench_.spec().compressible_pct != 0) return;  // bounds assume raw data
  report->conservation_checked = true;
  const uint64_t repl = bench_.cluster().config().replication;
  const Window& w = bench_.window();
  const uint64_t device_written =
      w.end.device.bytes_written - w.begin.device.bytes_written;
  if (device_written < repl * w.write_bytes) {
    bench_.AddError("device bytes written " + std::to_string(device_written) +
                    " < replication x guest bytes written " +
                    std::to_string(repl * w.write_bytes));
  }
  if (bench_.AllocatedBytes() < repl * bench_.LiveBytes()) {
    bench_.AddError("allocated bytes " +
                    std::to_string(bench_.AllocatedBytes()) +
                    " < replication x live bytes " +
                    std::to_string(repl * bench_.LiveBytes()));
  }
}

sim::Task<Status> Checker::TamperSelfTest(CheckReport* report) {
  const Sample* target = nullptr;
  for (const Sample& s : samples_) {
    if (!bench_.images()[s.image].discarded[s.block]) {
      target = &s;
      break;
    }
  }
  if (target == nullptr) co_return Status::IoError("no live sampled block");
  ImageState& img = bench_.images()[target->image];
  const std::string oid = ObjectOf(target->image, target->block);
  const size_t primary = PrimaryOf(oid);
  auto before = co_await PeekBlock(primary, target->image, target->block);
  if (!before.ok()) co_return before.status();
  // Flip the first ciphertext byte on the primary, below the client.
  const uint64_t in_obj = target->block % img.image->blocks_per_object();
  const size_t meta = bench_.spec().enc.MetaPerBlock();
  const uint64_t data_off = bench_.spec().enc.layout == IvLayout::kUnaligned
                                ? in_obj * (kBlock + meta)
                                : in_obj * kBlock;
  const uint8_t flipped = before->data[0] ^ 0xFF;
  VDE_CO_RETURN_IF_ERROR(bench_.cluster().osd(primary).store().TamperObjectData(
      oid, data_off, ByteSpan(&flipped, 1)));

  auto after = co_await PeekBlock(primary, target->image, target->block);
  if (!after.ok()) co_return after.status();
  auto key = UnlockMasterKey(target->image);
  if (!key.ok()) co_return key.status();
  const EvpOpener opener(bench_.spec().enc, *key);
  Bytes plain(kBlock);
  const uint8_t* expect = img.shadow.data() + target->block * kBlock;
  report->tamper_detected_by_evp =
      !opener.Open(target->block, after->data, after->row, plain).empty() ||
      std::memcmp(plain.data(), expect, kBlock) != 0;
  auto got = co_await img.image->Read(target->block * kBlock, kBlock);
  report->tamper_detected_by_read =
      !got.ok() || std::memcmp(got->data(), expect, kBlock) != 0;
  if (!report->tamper_detected_by_evp || !report->tamper_detected_by_read) {
    bench_.AddError(std::string("tamper self-test: flipped byte not detected by ") +
                    (report->tamper_detected_by_evp ? "the image read-back"
                                                    : "the EVP check"));
  }
  co_return Status::Ok();
}

sim::Task<Status> Checker::Run(CheckReport* report) {
  VDE_CO_RETURN_IF_ERROR(co_await ReadBack(report));
  VDE_CO_RETURN_IF_ERROR(co_await CheckSample(report));
  CheckConservation(report);
  VDE_CO_RETURN_IF_ERROR(co_await TamperSelfTest(report));
  co_return Status::Ok();
}

}  // namespace perfbench
