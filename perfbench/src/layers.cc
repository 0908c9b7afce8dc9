#include "layers.h"

#include <algorithm>
#include <functional>

#include "bench.h"
#include "core/format.h"
#include "crypto/gcm.h"
#include "crypto/hmac.h"
#include "crypto/xts.h"
#include "util/crc32.h"
#include "util/lz.h"

namespace perfbench {

using vde::Bytes;
using vde::ByteSpan;
using vde::MutByteSpan;
namespace core = vde::core;
namespace crypto = vde::crypto;

namespace {

constexpr size_t kBlock = core::kBlockSize;
constexpr size_t kSamples = 256;              // distinct inputs per layer
constexpr double kMinTimedSeconds = 0.02;     // per timed entry point

// Keeps results of otherwise unused computations observable.
volatile uint32_t g_sink = 0;

// Mean host ns of one `call(i)` over the sample inputs, repeating passes
// until the timing covers kMinTimedSeconds.
double NsPerCall(const std::function<void(size_t)>& call) {
  size_t calls = 0;
  const HostClock::time_point t0 = HostClock::now();
  double elapsed = 0;
  do {
    for (size_t i = 0; i < kSamples; ++i) call(i);
    calls += kSamples;
    elapsed = SecondsBetween(t0, HostClock::now());
  } while (elapsed < kMinTimedSeconds);
  return elapsed * 1e9 / static_cast<double>(calls);
}

core::ObjectExtent BlockExtent(size_t i) {
  core::ObjectExtent ext;
  ext.oid = "layers";
  ext.first_block = i;
  ext.block_count = 1;
  ext.image_block = i;
  return ext;
}

// What FinishRead would receive for the block `txn` wrote, per geometry.
vde::objstore::ReadResult ReadBackOf(const core::EncryptionSpec& spec,
                                     const vde::objstore::Transaction& txn) {
  vde::objstore::ReadResult r;
  r.data = txn.ops[0].data;
  if (spec.layout == core::IvLayout::kUnaligned) {
    r.data.resize(kBlock + spec.MetaPerBlock());
  } else if (spec.layout == core::IvLayout::kObjectEnd) {
    r.data.insert(r.data.end(), txn.ops[1].data.begin(),
                  txn.ops[1].data.end());
  } else {
    r.omap_values = txn.ops[1].omap_kvs;
  }
  return r;
}

}  // namespace

LayerTimes TimeLayers(const WorkloadSpec& spec, const LayerCounts& counts,
                      uint64_t seed) {
  SplitMix rng(seed ^ 0x1A7E25ULL);
  std::vector<Bytes> plain(kSamples, Bytes(kBlock));
  for (Bytes& p : plain) FillGuestContent(rng, spec.compressible_pct, p);
  Bytes master(64);
  for (uint8_t& b : master) b = static_cast<uint8_t>(rng.Next());

  LayerTimes t;
  // Format: the full per-block write and read transforms.
  core::EncryptionSpec enc = spec.enc;
  enc.iv_seed = seed + 1;
  auto format = core::MakeFormat(enc, master, 4ull << 20);
  std::vector<vde::objstore::ReadResult> stored(kSamples);
  for (size_t i = 0; i < kSamples; ++i) {
    vde::objstore::Transaction txn;
    (void)format->MakeWrite(BlockExtent(i), plain[i], txn);
    stored[i] = ReadBackOf(enc, txn);
  }
  const double make_write = NsPerCall([&](size_t i) {
    vde::objstore::Transaction txn;
    (void)format->MakeWrite(BlockExtent(i), plain[i], txn);
  });
  Bytes out(kBlock);
  const double finish_read = NsPerCall([&](size_t i) {
    (void)format->FinishRead(BlockExtent(i), stored[i], out);
  });
  t.format_ns = make_write * static_cast<double>(counts.enc_blocks) +
                finish_read * static_cast<double>(counts.dec_blocks);

  // Cipher primitives over the mean ciphertext length of a block pass.
  const size_t len = std::clamp<size_t>(counts.cipher_bytes, 16, kBlock);
  Bytes ct(len), dec(len), tag(crypto::kGcmTagSize), nonce(crypto::kGcmIvSize, 7);
  const Bytes aad(8, 1);
  double seal = 0, open = 0;
  if (enc.mode == core::CipherMode::kGcmRandom) {
    const crypto::GcmCipher gcm(enc.backend, ByteSpan(master).first(32));
    seal = NsPerCall([&](size_t i) {
      gcm.Seal(nonce, aad, ByteSpan(plain[i]).first(len), ct, tag);
    });
    open = NsPerCall([&](size_t i) {
      (void)i;
      (void)gcm.Open(nonce, aad, ct, dec, tag);
    });
  } else {
    const crypto::XtsCipher xts(enc.backend, master);
    const Bytes tweak(16, 3);
    const bool hmac = enc.integrity == core::Integrity::kHmac;
    auto mac = [&](ByteSpan data) {
      crypto::HmacSha256Stream h(ByteSpan(master).first(32));
      h.Update(data);
      h.Update(aad);
      h.Update(tweak);
      return h.Finish();
    };
    seal = NsPerCall([&](size_t i) {
      xts.Encrypt(tweak, ByteSpan(plain[i]).first(len), ct);
      if (hmac) (void)mac(ct);
    });
    open = NsPerCall([&](size_t i) {
      (void)i;
      if (hmac) (void)mac(ct);
      xts.Decrypt(tweak, ct, dec);
    });
  }
  t.cipher_ns = seal * static_cast<double>(counts.enc_blocks) +
                open * static_cast<double>(counts.dec_blocks);

  // CRC32C over frames of the mean WAL frame size.
  if (counts.crc_frames > 0) {
    Bytes frame(std::max<uint64_t>(counts.crc_bytes / counts.crc_frames, 1));
    for (uint8_t& b : frame) b = static_cast<uint8_t>(rng.Next());
    const double crc = NsPerCall([&](size_t i) {
      g_sink = g_sink + vde::Crc32c(frame, static_cast<uint32_t>(i));
    });
    t.crc32c_ns = crc * static_cast<double>(counts.crc_frames);
  }

  // LZ codec on the workload's content.
  if (enc.compression.enabled()) {
    std::vector<Bytes> packed(kSamples, Bytes(kBlock));
    for (size_t i = 0; i < kSamples; ++i) {
      packed[i].resize(std::max<size_t>(vde::LzCompress(plain[i], packed[i]), 1));
    }
    Bytes scratch(kBlock);
    const double compress = NsPerCall(
        [&](size_t i) { (void)vde::LzCompress(plain[i], scratch); });
    const double expand = NsPerCall(
        [&](size_t i) { (void)vde::LzDecompress(packed[i], scratch); });
    t.lz_ns = compress * static_cast<double>(counts.lz_in_blocks) +
              expand * static_cast<double>(counts.lz_out_blocks);
  }
  return t;
}

}  // namespace perfbench
