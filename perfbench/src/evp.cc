#include "evp.h"

#include <openssl/core_names.h>
#include <openssl/crypto.h>
#include <openssl/evp.h>
#include <openssl/hmac.h>
#include <openssl/kdf.h>

#include <cstring>
#include <memory>

#include "util/lz.h"

namespace perfbench {

using vde::Bytes;
using vde::ByteSpan;
using vde::MutByteSpan;
using vde::core::CipherMode;
using vde::core::Integrity;

namespace {

constexpr size_t kBlock = vde::core::kBlockSize;
constexpr size_t kCompressHeader = 3;
constexpr size_t kMinCipherLen = 16;  // XTS needs one whole AES block

struct CtxFree {
  void operator()(EVP_CIPHER_CTX* c) const { EVP_CIPHER_CTX_free(c); }
};
using CipherCtx = std::unique_ptr<EVP_CIPHER_CTX, CtxFree>;

Bytes Hkdf(ByteSpan ikm, const char* label, size_t n) {
  Bytes out(n);
  EVP_KDF* kdf = EVP_KDF_fetch(nullptr, "HKDF", nullptr);
  EVP_KDF_CTX* ctx = kdf != nullptr ? EVP_KDF_CTX_new(kdf) : nullptr;
  char digest[] = "SHA256";
  OSSL_PARAM params[] = {
      OSSL_PARAM_construct_utf8_string(OSSL_KDF_PARAM_DIGEST, digest, 0),
      OSSL_PARAM_construct_octet_string(
          OSSL_KDF_PARAM_KEY, const_cast<uint8_t*>(ikm.data()), ikm.size()),
      OSSL_PARAM_construct_octet_string(OSSL_KDF_PARAM_INFO,
                                        const_cast<char*>(label),
                                        std::strlen(label)),
      OSSL_PARAM_construct_end()};
  if (ctx == nullptr || EVP_KDF_derive(ctx, out.data(), n, params) <= 0) {
    out.clear();
  }
  EVP_KDF_CTX_free(ctx);
  EVP_KDF_free(kdf);
  return out;
}

void StoreLe64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

}  // namespace

EvpOpener::EvpOpener(const vde::core::EncryptionSpec& spec,
                     ByteSpan master_key)
    : spec_(spec),
      master_(master_key.begin(), master_key.end()),
      iv_mask_key_(Hkdf(master_key, "iv-mask", 32)),
      gcm_key_(Hkdf(master_key, "gcm", 32)),
      hmac_key_(Hkdf(master_key, "integrity", 32)) {}

std::string EvpOpener::Open(uint64_t lba, ByteSpan slot, ByteSpan row,
                            MutByteSpan out) const {
  if (iv_mask_key_.empty() || master_.size() != 64) return "key setup failed";
  if (row.size() != spec_.MetaPerBlock() || slot.size() != kBlock ||
      out.size() != kBlock) {
    return "bad row or slot size";
  }
  const size_t header = spec_.compression.enabled() ? kCompressHeader : 0;
  uint8_t codec = 0;
  size_t clen = kBlock;
  if (header > 0) {
    codec = row[0];
    clen = static_cast<size_t>(row[1]) | static_cast<size_t>(row[2]) << 8;
    if (codec > 1 || clen == 0 || clen > kBlock ||
        (codec == 0 && clen != kBlock)) {
      return "bad compression header";
    }
  }
  const size_t stored = codec == 0 ? kBlock : std::max(clen, kMinCipherLen);
  const ByteSpan ct = slot.first(stored);
  const ByteSpan hdr = row.first(header);
  const ByteSpan meta = row.subspan(header);
  uint8_t lba_le[8];
  StoreLe64(lba_le, lba);

  Bytes plain(stored);
  int len = 0;
  CipherCtx ctx(EVP_CIPHER_CTX_new());
  if (ctx == nullptr) return "EVP context";
  if (spec_.mode == CipherMode::kGcmRandom) {
    Bytes aad(lba_le, lba_le + 8);
    aad.insert(aad.end(), hdr.begin(), hdr.end());
    Bytes tag(meta.begin() + 12, meta.begin() + 28);
    if (EVP_DecryptInit_ex(ctx.get(), EVP_aes_256_gcm(), nullptr,
                           gcm_key_.data(), meta.data()) != 1 ||
        EVP_DecryptUpdate(ctx.get(), nullptr, &len, aad.data(),
                          static_cast<int>(aad.size())) != 1 ||
        EVP_DecryptUpdate(ctx.get(), plain.data(), &len, ct.data(),
                          static_cast<int>(ct.size())) != 1 ||
        EVP_CIPHER_CTX_ctrl(ctx.get(), EVP_CTRL_GCM_SET_TAG, 16,
                            tag.data()) != 1 ||
        EVP_DecryptFinal_ex(ctx.get(), plain.data() + len, &len) != 1) {
      return "GCM authentication failed";
    }
  } else if (spec_.mode == CipherMode::kXtsRandom) {
    const ByteSpan iv = meta.first(16);
    if (spec_.integrity == Integrity::kHmac) {
      Bytes msg(hdr.begin(), hdr.end());
      msg.insert(msg.end(), ct.begin(), ct.end());
      msg.insert(msg.end(), lba_le, lba_le + 8);
      msg.insert(msg.end(), iv.begin(), iv.end());
      uint8_t mac[32];
      unsigned mac_len = 0;
      if (HMAC(EVP_sha256(), hmac_key_.data(),
               static_cast<int>(hmac_key_.size()), msg.data(), msg.size(), mac,
               &mac_len) == nullptr ||
          mac_len != 32 || CRYPTO_memcmp(mac, meta.data() + 16, 32) != 0) {
        return "HMAC verification failed";
      }
    }
    // Tweak = AES-ECB_{iv-mask}(lba) XOR stored random IV: binds the IV to
    // the block address.
    uint8_t lba_block[16] = {};
    StoreLe64(lba_block, lba);
    uint8_t tweak[32];
    CipherCtx ecb(EVP_CIPHER_CTX_new());
    if (ecb == nullptr ||
        EVP_EncryptInit_ex(ecb.get(), EVP_aes_256_ecb(), nullptr,
                           iv_mask_key_.data(), nullptr) != 1 ||
        EVP_CIPHER_CTX_set_padding(ecb.get(), 0) != 1 ||
        EVP_EncryptUpdate(ecb.get(), tweak, &len, lba_block, 16) != 1) {
      return "IV mask failed";
    }
    for (size_t i = 0; i < 16; ++i) tweak[i] ^= iv[i];
    if (EVP_DecryptInit_ex(ctx.get(), EVP_aes_256_xts(), nullptr,
                           master_.data(), tweak) != 1 ||
        EVP_DecryptUpdate(ctx.get(), plain.data(), &len, ct.data(),
                          static_cast<int>(ct.size())) != 1) {
      return "XTS decrypt failed";
    }
  } else {
    return "mode has no per-block record";
  }

  if (codec == 0) {
    std::memcpy(out.data(), plain.data(), kBlock);
    return "";
  }
  if (!vde::LzDecompress(ByteSpan(plain).first(clen), out).ok()) {
    return "LZ stream rejected";
  }
  return "";
}

}  // namespace perfbench
