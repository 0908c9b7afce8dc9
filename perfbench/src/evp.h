// An independent reader of one stored block: given the image master key,
// the block's raw slot bytes and its metadata row, re-derives the subkeys
// (HKDF-SHA256) and decrypts/authenticates with OpenSSL EVP only — AES-256-
// GCM, or AES-256-XTS under the LBA-masked random IV plus HMAC-SHA256. The
// record layout it assumes is the one docs/ARCHITECTURE.md describes:
//   row = [codec u8][stored_len u16le]?  (compression on)
//         || nonce(12) || tag(16)         (GCM)
//         || iv(16) [|| hmac(32)]         (XTS random IV [+ HMAC])
// Compressed payloads are expanded with the program's LZ decoder after the
// EVP step (OpenSSL has no codec for that stream format).
#pragma once

#include <cstdint>
#include <string>

#include "core/types.h"
#include "util/bytes.h"

namespace perfbench {

class EvpOpener {
 public:
  EvpOpener(const vde::core::EncryptionSpec& spec, vde::ByteSpan master_key);

  // Decrypts the block at image block `lba` into `out` (4 KiB). Returns an
  // empty string on success, else why the block was refused.
  std::string Open(uint64_t lba, vde::ByteSpan slot, vde::ByteSpan row,
                   vde::MutByteSpan out) const;

 private:
  vde::core::EncryptionSpec spec_;
  vde::Bytes master_;
  vde::Bytes iv_mask_key_;
  vde::Bytes gcm_key_;
  vde::Bytes hmac_key_;
};

}  // namespace perfbench
