// SHA-256 (FIPS 180-4), implemented from scratch — the reproduction has no
// external crypto dependency. Used by HMAC/HKDF for the ReverseCloak key
// hierarchy, by every KeyedPrng context and by the handshake's HMACs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "util/bytes.h"
#include "util/status.h"

namespace rcloak::crypto {

// The block compression under Sha256: one 64-byte block into an 8-word
// state. Two implementations compute the same function: the portable one,
// and one on the x86 SHA extensions that Sha256 picks once, from CPUID,
// where the CPU has them. Exposed so tests and benches can compare the two.
namespace sha256 {

using Compression = void (*)(std::uint32_t* state,
                             const std::uint8_t* block) noexcept;

// FIPS 180-4 in portable C++; the only path on other CPUs.
void CompressPortable(std::uint32_t* state, const std::uint8_t* block) noexcept;
// The SHA-extension compression, or nullptr where the CPU (or a non-x86-64
// build) has none.
Compression AcceleratedCompression() noexcept;
// The name of the compression Sha256 runs, for reports.
const char* ActiveCompressionName() noexcept;

}  // namespace sha256

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256() noexcept { Reset(); }

  void Reset() noexcept;
  void Update(const std::uint8_t* data, std::size_t len) noexcept;
  void Update(const Bytes& data) noexcept {
    Update(data.data(), data.size());
  }
  void Update(std::string_view data) noexcept {
    Update(reinterpret_cast<const std::uint8_t*>(data.data()), data.size());
  }
  Digest Finish() noexcept;

  static Digest Hash(const Bytes& data) noexcept {
    Sha256 h;
    h.Update(data);
    return h.Finish();
  }
  static Digest Hash(std::string_view data) noexcept {
    Sha256 h;
    h.Update(data);
    return h.Finish();
  }

 private:
  void ProcessBlock(const std::uint8_t* block) noexcept;

  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, kBlockSize> buffer_{};
  std::uint64_t bit_count_ = 0;
  std::size_t buffer_len_ = 0;
};

// HMAC-SHA256 (RFC 2104) with the key absorbed once. The constructor
// hashes the inner and outer pad blocks; a MAC then copies the two SHA-256
// states and hashes only the message, so a key used for several MACs (an
// HKDF PRK) pays its pad compressions once.
class HmacSha256Key {
 public:
  HmacSha256Key(const std::uint8_t* key, std::size_t len) noexcept;
  explicit HmacSha256Key(const Bytes& key) noexcept
      : HmacSha256Key(key.data(), key.size()) {}

  // A MAC over a message fed in parts: Update() the hasher Begin() returns,
  // then hand it to Finish().
  Sha256 Begin() const noexcept { return inner_; }
  Sha256::Digest Finish(Sha256& inner) const noexcept;

  Sha256::Digest Mac(const std::uint8_t* data, std::size_t len) const noexcept;
  Sha256::Digest Mac(const Bytes& message) const noexcept {
    return Mac(message.data(), message.size());
  }

 private:
  Sha256 inner_;  // has absorbed key ^ ipad
  Sha256 outer_;  // has absorbed key ^ opad
};

Sha256::Digest HmacSha256(const Bytes& key, const Bytes& message) noexcept;

// HKDF-SHA256 (RFC 5869) as its two steps, so a caller deriving several
// outputs from one secret runs the extract once.
//
// Extract: PRK = HMAC(salt, ikm), returned as a ready HMAC key. An empty
// salt stands for 32 zero bytes, which HMAC's zero padding makes the same
// key as no bytes at all.
HmacSha256Key HkdfExtract(const Bytes& salt, const std::uint8_t* ikm,
                          std::size_t ikm_len) noexcept;
// Expand: fills out[0, out_len) with T(1) | T(2) | ..., where
// T(i) = HMAC(PRK, T(i-1) | info | i). INVALID_ARGUMENT past 255*32 bytes,
// where the one-byte block counter would wrap.
Status HkdfExpand(const HmacSha256Key& prk, const std::uint8_t* info,
                  std::size_t info_len, std::uint8_t* out,
                  std::size_t out_len);
// Extract then expand. INVALID_ARGUMENT past 255*32 bytes.
StatusOr<Bytes> HkdfSha256(const Bytes& ikm, const Bytes& salt,
                           const Bytes& info, std::size_t out_len);

// Constant-time equality for MAC/digest comparison.
bool ConstantTimeEqual(const Bytes& a, const Bytes& b) noexcept;

}  // namespace rcloak::crypto
