#include "crypto/keyed_prng.h"

#include <cassert>
#include <charconv>
#include <cstring>
#include <iterator>
#include <random>

#include "crypto/sha256.h"

namespace rcloak::crypto {

AccessKey AccessKey::FromSeed(std::uint64_t seed) noexcept {
  Bytes seed_bytes;
  PutU64le(seed_bytes, seed);
  const auto digest = Sha256::Hash(seed_bytes);
  AccessKey key;
  std::memcpy(key.bytes.data(), digest.data(), key.bytes.size());
  return key;
}

AccessKey AccessKey::Random() {
  std::random_device rd;
  AccessKey key;
  for (std::size_t i = 0; i < key.bytes.size(); i += 4) {
    const std::uint32_t word = rd();
    std::memcpy(key.bytes.data() + i, &word, 4);
  }
  return key;
}

std::string AccessKey::ToHex() const {
  return rcloak::ToHex(Bytes(bytes.begin(), bytes.end()));
}

std::optional<AccessKey> AccessKey::FromHex(std::string_view hex) {
  const auto raw = rcloak::FromHex(hex);
  if (!raw || raw->size() != 32) return std::nullopt;
  AccessKey key;
  std::memcpy(key.bytes.data(), raw->data(), 32);
  return key;
}

KeyedPrng::KeyedPrng(const AccessKey& key, std::string_view context) noexcept {
  key_ = key.bytes;
  // Nonce and PRF key are derived from *key and context*: one AccessKey
  // serves many independent requests, and nothing derived here (in
  // particular the PRF used for seal blinding) is computable without the
  // key.
  Sha256 hasher;
  hasher.Update("rcloak/context/v1");
  hasher.Update(key.bytes.data(), key.bytes.size());
  hasher.Update(context);
  const auto digest = hasher.Finish();
  std::memcpy(nonce_.data(), digest.data(), nonce_.size());
  std::memcpy(sip_key_.data(), digest.data() + nonce_.size(), sip_key_.size());
}

std::uint64_t KeyedPrng::Draw(std::uint64_t index) const noexcept {
  const std::uint64_t block_index = index / 8;
  const std::size_t word_index = static_cast<std::size_t>(index % 8);
  // 2^32 blocks * 8 draws covers any realistic cloaking walk.
  const auto counter = static_cast<std::uint32_t>(block_index);
  if (counter != cached_counter_) {
    cached_block_ = ChaCha20::Block(key_, nonce_, counter);
    cached_counter_ = counter;
  }
  std::uint64_t v = 0;
  std::memcpy(&v, cached_block_.data() + word_index * 8, 8);
  return v;
}

std::uint64_t KeyedPrng::Prf(std::string_view label) const noexcept {
  return SipHash24(sip_key_,
                   reinterpret_cast<const std::uint8_t*>(label.data()),
                   label.size());
}

KeyChain KeyChain::DeriveFromMaster(const AccessKey& master, int num_levels) {
  assert(num_levels >= 1);
  // Level i's key is HKDF(master, salt = {}, info = "rcloak/level/<i>"),
  // 32 bytes. Every level shares the one extract; each expand is a single
  // HMAC block under the cached PRK key.
  const HmacSha256Key prk =
      HkdfExtract(/*salt=*/{}, master.bytes.data(), master.bytes.size());
  constexpr std::string_view kPrefix = "rcloak/level/";
  char info[kPrefix.size() + 16];
  std::memcpy(info, kPrefix.data(), kPrefix.size());
  std::vector<AccessKey> keys(static_cast<std::size_t>(num_levels));
  for (int i = 1; i <= num_levels; ++i) {
    char* const end =
        std::to_chars(info + kPrefix.size(), std::end(info), i).ptr;
    // 32 bytes is one HKDF block, far under the 255-block limit.
    (void)HkdfExpand(prk, reinterpret_cast<const std::uint8_t*>(info),
                     static_cast<std::size_t>(end - info),
                     keys[static_cast<std::size_t>(i - 1)].bytes.data(), 32);
  }
  return KeyChain(std::move(keys));
}

KeyChain KeyChain::RandomKeys(int num_levels) {
  assert(num_levels >= 1);
  std::vector<AccessKey> keys;
  keys.reserve(static_cast<std::size_t>(num_levels));
  for (int i = 0; i < num_levels; ++i) keys.push_back(AccessKey::Random());
  return KeyChain(std::move(keys));
}

KeyChain KeyChain::FromSeed(std::uint64_t seed, int num_levels) {
  return DeriveFromMaster(AccessKey::FromSeed(seed), num_levels);
}

const AccessKey& KeyChain::LevelKey(int level) const {
  assert(level >= 1 && level <= num_levels());
  return keys_[static_cast<std::size_t>(level - 1)];
}

}  // namespace rcloak::crypto
