#include "crypto/keystore.h"

#include <cstring>
#include <fstream>
#include <random>

#include "crypto/chacha20.h"
#include "crypto/sha256.h"
#include "util/rng.h"

namespace rcloak::crypto {

namespace {

constexpr std::uint8_t kMagic[4] = {'R', 'C', 'K', 'S'};
constexpr std::uint8_t kVersion = 1;
constexpr std::size_t kSaltSize = 16;

struct DerivedKeys {
  std::array<std::uint8_t, ChaCha20::kKeySize> enc_key;
  Bytes mac_key;
};

DerivedKeys DeriveKeys(std::string_view passphrase,
                       const std::uint8_t* salt) {
  Bytes ikm(passphrase.begin(), passphrase.end());
  Bytes salt_bytes(salt, salt + kSaltSize);
  Bytes info{'r', 'c', 'k', 's', '/', 'v', '1'};
  const Bytes okm = HkdfSha256(ikm, salt_bytes, info, 64).value();
  DerivedKeys keys;
  std::memcpy(keys.enc_key.data(), okm.data(), 32);
  keys.mac_key.assign(okm.begin() + 32, okm.end());
  return keys;
}

}  // namespace

Bytes SealKeyChain(const KeyChain& chain, std::string_view passphrase,
                   std::uint64_t salt_seed) {
  Bytes out(kMagic, kMagic + 4);
  out.push_back(kVersion);

  std::uint8_t salt[kSaltSize];
  std::array<std::uint8_t, ChaCha20::kNonceSize> nonce{};
  if (salt_seed != 0) {
    SplitMix64 sm(salt_seed);
    for (std::size_t i = 0; i < kSaltSize; i += 8) {
      const std::uint64_t word = sm.Next();
      std::memcpy(salt + i, &word, 8);
    }
    const std::uint64_t n0 = sm.Next();
    std::memcpy(nonce.data(), &n0, 8);
    const std::uint32_t n1 = static_cast<std::uint32_t>(sm.Next());
    std::memcpy(nonce.data() + 8, &n1, 4);
  } else {
    std::random_device rd;
    for (std::size_t i = 0; i < kSaltSize; i += 4) {
      const std::uint32_t word = rd();
      std::memcpy(salt + i, &word, 4);
    }
    for (std::size_t i = 0; i < nonce.size(); i += 4) {
      const std::uint32_t word = rd();
      std::memcpy(nonce.data() + i, &word, 4);
    }
  }
  out.insert(out.end(), salt, salt + kSaltSize);
  out.insert(out.end(), nonce.begin(), nonce.end());

  PutVarint(out, static_cast<std::uint64_t>(chain.num_levels()));
  Bytes plaintext;
  plaintext.reserve(static_cast<std::size_t>(chain.num_levels()) * 32);
  for (int level = 1; level <= chain.num_levels(); ++level) {
    const auto& key = chain.LevelKey(level);
    plaintext.insert(plaintext.end(), key.bytes.begin(), key.bytes.end());
  }
  const DerivedKeys derived = DeriveKeys(passphrase, salt);
  ChaCha20::XorStream(derived.enc_key, nonce, 1, plaintext);
  out.insert(out.end(), plaintext.begin(), plaintext.end());

  const auto tag = HmacSha256(derived.mac_key, out);
  out.insert(out.end(), tag.begin(), tag.end());
  return out;
}

StatusOr<KeyChain> OpenKeyChain(const Bytes& sealed,
                                std::string_view passphrase) {
  constexpr std::size_t kHeader = 4 + 1 + kSaltSize + ChaCha20::kNonceSize;
  if (sealed.size() < kHeader + 1 + Sha256::kDigestSize) {
    return Status::DataLoss("keystore: truncated");
  }
  if (std::memcmp(sealed.data(), kMagic, 4) != 0 || sealed[4] != kVersion) {
    return Status::DataLoss("keystore: bad magic/version");
  }
  const std::uint8_t* salt = sealed.data() + 5;
  std::array<std::uint8_t, ChaCha20::kNonceSize> nonce{};
  std::memcpy(nonce.data(), sealed.data() + 5 + kSaltSize, nonce.size());

  const DerivedKeys derived = DeriveKeys(passphrase, salt);
  // Verify MAC over everything but the tag.
  const Bytes body(sealed.begin(),
                   sealed.end() - static_cast<long>(Sha256::kDigestSize));
  const auto expected_tag = HmacSha256(derived.mac_key, body);
  const Bytes actual_tag(sealed.end() - static_cast<long>(Sha256::kDigestSize),
                         sealed.end());
  if (!ConstantTimeEqual(Bytes(expected_tag.begin(), expected_tag.end()),
                         actual_tag)) {
    return Status::DataLoss(
        "keystore: authentication failed (wrong passphrase or tampering)");
  }

  std::size_t off = kHeader;
  const auto num_keys = GetVarint(sealed, &off);
  if (!num_keys || *num_keys == 0 || *num_keys > 64) {
    return Status::DataLoss("keystore: bad key count");
  }
  const std::size_t ct_len = static_cast<std::size_t>(*num_keys) * 32;
  if (off + ct_len + Sha256::kDigestSize != sealed.size()) {
    return Status::DataLoss("keystore: length mismatch");
  }
  Bytes plaintext(sealed.begin() + static_cast<long>(off),
                  sealed.begin() + static_cast<long>(off + ct_len));
  ChaCha20::XorStream(derived.enc_key, nonce, 1, plaintext);

  std::vector<AccessKey> keys(static_cast<std::size_t>(*num_keys));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    std::memcpy(keys[i].bytes.data(), plaintext.data() + i * 32, 32);
  }
  return KeyChain::FromKeys(std::move(keys));
}

Status SaveKeyChainFile(const std::string& path, const KeyChain& chain,
                        std::string_view passphrase) {
  const Bytes sealed = SealKeyChain(chain, passphrase);
  std::ofstream os(path, std::ios::binary);
  if (!os) return Status::NotFound("cannot open for write: " + path);
  os.write(reinterpret_cast<const char*>(sealed.data()),
           static_cast<std::streamsize>(sealed.size()));
  return os.good() ? Status::Ok() : Status::DataLoss("write failed: " + path);
}

StatusOr<KeyChain> LoadKeyChainFile(const std::string& path,
                                    std::string_view passphrase) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::NotFound("cannot open: " + path);
  Bytes sealed((std::istreambuf_iterator<char>(is)),
               std::istreambuf_iterator<char>());
  return OpenKeyChain(sealed, passphrase);
}

}  // namespace rcloak::crypto
