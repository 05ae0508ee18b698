// Known-answer and property tests for the from-scratch crypto substrate.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <random>
#include <set>
#include <string>
#include <utility>

#include "crypto/chacha20.h"
#include "crypto/keyed_prng.h"
#include "crypto/sha256.h"
#include "crypto/siphash.h"
#include "net/net_server.h"
#include "util/bytes.h"

namespace rcloak::crypto {
namespace {

std::string DigestHex(const Sha256::Digest& digest) {
  return ToHex(Bytes(digest.begin(), digest.end()));
}

// ---------------------------------------------------------------- SHA-256
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(DigestHex(Sha256::Hash(std::string_view{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(DigestHex(Sha256::Hash(std::string_view{"abc"})),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(DigestHex(Sha256::Hash(std::string_view{
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"})),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionA) {
  Sha256 hasher;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.Update(chunk);
  EXPECT_EQ(DigestHex(hasher.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalEqualsOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 hasher;
    hasher.Update(std::string_view(msg).substr(0, split));
    hasher.Update(std::string_view(msg).substr(split));
    EXPECT_EQ(DigestHex(hasher.Finish()),
              DigestHex(Sha256::Hash(std::string_view(msg))))
        << "split at " << split;
  }
}

// Messages that end on each side of the padding split: 55 bytes is the
// longest that leaves room for 0x80 and the length in one block, 56..63
// force a second padding block, 64/119/120 land on or past a block edge.
// Each message is hashed in one shot and fed one byte per Update.
TEST(Sha256Test, PaddingBoundaries) {
  const std::pair<std::size_t, const char*> kPinned[] = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {55, "595615dbe4f0f407ae397d08b4c2cb870cb9b0e11937416f950c5160acf9c005"},
      {56, "784f623b787495078e93ff28a25b581df0584055a7e71d8cd90c454716b92f51"},
      {57, "808f0738aa4401bdee842e5a15a7baad5809f976d8eb6f9bd2683cebd2e8d671"},
      {63, "5ca3e1ef5207490eac01a795e5cc94d59582a5118bf9534665c8668d87aa647c"},
      {64, "2fcd5a0d60e4c941381fcc4e00a4bf8be422c3ddfafb93c809e8d1e2bfffae8e"},
      {65, "1b3cd1877ab2f2f19f7be001722554f336cb799df0329de0bb4c118dc6abc06d"},
      {119,
       "faef67da856d6fd9c8d12f9ed0a4fefd3cf0ce085ab43e2907418d457e3c354b"},
      {120,
       "c9512b08619c19fbb503c7da6b46ef20301e5f7a7a5f43989182398536f5c5c8"},
  };
  for (const auto& [len, hex] : kPinned) {
    std::string msg;
    for (std::size_t i = 0; i < len; ++i) msg.push_back('a' + i % 26);
    EXPECT_EQ(DigestHex(Sha256::Hash(std::string_view(msg))), hex)
        << len << " bytes";
    Sha256 incremental;
    for (const char c : msg) incremental.Update(std::string_view(&c, 1));
    EXPECT_EQ(DigestHex(incremental.Finish()), hex) << len << " bytes";
  }
}

// The two compressions are one function: seeded random states and blocks,
// plus the all-zero and all-one corners, give the same state out of both.
// Sha256 runs the accelerated one wherever the CPU has it, so the vectors
// in this file check the path that runs here; the log names it.
TEST(Sha256Test, AcceleratedCompressionMatchesPortable) {
  std::printf("SHA-256 compression: %s\n", sha256::ActiveCompressionName());
  const sha256::Compression accelerated = sha256::AcceleratedCompression();
  if (accelerated == nullptr) {
    GTEST_SKIP() << "no SHA extensions on this CPU: only the portable "
                    "compression runs";
  }
  std::mt19937_64 rng(0x5a256);
  constexpr int kPairs = 100000;
  int mismatches = 0;
  for (int pair = 0; pair < kPairs + 2; ++pair) {
    std::array<std::uint32_t, 8> state{};
    std::array<std::uint8_t, 64> block{};
    if (pair < kPairs) {
      for (auto& word : state) word = static_cast<std::uint32_t>(rng());
      for (auto& byte : block) byte = static_cast<std::uint8_t>(rng());
    } else if (pair == kPairs + 1) {
      state.fill(0xffffffffu);
      block.fill(0xff);
    }
    auto portable = state;
    auto fast = state;
    sha256::CompressPortable(portable.data(), block.data());
    accelerated(fast.data(), block.data());
    if (portable != fast && ++mismatches <= 3) {
      ADD_FAILURE() << "compressions differ on pair " << pair;
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << kPairs + 2 << " pairs";
}

// RFC 4231 test case 2.
TEST(HmacTest, Rfc4231Case2) {
  const Bytes key = {'J', 'e', 'f', 'e'};
  const std::string msg = "what do ya want for nothing?";
  const Bytes message(msg.begin(), msg.end());
  EXPECT_EQ(DigestHex(HmacSha256(key, message)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 1.
TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const std::string msg = "Hi There";
  const Bytes message(msg.begin(), msg.end());
  EXPECT_EQ(DigestHex(HmacSha256(key, message)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 6: a key longer than the block is hashed first.
TEST(HmacTest, Rfc4231Case6) {
  const Bytes key(131, 0xaa);
  const std::string msg =
      "Test Using Larger Than Block-Size Key - Hash Key First";
  const Bytes message(msg.begin(), msg.end());
  EXPECT_EQ(DigestHex(HmacSha256(key, message)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// RFC 5869 test case 1.
TEST(HkdfTest, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const auto salt = FromHex("000102030405060708090a0b0c").value();
  const auto info = FromHex("f0f1f2f3f4f5f6f7f8f9").value();
  const Bytes okm = HkdfSha256(ikm, salt, info, 42).value();
  EXPECT_EQ(ToHex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

// RFC 5869 test case 3: empty salt and info, the shape
// KeyChain::DeriveFromMaster uses.
TEST(HkdfTest, Rfc5869Case3) {
  const Bytes ikm(22, 0x0b);
  const Bytes okm = HkdfSha256(ikm, {}, {}, 42).value();
  EXPECT_EQ(ToHex(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(HkdfTest, DifferentInfoDifferentKeys) {
  const Bytes ikm(32, 0x42);
  const Bytes a = HkdfSha256(ikm, {}, {'a'}, 32).value();
  const Bytes b = HkdfSha256(ikm, {}, {'b'}, 32).value();
  EXPECT_NE(ToHex(a), ToHex(b));
}

// The block counter is one byte: past 255 blocks it would wrap and repeat
// T(1) under a different chain, which is not RFC 5869 output.
TEST(HkdfTest, RejectsOutputPastTheCounterLimit) {
  const Bytes ikm(32, 0x42);
  constexpr std::size_t kMax = 255 * Sha256::kDigestSize;
  const auto longest = HkdfSha256(ikm, {}, {'i'}, kMax);
  ASSERT_TRUE(longest.ok());
  EXPECT_EQ(longest->size(), kMax);
  // The longest output extends every shorter one.
  EXPECT_EQ(Bytes(longest->begin(), longest->begin() + 42),
            HkdfSha256(ikm, {}, {'i'}, 42).value());

  const auto too_long = HkdfSha256(ikm, {}, {'i'}, kMax + 1);
  EXPECT_EQ(too_long.status().code(), ErrorCode::kInvalidArgument);

  const HmacSha256Key prk = HkdfExtract({}, ikm.data(), ikm.size());
  Bytes out(kMax + 1, 0);
  EXPECT_EQ(HkdfExpand(prk, nullptr, 0, out.data(), out.size()).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(out, Bytes(kMax + 1, 0)) << "a rejected expand writes nothing";
}

// The cached-key MAC equals keying afresh, for every key-length branch
// (empty, short, exactly one block, hashed) and for a message fed in parts.
TEST(HmacTest, CachedKeyMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  const Bytes message(msg.begin(), msg.end());
  for (const std::size_t key_len : {0u, 20u, 64u, 65u, 131u}) {
    const Bytes key(key_len, 0x5a);
    const HmacSha256Key cached(key);
    const auto expected = DigestHex(HmacSha256(key, message));
    EXPECT_EQ(DigestHex(cached.Mac(message)), expected) << key_len;
    EXPECT_EQ(DigestHex(cached.Mac(message)), expected) << key_len;
    Sha256 parts = cached.Begin();
    parts.Update(std::string_view(msg).substr(0, 7));
    parts.Update(std::string_view(msg).substr(7));
    EXPECT_EQ(DigestHex(cached.Finish(parts)), expected) << key_len;
  }
}

TEST(ConstantTimeEqualTest, Basics) {
  EXPECT_TRUE(ConstantTimeEqual({1, 2, 3}, {1, 2, 3}));
  EXPECT_FALSE(ConstantTimeEqual({1, 2, 3}, {1, 2, 4}));
  EXPECT_FALSE(ConstantTimeEqual({1, 2, 3}, {1, 2}));
  EXPECT_TRUE(ConstantTimeEqual({}, {}));
}

// --------------------------------------------------------------- ChaCha20
// RFC 8439 §2.3.2 block function test vector.
TEST(ChaCha20Test, Rfc8439BlockVector) {
  std::array<std::uint8_t, 32> key{};
  for (int i = 0; i < 32; ++i) key[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(i);
  std::array<std::uint8_t, 12> nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                                        0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const auto block = ChaCha20::Block(key, nonce, 1);
  const Bytes got(block.begin(), block.end());
  EXPECT_EQ(ToHex(got),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20Test, XorStreamRoundTrip) {
  std::array<std::uint8_t, 32> key{};
  key[0] = 0xAA;
  std::array<std::uint8_t, 12> nonce{};
  nonce[11] = 0x01;
  Bytes data;
  for (int i = 0; i < 300; ++i) data.push_back(static_cast<std::uint8_t>(i));
  const Bytes original = data;
  ChaCha20::XorStream(key, nonce, 7, data);
  EXPECT_NE(data, original);
  ChaCha20::XorStream(key, nonce, 7, data);
  EXPECT_EQ(data, original);
}

// ---------------------------------------------------------------- SipHash
// Reference vectors from the SipHash paper (key 000102..0f, messages
// 00,01,02...).
TEST(SipHashTest, ReferenceVectors) {
  SipKey key;
  for (int i = 0; i < 16; ++i) key[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(i);
  const std::uint64_t expected[] = {
      0x726fdb47dd0e0e31ULL, 0x74f839c593dc67fdULL, 0x0d6c8009d9a94f5aULL,
      0x85676696d7fb7e2dULL, 0xcf2794e0277187b7ULL, 0x18765564cd99a68dULL,
      0xcbc9466e58fee3ceULL, 0xab0200f58b01d137ULL};
  Bytes msg;
  for (std::size_t len = 0; len < 8; ++len) {
    EXPECT_EQ(SipHash24(key, msg), expected[len]) << "len " << len;
    msg.push_back(static_cast<std::uint8_t>(len));
  }
}

// -------------------------------------------------------------- KeyedPrng
TEST(KeyedPrngTest, DeterministicAndRandomAccess) {
  const AccessKey key = AccessKey::FromSeed(1234);
  const KeyedPrng a(key, "ctx");
  const KeyedPrng b(key, "ctx");
  for (std::uint64_t i : {0ULL, 1ULL, 7ULL, 8ULL, 9ULL, 1000ULL, 5ULL}) {
    EXPECT_EQ(a.Draw(i), b.Draw(i)) << i;
  }
  // Out-of-order access equals in-order access.
  const std::uint64_t late = a.Draw(100);
  const std::uint64_t early = a.Draw(3);
  EXPECT_EQ(late, b.Draw(100));
  EXPECT_EQ(early, b.Draw(3));
}

TEST(KeyedPrngTest, ContextSeparation) {
  const AccessKey key = AccessKey::FromSeed(1);
  const KeyedPrng a(key, "request-1");
  const KeyedPrng b(key, "request-2");
  int differing = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    if (a.Draw(i) != b.Draw(i)) ++differing;
  }
  EXPECT_GE(differing, 60);
}

TEST(KeyedPrngTest, KeySeparation) {
  const KeyedPrng a(AccessKey::FromSeed(1), "ctx");
  const KeyedPrng b(AccessKey::FromSeed(2), "ctx");
  int differing = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    if (a.Draw(i) != b.Draw(i)) ++differing;
  }
  EXPECT_GE(differing, 60);
}

TEST(KeyedPrngTest, DrawModInRange) {
  const KeyedPrng prng(AccessKey::FromSeed(9), "ctx");
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 255ULL}) {
    for (std::uint64_t i = 0; i < 50; ++i) {
      EXPECT_LT(prng.DrawMod(i, bound), bound);
    }
  }
}

TEST(KeyedPrngTest, PrfLabelSeparation) {
  const KeyedPrng prng(AccessKey::FromSeed(5), "ctx");
  EXPECT_NE(prng.Prf("seal"), prng.Prf("walklen"));
  EXPECT_EQ(prng.Prf("seal"), prng.Prf("seal"));
}

TEST(KeyedPrngTest, PrfDependsOnKey) {
  // Regression: the seal-blinding PRF must be uncomputable without the
  // access key (an earlier draft derived it from the context alone).
  const KeyedPrng a(AccessKey::FromSeed(1), "ctx");
  const KeyedPrng b(AccessKey::FromSeed(2), "ctx");
  EXPECT_NE(a.Prf("seal"), b.Prf("seal"));
  EXPECT_NE(a.Prf("walklen"), b.Prf("walklen"));
}

TEST(KeyedPrngTest, RoughUniformityOfLowBits) {
  const KeyedPrng prng(AccessKey::FromSeed(77), "ctx");
  int ones = 0;
  const int n = 4096;
  for (int i = 0; i < n; ++i) {
    ones += static_cast<int>(prng.Draw(static_cast<std::uint64_t>(i)) & 1);
  }
  EXPECT_GT(ones, n / 2 - 200);
  EXPECT_LT(ones, n / 2 + 200);
}

// --------------------------------------------------------------- AccessKey
TEST(AccessKeyTest, HexRoundTrip) {
  const AccessKey key = AccessKey::FromSeed(42);
  const auto parsed = AccessKey::FromHex(key.ToHex());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, key);
}

TEST(AccessKeyTest, FromHexRejectsBadInput) {
  EXPECT_FALSE(AccessKey::FromHex("deadbeef").has_value());  // too short
  EXPECT_FALSE(AccessKey::FromHex(std::string(63, 'a')).has_value());
  EXPECT_FALSE(AccessKey::FromHex(std::string(64, 'z')).has_value());
}

TEST(AccessKeyTest, RandomKeysDiffer) {
  EXPECT_NE(AccessKey::Random(), AccessKey::Random());
}

// ---------------------------------------------------------------- KeyChain
TEST(KeyChainTest, DerivedKeysAreDistinctAndStable) {
  const auto master = AccessKey::FromSeed(7);
  const KeyChain chain_a = KeyChain::DeriveFromMaster(master, 4);
  const KeyChain chain_b = KeyChain::DeriveFromMaster(master, 4);
  ASSERT_EQ(chain_a.num_levels(), 4);
  std::set<std::string> seen;
  for (int level = 1; level <= 4; ++level) {
    EXPECT_EQ(chain_a.LevelKey(level), chain_b.LevelKey(level));
    seen.insert(chain_a.LevelKey(level).ToHex());
  }
  EXPECT_EQ(seen.size(), 4u);
}

// Golden artifacts, wire pins and every user's per-epoch chain depend on
// these level-key bytes.
TEST(KeyChainTest, FromSeedMatchesPinnedBytes) {
  const std::pair<std::uint64_t, std::array<const char*, 3>> kPinned[] = {
      {0,
       {"5ce0d043d1bef31fb7e6022050cfed2d266b25bf9916deaeb16a162e24be02b0",
        "4d1b6ae2ec128c0e0a8698c7a233ab172721daf8fcd863415c94d9564b0669a1",
        "c2f2700216dcfea8b2a69c6516f48b5101ccf30358b22e04f1de8479e51371d2"}},
      {1,
       {"aeddfa9476f6f1da087764f3a1b28c29e5d7d5c4de021c520b55d70717bc9abf",
        "e6182fa23e9bf062041b4416729b04ddb0ff1fc0cbd95b2651dda196f074119a",
        "60b18cc3b5960d16acbbc5b71ec948bfaf27a5f4083950fba527fc9523abe9a8"}},
      {42,
       {"68f7488ecf642a0e9c870d0ccaa989d8fb026f424268cccbe8b8282c0b1076c2",
        "202a09e6358fdbca7b98200d383459ef2e790ad267ccd738e13b57a4f601102f",
        "f2a2b64ba098b2c9bb67338dcd28c39013990fe3130667fddd272090e13fdc17"}},
      {0xdeadbeefcafef00dull,
       {"200366a15a6f564ed8af439902e11ee918e57cda4c4c4a65ced8bcb4e5dd61f5",
        "12b5418514a6d0dd9465cbcbdc0e28f656b03d2bdeac9033a0d8b617eb304e81",
        "6503a6ba2313aac06959d4eae22fdb8f42f70bfc136221c53b59f055b3630adf"}},
  };
  for (const auto& [seed, hex] : kPinned) {
    const KeyChain chain = KeyChain::FromSeed(seed, 3);
    ASSERT_EQ(chain.num_levels(), 3);
    for (int level = 1; level <= 3; ++level) {
      EXPECT_EQ(chain.LevelKey(level).ToHex(), hex[level - 1])
          << "seed " << seed << " level " << level;
    }
  }

  // The front door's per-user schedule (rcloak_tool's seed base).
  const std::array<const char*, 2> kUser17[] = {
      {"e289445032729b95227294473e70c7c30161282afbc3963f51cf882e858d508e",
       "1bcea0acab71361ef8ea4e439baeccbf3e4994b2fea62903bc9a35f93d9f7710"},
      {"297fd5e8438070552e75ad59cb742bb0b18324934b4e3f84b9bf60bc3ff8956f",
       "a21df3219d8dea8fe3ee95abacd93b9c628f531a86d12554f35bf330161546b6"},
      {"b3caf9f85e6448efea6f2534c0e45d411ff556c6050dcdbf3de29a11e2b95054",
       "de00f162a093bef154d44b3765693fbff3a7d0ec31657091135cda0be27d2bc6"},
      {"f29385aa4b1d321d6b3b3de73b5e5a8490de55b9b98678df526098dfc19ffe62",
       "cf79608ebba1a28189ec0c441c1b126d068f571b96b14bb7e2cd8fb3da644bf9"},
  };
  const auto provider = net::DeterministicKeyProvider(50000, "u17", 2);
  for (std::uint64_t epoch = 0; epoch < 4; ++epoch) {
    const KeyChain chain = provider(epoch);
    ASSERT_EQ(chain.num_levels(), 2);
    EXPECT_EQ(chain.LevelKey(1).ToHex(), kUser17[epoch][0]) << epoch;
    EXPECT_EQ(chain.LevelKey(2).ToHex(), kUser17[epoch][1]) << epoch;
  }
}

TEST(KeyChainTest, RandomChainsDiffer) {
  const KeyChain a = KeyChain::RandomKeys(2);
  const KeyChain b = KeyChain::RandomKeys(2);
  EXPECT_NE(a.LevelKey(1), b.LevelKey(1));
}

}  // namespace
}  // namespace rcloak::crypto
