#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define RCLOAK_SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#else
#define RCLOAK_SHA256_X86 0
#endif

namespace rcloak::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

// Checked before any allocation sized by `out_len`.
Status CheckHkdfLength(std::size_t out_len) {
  if (out_len > 255 * Sha256::kDigestSize) {
    return Status::InvalidArgument("HKDF-SHA256 output over 255*32 bytes");
  }
  return Status::Ok();
}

inline std::uint32_t Rotr(std::uint32_t x, int n) noexcept {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

namespace sha256 {

void CompressPortable(std::uint32_t* state,
                      const std::uint8_t* block) noexcept {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
           (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<std::uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if RCLOAK_SHA256_X86

namespace {

// FIPS 180-4 on the SHA extensions (Intel's SHA-NI, AMD Zen): each
// SHA256RNDS2 runs two rounds on the state held as (A,B,E,F) and
// (C,D,G,H) halves, SHA256MSG1/MSG2 extend the message schedule four
// words at a time. Group g runs rounds 4g..4g+3 on schedule words held in
// msg[g % 4]; it finishes the words of group g + 1 (g in 3..14) and starts
// those of group g + 3 (g in 1..12).
__attribute__((target("sha,ssse3,sse4.1"))) void CompressX86Sha(
    std::uint32_t* state, const std::uint8_t* block) noexcept {
  // Big-endian message words to lanes.
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  const __m128i abef_in = _mm_alignr_epi8(cdab, efgh, 8);
  const __m128i cdgh_in = _mm_blend_epi16(efgh, cdab, 0xF0);
  __m128i abef = abef_in;
  __m128i cdgh = cdgh_in;

  __m128i msg[4];
  for (int g = 0; g < 4; ++g) {
    msg[g] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * g)),
        byte_swap);
  }
#pragma GCC unroll 16
  for (int g = 0; g < 16; ++g) {
    __m128i wk = _mm_add_epi32(
        msg[g % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                        kRoundConstants.data() + 4 * g)));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    if (g >= 3 && g <= 14) {
      __m128i& next = msg[(g + 1) % 4];
      next = _mm_add_epi32(
          next, _mm_alignr_epi8(msg[g % 4], msg[(g + 3) % 4], 4));
      next = _mm_sha256msg2_epu32(next, msg[g % 4]);
    }
    wk = _mm_shuffle_epi32(wk, 0x0E);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    if (g >= 1 && g <= 12) {
      msg[(g + 3) % 4] = _mm_sha256msg1_epu32(msg[(g + 3) % 4], msg[g % 4]);
    }
  }
  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

// CPUID: leaf 7 EBX bit 29 (SHA), leaf 1 ECX SSSE3 and SSE4.1.
bool CpuHasShaExtensions() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  if ((ecx & bit_SSSE3) == 0 || (ecx & bit_SSE4_1) == 0) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & bit_SHA) != 0;
}

}  // namespace

Compression AcceleratedCompression() noexcept {
  static const bool present = CpuHasShaExtensions();
  return present ? &CompressX86Sha : nullptr;
}

#else

Compression AcceleratedCompression() noexcept { return nullptr; }

#endif

namespace {

// Picked once: the SHA extensions where present, else the portable code.
Compression ActiveCompression() noexcept {
  static const Compression active =
      AcceleratedCompression() != nullptr ? AcceleratedCompression()
                                          : &CompressPortable;
  return active;
}

}  // namespace

const char* ActiveCompressionName() noexcept {
  return ActiveCompression() == &CompressPortable ? "portable"
                                                  : "x86 SHA extensions";
}

}  // namespace sha256

void Sha256::Reset() noexcept {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  bit_count_ = 0;
  buffer_len_ = 0;
}

void Sha256::ProcessBlock(const std::uint8_t* block) noexcept {
  sha256::ActiveCompression()(state_.data(), block);
}

void Sha256::Update(const std::uint8_t* data, std::size_t len) noexcept {
  bit_count_ += static_cast<std::uint64_t>(len) * 8;
  while (len > 0) {
    const std::size_t take = std::min(len, kBlockSize - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ == kBlockSize) {
      ProcessBlock(buffer_.data());
      buffer_len_ = 0;
    }
  }
}

Sha256::Digest Sha256::Finish() noexcept {
  const std::uint64_t bits = bit_count_;
  // Padding: 0x80, zeros, 64-bit big-endian length. A tail with no room
  // left for the length spills into one more block.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, kBlockSize - buffer_len_);
    ProcessBlock(buffer_.data());
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
  }
  ProcessBlock(buffer_.data());
  buffer_len_ = 0;

  Digest digest{};
  for (int i = 0; i < 8; ++i) {
    digest[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    digest[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return digest;
}

HmacSha256Key::HmacSha256Key(const std::uint8_t* key,
                             std::size_t len) noexcept {
  std::array<std::uint8_t, Sha256::kBlockSize> pad{};
  if (len > Sha256::kBlockSize) {
    Sha256 hasher;
    hasher.Update(key, len);
    const auto digest = hasher.Finish();
    std::memcpy(pad.data(), digest.data(), digest.size());
  } else if (len > 0) {
    std::memcpy(pad.data(), key, len);
  }
  for (auto& b : pad) b ^= 0x36;
  inner_.Update(pad.data(), pad.size());
  for (auto& b : pad) b ^= 0x36 ^ 0x5c;
  outer_.Update(pad.data(), pad.size());
}

Sha256::Digest HmacSha256Key::Finish(Sha256& inner) const noexcept {
  const auto inner_digest = inner.Finish();
  Sha256 outer = outer_;
  outer.Update(inner_digest.data(), inner_digest.size());
  return outer.Finish();
}

Sha256::Digest HmacSha256Key::Mac(const std::uint8_t* data,
                                  std::size_t len) const noexcept {
  Sha256 inner = Begin();
  inner.Update(data, len);
  return Finish(inner);
}

Sha256::Digest HmacSha256(const Bytes& key, const Bytes& message) noexcept {
  return HmacSha256Key(key).Mac(message);
}

HmacSha256Key HkdfExtract(const Bytes& salt, const std::uint8_t* ikm,
                          std::size_t ikm_len) noexcept {
  // The empty salt (KeyChain's) is one fixed key: absorb its pads once.
  static const HmacSha256Key kNoSalt(nullptr, 0);
  const auto prk = salt.empty() ? kNoSalt.Mac(ikm, ikm_len)
                                : HmacSha256Key(salt).Mac(ikm, ikm_len);
  return HmacSha256Key(prk.data(), prk.size());
}

Status HkdfExpand(const HmacSha256Key& prk, const std::uint8_t* info,
                  std::size_t info_len, std::uint8_t* out,
                  std::size_t out_len) {
  RCLOAK_RETURN_IF_ERROR(CheckHkdfLength(out_len));
  Sha256::Digest t{};
  std::size_t done = 0;
  for (std::uint8_t counter = 1; done < out_len; ++counter) {
    Sha256 block = prk.Begin();
    if (done > 0) block.Update(t.data(), t.size());
    block.Update(info, info_len);
    block.Update(&counter, 1);
    t = prk.Finish(block);
    const std::size_t take = std::min(t.size(), out_len - done);
    std::memcpy(out + done, t.data(), take);
    done += take;
  }
  return Status::Ok();
}

StatusOr<Bytes> HkdfSha256(const Bytes& ikm, const Bytes& salt,
                           const Bytes& info, std::size_t out_len) {
  RCLOAK_RETURN_IF_ERROR(CheckHkdfLength(out_len));
  const HmacSha256Key prk = HkdfExtract(salt, ikm.data(), ikm.size());
  Bytes okm(out_len);
  RCLOAK_RETURN_IF_ERROR(
      HkdfExpand(prk, info.data(), info.size(), okm.data(), out_len));
  return okm;
}

bool ConstantTimeEqual(const Bytes& a, const Bytes& b) noexcept {
  if (a.size() != b.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

}  // namespace rcloak::crypto
