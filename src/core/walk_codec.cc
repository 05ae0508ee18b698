#include "core/walk_codec.h"

#include <algorithm>

namespace rcloak::core {

Bytes PackStepBits(const std::vector<bool>& added_bits,
                   const crypto::KeyedPrng& meta_prng) {
  const std::size_t packed = (added_bits.size() + 7) / 8;
  const std::size_t padded = ((packed + 15) / 16) * 16;
  Bytes out(std::max<std::size_t>(padded, 16), 0);
  for (std::size_t i = 0; i < added_bits.size(); ++i) {
    if (added_bits[i]) {
      out[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
    }
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] ^= static_cast<std::uint8_t>(meta_prng.Draw(i) & 0xFF);
  }
  return out;
}

StatusOr<Bytes> UnblindStepBits(const Bytes& step_bits_blinded,
                                const crypto::KeyedPrng& meta_prng,
                                std::uint32_t walk_len, const char* what) {
  const std::size_t needed = (static_cast<std::size_t>(walk_len) + 7) / 8;
  if (needed > step_bits_blinded.size()) {
    return Status::DataLoss(
        std::string(what) +
        " de-anonymize: walk length exceeds step-bit payload (wrong key or "
        "corrupt artifact)");
  }
  Bytes bits = step_bits_blinded;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    bits[i] ^= static_cast<std::uint8_t>(meta_prng.Draw(i) & 0xFF);
  }
  return bits;
}

template <typename Node>
Status WalkTables<Node>::ValidatePairing() const {
  const std::size_t count = node_count();
  for (std::size_t n = 0; n < count; ++n) {
    for (std::uint32_t j = 0; j < t_; ++j) {
      const auto target = static_cast<std::size_t>(ft_[n * t_ + j]);
      if (target >= count ||
          static_cast<std::size_t>(bt_[target * t_ + j]) != n) {
        return Status::Internal("FT/BT pairing violated at node " +
                                std::to_string(n) + " slot " +
                                std::to_string(j));
      }
    }
  }
  return Status::Ok();
}

template class WalkTables<SegmentId>;
template class WalkTables<std::uint32_t>;

}  // namespace rcloak::core
