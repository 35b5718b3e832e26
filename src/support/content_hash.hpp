#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

/// The InstanceHandle content fingerprint's hash (model/instance_handle.cpp).
/// It is word-wide rather than byte-serial because interning hashes every
/// profile double of every fresh instance; byte-serial FNV-1a (support/fnv.hpp)
/// stays for the SolveCache key and the bench digests, whose values must not
/// change.
namespace malsched {

/// Word-wide content hash (xxHash64-style lanes). Words are dealt
/// round-robin to four independent multiply-rotate lanes, so four multiplies
/// are in flight per group of words instead of one dependent chain per byte,
/// and the lanes are folded with the word count and a final avalanche at the
/// end. Each round is a bijection of its lane for a fixed word and of the
/// word for a fixed lane, the lanes never interact before the fold, and the
/// fold is a bijection of each lane with the others fixed: two streams of
/// equal length that differ in exactly one word always hash apart.
class ContentHasher {
 public:
  void word(std::uint64_t value) {
    auto& lane = lanes_[count_ % kLanes];
    lane = round(lane, value);
    ++count_;
  }

  /// Every double's BIT pattern, in order (0.0 and -0.0 must not alias).
  void doubles(std::span<const double> values) {
    std::size_t i = 0;
    for (; i < values.size() && count_ % kLanes != 0; ++i) word(bits(values[i]));
    // Aligned to lane 0: whole groups feed the four lanes in parallel.
    for (; i + kLanes <= values.size(); i += kLanes) {
      lanes_[0] = round(lanes_[0], bits(values[i]));
      lanes_[1] = round(lanes_[1], bits(values[i + 1]));
      lanes_[2] = round(lanes_[2], bits(values[i + 2]));
      lanes_[3] = round(lanes_[3], bits(values[i + 3]));
      count_ += kLanes;
    }
    for (; i < values.size(); ++i) word(bits(values[i]));
  }

  /// Bytes packed eight to a word, the last word zero-padded; callers mix
  /// the length first, so the padding cannot alias real bytes.
  void bytes(std::string_view text) {
    for (std::size_t at = 0; at < text.size(); at += sizeof(std::uint64_t)) {
      std::uint64_t value = 0;
      std::memcpy(&value, text.data() + at, std::min(sizeof value, text.size() - at));
      word(value);
    }
  }

  [[nodiscard]] std::uint64_t finish() const {
    std::uint64_t hash = std::rotl(lanes_[0], 1) + std::rotl(lanes_[1], 7) +
                         std::rotl(lanes_[2], 12) + std::rotl(lanes_[3], 18) + count_;
    hash ^= hash >> 33;
    hash *= kPrime2;
    hash ^= hash >> 29;
    hash *= kPrime3;
    hash ^= hash >> 32;
    return hash;
  }

 private:
  static constexpr std::size_t kLanes = 4;
  static constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
  static constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
  static constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;

  static std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }
  static std::uint64_t round(std::uint64_t lane, std::uint64_t value) {
    return std::rotl(lane + value * kPrime2, 31) * kPrime1;
  }

  std::array<std::uint64_t, kLanes> lanes_{kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1};
  std::uint64_t count_{0};
};

}  // namespace malsched
