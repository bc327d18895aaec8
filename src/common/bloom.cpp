#include "common/bloom.h"

#include <cmath>

#include "common/error.h"
#include "common/hash.h"
#include "common/strings.h"

namespace vcmr::common {

BloomFilter::BloomFilter(std::size_t bits, int hashes)
    : words_((bits + 63) / 64, 0), hashes_(hashes) {
  require(bits >= 64, "BloomFilter: need at least 64 bits");
  require(hashes >= 1 && hashes <= 16, "BloomFilter: hashes in [1,16]");
}

std::pair<std::uint64_t, std::uint64_t> BloomFilter::base_hashes(
    std::string_view item) const {
  const Digest128 d = Hasher::of(item);
  // h2 must be odd so the probe sequence covers the table.
  return {d.hi, d.lo | 1};
}

void BloomFilter::add(std::string_view item) {
  const auto [h1, h2] = base_hashes(item);
  const std::uint64_t m = words_.size() * 64;
  for (int i = 0; i < hashes_; ++i) {
    const std::uint64_t bit = (h1 + static_cast<std::uint64_t>(i) * h2) % m;
    words_[bit / 64] |= 1ULL << (bit % 64);
  }
}

bool BloomFilter::maybe_contains(std::string_view item) const {
  const auto [h1, h2] = base_hashes(item);
  const std::uint64_t m = words_.size() * 64;
  for (int i = 0; i < hashes_; ++i) {
    const std::uint64_t bit = (h1 + static_cast<std::uint64_t>(i) * h2) % m;
    if ((words_[bit / 64] & (1ULL << (bit % 64))) == 0) return false;
  }
  return true;
}

void BloomFilter::merge(const BloomFilter& other) {
  require(words_.size() == other.words_.size() && hashes_ == other.hashes_,
          "BloomFilter::merge: geometry mismatch");
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

double BloomFilter::fill_ratio() const {
  std::size_t set = 0;
  for (const std::uint64_t w : words_) {
    set += static_cast<std::size_t>(__builtin_popcountll(w));
  }
  return static_cast<double>(set) / static_cast<double>(bit_count());
}

double BloomFilter::false_positive_rate() const {
  return std::pow(fill_ratio(), hashes_);
}

std::string BloomFilter::serialize() const {
  std::string out = "bloom:" + std::to_string(bit_count()) + ":" +
                    std::to_string(hashes_) + ":";
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t pos = out.size();
  out.resize(pos + words_.size() * 16);
  for (const std::uint64_t w : words_) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      out[pos++] = kHex[(w >> shift) & 0xf];
    }
  }
  return out;
}

BloomFilter BloomFilter::parse(std::string_view encoded) {
  const auto parts = split(encoded, ':');
  require(parts.size() == 4 && parts[0] == "bloom",
          "BloomFilter::parse: bad header");
  std::int64_t bits = 0, hashes = 0;
  require(parse_i64(parts[1], &bits) && parse_i64(parts[2], &hashes),
          "BloomFilter::parse: bad geometry");
  BloomFilter f(static_cast<std::size_t>(bits), static_cast<int>(hashes));
  const std::string& hex = parts[3];
  require(hex.size() == f.words_.size() * 16,
          "BloomFilter::parse: payload length mismatch");
  for (std::size_t i = 0; i < f.words_.size(); ++i) {
    std::uint64_t w = 0;
    for (int k = 0; k < 16; ++k) {
      const char c = hex[i * 16 + static_cast<std::size_t>(k)];
      std::uint64_t nibble = 0;
      if (c >= '0' && c <= '9') {
        nibble = static_cast<std::uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        nibble = static_cast<std::uint64_t>(c - 'a' + 10);
      } else {
        throw Error("BloomFilter::parse: non-hex payload");
      }
      w = (w << 4) | nibble;
    }
    f.words_[i] = w;
  }
  return f;
}

}  // namespace vcmr::common
