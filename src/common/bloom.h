#pragma once
// Bloom filter with a string wire format.
//
// The paper's related work (§V, ref [30] — ParaMEDIC) reports that using
// "the reduce phase as a bloom filter enabled large scale": shipping a
// constant-size membership filter instead of full result sets, with
// positives re-checked locally. This filter backs the grep_bloom app: it
// serializes to a printable string so it can travel as an ordinary
// MapReduce value, and filters merge by bitwise OR.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace vcmr::common {

class BloomFilter {
 public:
  /// `bits` is rounded up to a multiple of 64; `hashes` in [1, 16].
  explicit BloomFilter(std::size_t bits = 8192, int hashes = 4);

  void add(std::string_view item);
  /// False means definitely absent; true means probably present.
  bool maybe_contains(std::string_view item) const;

  /// Bitwise OR; both filters must share bits/hashes geometry.
  void merge(const BloomFilter& other);

  std::size_t bit_count() const { return words_.size() * 64; }
  /// Fraction of bits set (saturation indicator).
  double fill_ratio() const;
  /// Expected false-positive rate at the current fill.
  double false_positive_rate() const;

  /// Printable encoding "bloom:<bits>:<hashes>:<hex words>"; parse() throws
  /// vcmr::Error on malformed input.
  std::string serialize() const;
  static BloomFilter parse(std::string_view encoded);

  friend bool operator==(const BloomFilter&, const BloomFilter&) = default;

 private:
  /// Double hashing: g_i(x) = h1(x) + i*h2(x), the standard construction.
  std::pair<std::uint64_t, std::uint64_t> base_hashes(
      std::string_view item) const;

  std::vector<std::uint64_t> words_;
  int hashes_;
};

}  // namespace vcmr::common
