// Tests for the Bloom filter and the ParaMEDIC-style grep_bloom app.

#include <gtest/gtest.h>

#include "common/bloom.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "mr/apps.h"
#include "mr/dataset.h"
#include "mr/local_runtime.h"

namespace vcmr {
namespace {

using common::BloomFilter;

TEST(Bloom, NoFalseNegatives) {
  BloomFilter f(4096, 4);
  std::vector<std::string> items;
  for (int i = 0; i < 200; ++i) items.push_back("item" + std::to_string(i));
  for (const auto& it : items) f.add(it);
  for (const auto& it : items) {
    EXPECT_TRUE(f.maybe_contains(it)) << it;
  }
}

TEST(Bloom, FalsePositiveRateReasonable) {
  BloomFilter f(8192, 4);
  for (int i = 0; i < 400; ++i) f.add("member" + std::to_string(i));
  int fp = 0;
  const int probes = 10000;
  for (int i = 0; i < probes; ++i) {
    if (f.maybe_contains("absent" + std::to_string(i))) ++fp;
  }
  const double rate = static_cast<double>(fp) / probes;
  // 400 items in 8192 bits with 4 hashes: expected fp ~2%; allow slack.
  EXPECT_LT(rate, 0.06);
  EXPECT_NEAR(rate, f.false_positive_rate(), 0.03);
}

TEST(Bloom, EmptyContainsNothing) {
  const BloomFilter f(1024, 3);
  EXPECT_FALSE(f.maybe_contains("anything"));
  EXPECT_EQ(f.fill_ratio(), 0.0);
}

TEST(Bloom, SerializeParseRoundTrip) {
  BloomFilter f(2048, 5);
  f.add("alpha");
  f.add("beta");
  const BloomFilter back = BloomFilter::parse(f.serialize());
  EXPECT_EQ(back, f);
  EXPECT_TRUE(back.maybe_contains("alpha"));
  EXPECT_FALSE(back.maybe_contains("gamma"));
}

TEST(Bloom, SerializeIsLowercaseZeroPaddedHex) {
  // Words 0, top nibble only, every nibble value, a small value, and ~0:
  // each word is 16 lowercase hex digits, most significant first.
  const std::string wire =
      "bloom:320:3:"
      "0000000000000000"
      "f000000000000000"
      "0123456789abcdef"
      "000000000000000a"
      "ffffffffffffffff";
  EXPECT_EQ(BloomFilter::parse(wire).serialize(), wire);

  BloomFilter f(128, 2);
  f.add("x");
  f.add("y");
  EXPECT_EQ(f.serialize(), "bloom:128:2:0000a000004000000000000004000000");
}

TEST(Bloom, ParseRejectsGarbage) {
  EXPECT_THROW(BloomFilter::parse("nonsense"), Error);
  EXPECT_THROW(BloomFilter::parse("bloom:128:4:zz"), Error);
  EXPECT_THROW(BloomFilter::parse("bloom:128:4:00"), Error);  // short payload
}

TEST(Bloom, MergeIsUnion) {
  BloomFilter a(1024, 3), b(1024, 3);
  a.add("only-a");
  b.add("only-b");
  a.merge(b);
  EXPECT_TRUE(a.maybe_contains("only-a"));
  EXPECT_TRUE(a.maybe_contains("only-b"));
}

TEST(Bloom, MergeGeometryMismatchThrows) {
  BloomFilter a(1024, 3), b(2048, 3), c(1024, 4);
  EXPECT_THROW(a.merge(b), Error);
  EXPECT_THROW(a.merge(c), Error);
}

TEST(GrepBloom, EndToEndMembership) {
  // Build a corpus, run grep_bloom through the local runtime, then probe
  // the merged filter: every matching line is contained (no false
  // negatives); most non-matching lines are not.
  common::RngStreamFactory seeds(55);
  common::Rng rng = seeds.stream("corpus");
  const std::string text = mr::ZipfCorpus().generate(60000, rng);

  mr::GrepBloomApp app("badi");
  const mr::LocalJobResult res = mr::run_local(app, text, {4, 1, 2, true});
  ASSERT_EQ(res.output.size(), 1u);
  const BloomFilter merged = BloomFilter::parse(res.output[0].value);

  // Probe lines exactly as the mappers saw them: the splitter cuts at word
  // boundaries, so a source line may straddle two chunks.
  int matching = 0, absent_hits = 0, absent = 0;
  for (const auto& chunk : mr::split_text(text, 4)) {
    const auto body = chunk.substr(chunk.find('\n') + 1);
    for (const auto& line : common::split(body, '\n')) {
      if (line.empty()) continue;
      if (line.find("badi") != std::string::npos) {
        ++matching;
        EXPECT_TRUE(merged.maybe_contains(line)) << line;
      } else {
        ++absent;
        if (merged.maybe_contains(line)) ++absent_hits;
      }
    }
  }
  ASSERT_GT(matching, 5);
  ASSERT_GT(absent, 100);
  // The ParaMEDIC property: probing is sound and mostly precise.
  EXPECT_LT(static_cast<double>(absent_hits) / absent, 0.1);
}

TEST(GrepBloom, IntermediateVolumeIsConstant) {
  // The point of the trick: intermediate data does not grow with matches.
  common::RngStreamFactory seeds(56);
  common::Rng rng = seeds.stream("corpus");
  const std::string small = mr::ZipfCorpus().generate(30000, rng);
  common::Rng rng2 = seeds.stream("corpus2");
  const std::string big = mr::ZipfCorpus().generate(300000, rng2);

  mr::GrepBloomApp app("ce");  // very common token: many matches
  const auto r_small = mr::run_local(app, small, {4, 1, 2, true});
  const auto r_big = mr::run_local(app, big, {4, 1, 2, true});
  // 10x the matches, same intermediate volume (4 fixed-size filters).
  EXPECT_EQ(r_small.intermediate_bytes, r_big.intermediate_bytes);

  mr::GrepApp plain("ce");
  const auto p_small = mr::run_local(plain, small, {4, 1, 2, true});
  (void)p_small;
}

}  // namespace
}  // namespace vcmr
