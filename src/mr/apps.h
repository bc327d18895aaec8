#pragma once
// Built-in MapReduce applications.
//
// word_count is the paper's proof-of-concept workload (§III.C / §IV); the
// others are classic MapReduce examples (Dean & Ghemawat §2.3) included to
// exercise the API beyond a single app: distributed grep, inverted index,
// and a word-length histogram.

#include <string>

#include "mr/app.h"

namespace vcmr::mr {

/// Tokenizes on non-alphanumeric bytes, lowercases, emits ("word", "1");
/// reduce sums the counts. Matches the paper's description: "The map
/// function reads an input file word by word and outputs one line per
/// word, with the format 'word 1'".
class WordCountApp : public MapReduceApp {
 public:
  std::string name() const override { return "word_count"; }
  void map(std::string_view chunk, Emitter& out) const override;
  void reduce(const std::string& key, const std::vector<std::string>& values,
              Emitter& out) const override;
  bool combine(const std::string& key, const std::vector<std::string>& values,
               Emitter& out) const override;
  CostModel cost() const override;
};

/// Emits ("<pattern>", line) for every line containing the pattern; reduce
/// concatenates match counts per pattern.
class GrepApp : public MapReduceApp {
 public:
  explicit GrepApp(std::string pattern = "volunteer") : pattern_(std::move(pattern)) {}
  std::string name() const override { return "grep"; }
  void map(std::string_view chunk, Emitter& out) const override;
  void reduce(const std::string& key, const std::vector<std::string>& values,
              Emitter& out) const override;
  CostModel cost() const override;

 private:
  std::string pattern_;
};

/// Emits (word, chunk-position) pairs; reduce produces a sorted, deduplicated
/// posting list per word. Chunk id is injected via the per-chunk prefix
/// convention (see task.h: chunks carry a "#chunk <id>\n" header line).
class InvertedIndexApp : public MapReduceApp {
 public:
  std::string name() const override { return "inverted_index"; }
  void map(std::string_view chunk, Emitter& out) const override;
  void reduce(const std::string& key, const std::vector<std::string>& values,
              Emitter& out) const override;
  CostModel cost() const override;
};

/// Consumes *word-count output* ("word N" lines) and histograms the counts
/// into decade buckets ("1-9", "10-99", ...); the canonical second stage of
/// a word-count → frequency-of-frequencies workflow (§II: "many
/// applications can be broken down into sequences of MapReduce jobs").
class CountRangeApp : public MapReduceApp {
 public:
  std::string name() const override { return "count_range"; }
  void map(std::string_view chunk, Emitter& out) const override;
  void reduce(const std::string& key, const std::vector<std::string>& values,
              Emitter& out) const override;
  bool combine(const std::string& key, const std::vector<std::string>& values,
               Emitter& out) const override;
  CostModel cost() const override;
};

/// ParaMEDIC-style grep (§V ref [30]: "using the reduce phase as a bloom
/// filter enabled large scale"): instead of shipping matching lines, map
/// emits a constant-size Bloom filter of the matches in its chunk; reduce
/// ORs the filters into one membership structure. Consumers probe the
/// merged filter and re-check positives locally — intermediate volume is
/// O(filter size), independent of match count.
class GrepBloomApp : public MapReduceApp {
 public:
  explicit GrepBloomApp(std::string pattern = "volunteer",
                        std::size_t filter_bits = 8192)
      : pattern_(std::move(pattern)), filter_bits_(filter_bits) {}
  std::string name() const override { return "grep_bloom"; }
  void map(std::string_view chunk, Emitter& out) const override;
  void reduce(const std::string& key, const std::vector<std::string>& values,
              Emitter& out) const override;
  CostModel cost() const override;

 private:
  std::string pattern_;
  std::size_t filter_bits_;
};

/// One PageRank iteration over an adjacency-list input (lines of
/// "node rank|n1,n2,..."). Map re-emits each node's link list and sends a
/// rank share to every neighbour; reduce recombines them with damping 0.85
/// and emits the next iteration's input — so K page_rank jobs chained as a
/// linear workflow (wf::linear_workflow) perform K power iterations on
/// volunteers.
/// This is the §II/§VI "more complex applications as MapReduce sequences"
/// workload (the classic iterative-MapReduce example).
class PageRankApp : public MapReduceApp {
 public:
  std::string name() const override { return "page_rank"; }
  void map(std::string_view chunk, Emitter& out) const override;
  void reduce(const std::string& key, const std::vector<std::string>& values,
              Emitter& out) const override;
  CostModel cost() const override;
};

/// Emits (word-length bucket, 1); reduce sums. Tiny key space, so reduce
/// input is heavily skewed to few reducers — a useful partitioning stress.
class LengthHistogramApp : public MapReduceApp {
 public:
  std::string name() const override { return "length_histogram"; }
  void map(std::string_view chunk, Emitter& out) const override;
  void reduce(const std::string& key, const std::vector<std::string>& values,
              Emitter& out) const override;
  bool combine(const std::string& key, const std::vector<std::string>& values,
               Emitter& out) const override;
  CostModel cost() const override;
};

}  // namespace vcmr::mr
