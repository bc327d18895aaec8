// vcmr_ref: a fixed reference workload that measures how fast the machine is
// right now. It prints the seconds one run of it took.
//
// run.py times this between the jobs of each pass and scales the pass's time
// metrics by REFERENCE_S / (mean reference time), which cancels the slow
// common-mode drift of a shared machine. The work imitates the simulator's
// memory behaviour (a heap of shared_ptr events with a hash index, a
// tree map) but links none of its code, so a change to the simulator cannot
// change the reference.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

int main() {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t x = 88172645463325252ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  struct Event {
    std::uint64_t at;
    std::uint64_t seq;
  };
  auto later = [](const std::shared_ptr<Event>& a,
                  const std::shared_ptr<Event>& b) { return a->at > b->at; };
  std::priority_queue<std::shared_ptr<Event>,
                      std::vector<std::shared_ptr<Event>>, decltype(later)>
      heap(later);
  std::unordered_map<std::uint64_t, std::shared_ptr<Event>> by_seq;
  std::map<std::uint64_t, std::uint64_t> tree;
  std::uint64_t checksum = 0;
  for (std::uint64_t seq = 1; seq <= 60000; ++seq) {
    auto e = std::make_shared<Event>(Event{next() % 1000000, seq});
    heap.push(e);
    by_seq.emplace(seq, e);
    tree[next() % 4096] += seq;
    if (seq % 3 == 0) {
      const auto top = heap.top();
      heap.pop();
      by_seq.erase(top->seq);
      const auto it = tree.lower_bound(top->at % 4096);
      checksum += top->at + (it == tree.end() ? 0 : it->second);
    }
  }
  const double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  std::printf("%.9f %llu\n", s, static_cast<unsigned long long>(checksum));
  return 0;
}
