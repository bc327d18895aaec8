#pragma once
// A callable that counts its copies, shared by the transfer tests
// (test_net_http.cpp, test_store.cpp, test_client.cpp). An API that holds
// its caller's callbacks once passes one through without a single copy;
// moves are free and do not count.

namespace vcmr {

struct CopyCount {
  int copies = 0;  ///< copies of the callable, or of any copy of it
  int calls = 0;
};

/// Takes any arguments, so one type fits every callback signature.
class CountingFn {
 public:
  explicit CountingFn(CopyCount& count) : count_(&count) {}
  CountingFn(const CountingFn& o) : count_(o.count_) { ++count_->copies; }
  CountingFn(CountingFn&&) noexcept = default;
  CountingFn& operator=(const CountingFn& o) {
    count_ = o.count_;
    ++count_->copies;
    return *this;
  }
  CountingFn& operator=(CountingFn&&) noexcept = default;

  template <class... Args>
  void operator()(Args&&...) const {
    ++count_->calls;
  }

 private:
  CopyCount* count_;
};

}  // namespace vcmr
