#include "runtime/gang.hpp"

#include <stdexcept>
#include <utility>

namespace hanayo::runtime {

Gang::Gang(int n) : n_(n) {
  if (n < 1) throw std::invalid_argument("Gang: size < 1");
  threads_.reserve(static_cast<size_t>(n - 1));
  try {
    for (int i = 1; i < n; ++i) {
      threads_.emplace_back([this, i] { thread_main(i); });
    }
  } catch (...) {
    stop();  // join the members already started
    throw;
  }
}

Gang::~Gang() { stop(); }

void Gang::stop() {
  std::unique_lock lk(mu_);
  quit_ = true;
  lk.unlock();
  start_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void Gang::run(tensor::ChunkFn body) {
  std::unique_lock lk(mu_);
  body_ = body;
  pending_ = n_ - 1;
  ++epoch_;
  lk.unlock();
  start_cv_.notify_all();
  run_member(body, 0);
  lk.lock();
  done_cv_.wait(lk, [&] { return pending_ == 0; });
  // Every member has returned (none still references `body`); a failing
  // member published error_ before its pending_ decrement.
  if (failed_.exchange(false)) {
    std::rethrow_exception(std::exchange(error_, nullptr));
  }
}

void Gang::run_member(tensor::ChunkFn body, int i) {
  try {
    body(i, i + 1);
  } catch (...) {
    if (!failed_.exchange(true)) error_ = std::current_exception();
  }
}

void Gang::thread_main(int i) {
  for (uint64_t seen = 0;;) {
    std::unique_lock lk(mu_);
    start_cv_.wait(lk, [&] { return quit_ || epoch_ != seen; });
    if (quit_) return;
    seen = epoch_;
    const tensor::ChunkFn body = body_;
    lk.unlock();
    run_member(body, i);
    lk.lock();
    if (--pending_ == 0) done_cv_.notify_one();
  }
}

}  // namespace hanayo::runtime
