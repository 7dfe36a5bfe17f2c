#pragma once
// The runtime's one fork/join: a fixed gang that runs a body once per member
// index and joins. Member 0 runs on the calling thread; members 1..n-1 on
// threads spawned once and woken per run() by an epoch counter, so a
// steady-state run creates no thread and makes no heap allocation. The
// Rank::Gang mutex is held only at hand-off, never across a body, so a body
// may run another gang (a server drain runs its replicas' pipeline passes
// this way).

#include <atomic>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

#include "core/sync.hpp"
#include "tensor/parallel.hpp"

namespace hanayo::runtime {

class Gang {
 public:
  explicit Gang(int n);  ///< spawns n - 1 threads; throws on n < 1
  ~Gang();               ///< joins; must not race run()
  Gang(const Gang&) = delete;
  Gang& operator=(const Gang&) = delete;

  /// Calls body(i, i + 1) for every i in [0, n) and blocks until all
  /// have returned; then rethrows the first exception any member threw.
  void run(tensor::ChunkFn body);

 private:
  void stop();  // joins every member thread
  void thread_main(int i);
  void run_member(tensor::ChunkFn body, int i);

  const int n_;
  sync::Mutex<sync::Rank::Gang> mu_;
  sync::CondVar start_cv_, done_cv_;
  tensor::ChunkFn body_;  // guarded by mu_, like the three below
  uint64_t epoch_ = 0;
  int pending_ = 0;  // members 1..n-1 still in this epoch's body
  bool quit_ = false;
  std::atomic<bool> failed_{false};  // first-wins claim on error_
  std::exception_ptr error_;
  std::vector<std::thread> threads_;
};

}  // namespace hanayo::runtime
