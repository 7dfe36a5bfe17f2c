#pragma once
// The runtime's one receive prefetcher (paper §4.2): posts up to `depth`
// receives ahead of an interpreter's program counter, so a payload can land
// while the device computes. Every pipeline interpreter — the synchronous
// Worker, the AsyncTrainer's stage workers and the serving InferWorker —
// owns one and calls take() at each RecvAct/RecvGrad action.
//
// Receives are posted in script order and consumed in script order, so the
// posted set is a FIFO: a fixed ring whose slots keep stable addresses (the
// transport writes into them). The ring holds max(1, min(depth, receives in
// the script)) entries and only grows the first time a longer script
// appears, so a steady-state pass allocates nothing here.

#include <cstddef>
#include <vector>

#include "comm/communicator.hpp"
#include "schedule/actions.hpp"
#include "tensor/tensor.hpp"

namespace hanayo::runtime {

class RecvAhead {
 public:
  /// `depth` = receives posted ahead of need; 0 posts each one only when
  /// its action is reached. Throws std::invalid_argument if depth < 0.
  explicit RecvAhead(int depth);
  // The transport holds the addresses of posted ring slots.
  RecvAhead(const RecvAhead&) = delete;
  RecvAhead& operator=(const RecvAhead&) = delete;

  /// Starts a pass over `script`: forgets the previous one and posts the
  /// first receives. Peers are device ranks offset by `peer_base` (a
  /// data-parallel replica's first global rank). `script` and `comm` must
  /// outlive the pass.
  void start(const schedule::DeviceScript& script, comm::Communicator& comm,
             int peer_base);

  /// Returns the payload of the RecvAct/RecvGrad at `action_index`, waiting
  /// for it, then posts further receives to refill the window. Throws
  /// std::logic_error if called out of script order.
  tensor::Tensor take(size_t action_index);

 private:
  struct Entry {
    size_t idx = 0;
    comm::Request req;
    tensor::Tensor slot;
  };

  void post(size_t idx);
  void refill();  // posts until depth_ are outstanding or the scan ends

  int depth_;
  const schedule::DeviceScript* script_ = nullptr;
  comm::Communicator* comm_ = nullptr;
  int peer_base_ = 0;
  size_t scan_ = 0;   // next action index the refill looks at
  std::vector<Entry> ring_;
  size_t head_ = 0;   // ring index of the oldest outstanding receive
  size_t count_ = 0;  // outstanding receives
};

}  // namespace hanayo::runtime
