#include "runtime/recv_ahead.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace hanayo::runtime {

using comm::Kind;
using comm::make_tag;
using schedule::Action;
using schedule::Op;
using tensor::Tensor;

namespace {

bool is_recv(Op op) { return op == Op::RecvAct || op == Op::RecvGrad; }

}  // namespace

RecvAhead::RecvAhead(int depth) : depth_(depth) {
  if (depth < 0) {
    throw std::invalid_argument("prefetch depth " + std::to_string(depth) +
                                " < 0");
  }
}

void RecvAhead::start(const schedule::DeviceScript& script,
                      comm::Communicator& comm, int peer_base) {
  script_ = &script;
  comm_ = &comm;
  peer_base_ = peer_base;
  size_t recvs = 0;
  for (const Action& a : script.actions) {
    if (is_recv(a.op) && ++recvs == static_cast<size_t>(depth_)) break;
  }
  // Nothing is outstanding between passes, so growing here moves no slot a
  // posted receive still points at.
  const size_t cap = std::max<size_t>(1, std::min<size_t>(depth_, recvs));
  if (ring_.size() < cap) ring_.resize(cap);
  scan_ = head_ = count_ = 0;
  refill();
}

Tensor RecvAhead::take(size_t action_index) {
  if (count_ == 0 && scan_ <= action_index) {
    // Not prefetched (depth 0, or past a Flush): post now and wait.
    post(action_index);
    scan_ = action_index + 1;
  }
  Entry& e = ring_[head_];
  if (count_ == 0 || e.idx != action_index) {
    throw std::logic_error("RecvAhead: action " + std::to_string(action_index) +
                           " is not the next posted receive");
  }
  e.req->wait();
  Tensor got = std::move(e.slot);
  e.req.reset();
  head_ = (head_ + 1) % ring_.size();
  --count_;
  refill();
  return got;
}

void RecvAhead::post(size_t idx) {
  const Action& a = script_->actions[idx];
  if (!is_recv(a.op)) {
    throw std::logic_error("RecvAhead: action " + std::to_string(idx) +
                           " is not a receive");
  }
  Entry& e = ring_[(head_ + count_) % ring_.size()];
  e.idx = idx;
  e.slot = Tensor();
  const comm::Tag tag = a.op == Op::RecvAct
                            ? make_tag(Kind::Activation, a.mb, a.pos - 1)
                            : make_tag(Kind::Gradient, a.mb, a.pos + 1);
  e.req = comm_->irecv(a.peer + peer_base_, tag, &e.slot);
  ++count_;
}

void RecvAhead::refill() {
  const std::vector<Action>& acts = script_->actions;
  while (count_ < static_cast<size_t>(depth_) && scan_ < acts.size()) {
    const Op op = acts[scan_].op;
    if (op == Op::Flush) break;
    if (is_recv(op)) post(scan_);
    ++scan_;
  }
}

}  // namespace hanayo::runtime
