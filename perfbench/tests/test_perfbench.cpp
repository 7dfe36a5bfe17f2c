// The benchmark's own tests: seeded inputs are reproducible, the metric
// table is well formed, and the correctness gate rejects a wrong loss.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "gate.hpp"
#include "metrics.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

std::vector<float> values(const hanayo::Tensor& t) {
  return {t.flat().begin(), t.flat().end()};
}

const WorkloadSpec& spec(const char* name) {
  const WorkloadSpec* w = find_workload(name);
  EXPECT_NE(w, nullptr) << name;
  return *w;
}

}  // namespace

TEST(Inputs, TrainBatchesRepeatPerSeedAndDifferAcrossSeeds) {
  for (const char* name : {"train-wide", "train-tiny-dp"}) {
    const WorkloadSpec& w = spec(name);
    const TrainInputs a(w, 7), b(w, 7), c(w, 8);
    for (int64_t step : {0, 1, 5, 300}) {
      EXPECT_EQ(values(a.batch(step).inputs), values(b.batch(step).inputs));
      EXPECT_EQ(values(a.batch(step).targets), values(b.batch(step).targets));
    }
    EXPECT_NE(values(a.batch(0).inputs), values(c.batch(0).inputs));
    EXPECT_NE(values(a.batch(0).inputs), values(a.batch(1).inputs));
    EXPECT_EQ(a.batch(0).inputs.size(0), w.dp * w.B * w.mb_sequences);
  }
}

TEST(Inputs, ChatPromptsAndClientOrderRepeatPerSeed) {
  const WorkloadSpec& w = serve_chat();
  const ChatInputs a(w, 7), b(w, 7), c(w, 8);
  EXPECT_EQ(a.client_order(), b.client_order());
  std::set<int> clients(a.client_order().begin(), a.client_order().end());
  EXPECT_EQ(static_cast<int>(clients.size()), w.clients);
  for (int client = 0; client < w.clients; ++client) {
    for (int64_t k : {0, 1, 40}) {
      EXPECT_EQ(values(a.prompt(client, k)), values(b.prompt(client, k)));
    }
  }
  EXPECT_EQ(values(a.warmup(4)), values(b.warmup(4)));

  // Different seeds: different order (for at least one of a few seeds) and
  // different prompts.
  bool order_differs = false;
  for (uint64_t s = 8; s < 12; ++s) {
    order_differs |= ChatInputs(w, s).client_order() != a.client_order();
  }
  EXPECT_TRUE(order_differs);
  EXPECT_NE(values(a.prompt(0, 0)), values(c.prompt(0, 0)));
}

TEST(Inputs, ChatPromptsShareTheHeadAndHaveUniqueTails) {
  const WorkloadSpec& w = serve_chat();
  const ChatInputs in(w, 3);
  std::set<std::vector<float>> tails;
  std::vector<float> head;
  int n = 0;
  auto check = [&](const hanayo::Tensor& p) {
    ASSERT_EQ(p.numel(), w.prompt_tokens);
    const std::vector<float> v = values(p);
    for (float id : v) {
      EXPECT_GE(id, 0.0f);
      EXPECT_LT(id, static_cast<float>(w.model.vocab));
    }
    const std::vector<float> h(v.begin(), v.begin() + w.shared_prefix_tokens);
    if (head.empty()) head = h;
    EXPECT_EQ(h, head);
    tails.emplace(v.begin() + w.shared_prefix_tokens, v.end());
    ++n;
  };
  for (int client = 0; client < w.clients; ++client) {
    for (int64_t k = 0; k < 50; ++k) check(in.prompt(client, k));
  }
  for (int64_t k = 0; k < 16; ++k) check(in.warmup(k));
  EXPECT_EQ(static_cast<int>(tails.size()), n);
}

TEST(Metrics, TableNamesAreValidAndUnique) {
  std::set<std::string> seen;
  bool has_setup = false;
  for (const MetricDef& d : metric_table()) {
    EXPECT_TRUE(valid_metric_name(d.name)) << d.name;
    EXPECT_TRUE(seen.insert(d.name).second) << "duplicate " << d.name;
    if (d.mode == Mode::PerLayer) EXPECT_STRNE(d.moves, "") << d.name;
    has_setup |= std::string(d.name) == "setup_s" && d.mode == Mode::EndToEnd;
  }
  EXPECT_TRUE(has_setup);
  EXPECT_FALSE(valid_metric_name("bad name"));
  EXPECT_FALSE(valid_metric_name(".leading"));
}

TEST(Metrics, RejectsUndeclaredAndIncompleteSets) {
  Metrics m(Mode::EndToEnd);
  EXPECT_THROW(m.set("not_a_metric", 1.0), std::logic_error);
  EXPECT_THROW(m.set("tensor.gemm_fwd_gflops", 1.0), std::logic_error);
  m.set("tok_per_s", 1.0);
  EXPECT_THROW(m.check_complete(), std::logic_error);
}

TEST(Gate, AcceptsMatchingLossesAndRejectsAPerturbedReference) {
  const std::vector<float> got = {4.61f, 4.58f, 4.52f, 4.49f};
  std::string detail;
  EXPECT_TRUE(loss_mismatches(got, got, &detail).empty());
  EXPECT_TRUE(detail.empty());

  std::vector<float> ref = got;
  ref[2] += 10.0f * kLossTol;
  const std::vector<size_t> bad = loss_mismatches(got, ref, &detail);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], 2u);
  EXPECT_NE(detail.find("step 2"), std::string::npos);

  std::vector<float> nan = got;
  nan[0] = NAN;
  EXPECT_EQ(loss_mismatches(nan, got, &detail).size(), 1u);
  EXPECT_EQ(loss_mismatches({got.begin(), got.end() - 1}, got, &detail).size(),
            1u);
}
