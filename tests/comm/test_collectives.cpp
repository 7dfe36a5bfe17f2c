#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "comm/collectives.hpp"
#include "tensor/rng.hpp"

namespace hc = hanayo::comm;
namespace ht = hanayo::tensor;

TEST(Group, IndexOf) {
  hc::Group g{{3, 5, 9}};
  EXPECT_EQ(g.index_of(3), 0);
  EXPECT_EQ(g.index_of(9), 2);
  EXPECT_EQ(g.index_of(4), -1);
  EXPECT_EQ(g.size(), 3);
}

namespace {
void run_ranks(hc::World& w, int n, const std::function<void(hc::Communicator&)>& fn) {
  std::vector<std::thread> ts;
  std::vector<std::exception_ptr> errs(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) {
    ts.emplace_back([&, r] {
      hc::Communicator c(&w, r);
      try {
        fn(c);
      } catch (...) {
        errs[static_cast<size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : ts) t.join();
  for (auto& e : errs) {
    if (e) std::rethrow_exception(e);
  }
}
}  // namespace

TEST(Collectives, AllreduceSumsAcrossGroup) {
  hc::World w(4);
  hc::Group g{{0, 1, 2, 3}};
  run_ranks(w, 4, [&](hc::Communicator& c) {
    ht::Tensor t({2}, std::vector<float>{static_cast<float>(c.rank()), 1.0f});
    hc::allreduce_sum(c, g, t, 0);
    EXPECT_FLOAT_EQ(t[0], 6.0f);  // 0+1+2+3
    EXPECT_FLOAT_EQ(t[1], 4.0f);
  });
}

TEST(Collectives, AllreduceSubgroupOnly) {
  hc::World w(4);
  hc::Group even{{0, 2}};
  hc::Group odd{{1, 3}};
  run_ranks(w, 4, [&](hc::Communicator& c) {
    ht::Tensor t({1}, std::vector<float>{static_cast<float>(c.rank() + 1)});
    const hc::Group& g = (c.rank() % 2 == 0) ? even : odd;
    hc::allreduce_sum(c, g, t, 5);
    if (c.rank() % 2 == 0) {
      EXPECT_FLOAT_EQ(t[0], 4.0f);  // 1 + 3
    } else {
      EXPECT_FLOAT_EQ(t[0], 6.0f);  // 2 + 4
    }
  });
}

TEST(Collectives, AllreduceSingletonIsNoop) {
  hc::World w(1);
  hc::Communicator c(&w, 0);
  hc::Group g{{0}};
  ht::Tensor t({1}, std::vector<float>{5});
  hc::allreduce_sum(c, g, t, 0);
  EXPECT_FLOAT_EQ(t[0], 5.0f);
}

TEST(Collectives, AllreduceRequiresMembership) {
  hc::World w(2);
  hc::Communicator c(&w, 0);
  hc::Group g{{1}};
  ht::Tensor t({1});
  EXPECT_THROW(hc::allreduce_sum(c, g, t, 0), std::invalid_argument);
}

TEST(Collectives, Broadcast) {
  hc::World w(3);
  hc::Group g{{0, 1, 2}};
  run_ranks(w, 3, [&](hc::Communicator& c) {
    ht::Tensor t({1}, std::vector<float>{static_cast<float>(c.rank() * 10)});
    hc::broadcast(c, g, t, 1, 0);
    EXPECT_FLOAT_EQ(t[0], 10.0f);
  });
}

TEST(Collectives, GatherScalar) {
  hc::World w(3);
  hc::Group g{{0, 1, 2}};
  run_ranks(w, 3, [&](hc::Communicator& c) {
    auto got = hc::gather_scalar(c, g, static_cast<float>(c.rank() + 1), 0);
    if (c.rank() == 0) {
      ASSERT_EQ(got.size(), 3u);
      EXPECT_FLOAT_EQ(got[0], 1.0f);
      EXPECT_FLOAT_EQ(got[1], 2.0f);
      EXPECT_FLOAT_EQ(got[2], 3.0f);
    } else {
      EXPECT_TRUE(got.empty());
    }
  });
}

TEST(Collectives, ReduceSumOnlyUpdatesRoot) {
  hc::World w(3);
  hc::Group g{{0, 1, 2}};
  run_ranks(w, 3, [&](hc::Communicator& c) {
    ht::Tensor t({2}, std::vector<float>{static_cast<float>(c.rank()), 1.0f});
    hc::reduce_sum(c, g, t, /*root_index=*/1, 0);
    if (c.rank() == 1) {
      EXPECT_FLOAT_EQ(t[0], 3.0f);
      EXPECT_FLOAT_EQ(t[1], 3.0f);
    } else {
      // Non-root tensors are untouched.
      EXPECT_FLOAT_EQ(t[0], static_cast<float>(c.rank()));
      EXPECT_FLOAT_EQ(t[1], 1.0f);
    }
  });
}

TEST(Collectives, AllgatherConcatenatesInGroupOrder) {
  hc::World w(3);
  hc::Group g{{0, 1, 2}};
  run_ranks(w, 3, [&](hc::Communicator& c) {
    ht::Tensor local({2}, std::vector<float>{static_cast<float>(c.rank()),
                                             static_cast<float>(c.rank()) + 0.5f});
    ht::Tensor all = hc::allgather(c, g, local, 0);
    ASSERT_EQ(all.shape(), (ht::Shape{3, 2}));
    for (int i = 0; i < 3; ++i) {
      EXPECT_FLOAT_EQ(all[2 * i], static_cast<float>(i));
      EXPECT_FLOAT_EQ(all[2 * i + 1], static_cast<float>(i) + 0.5f);
    }
  });
}

TEST(Collectives, AllgatherSingleton) {
  hc::World w(1);
  hc::Communicator c(&w, 0);
  hc::Group g{{0}};
  ht::Tensor local({2}, std::vector<float>{7.0f, 8.0f});
  ht::Tensor all = hc::allgather(c, g, local, 0);
  ASSERT_EQ(all.shape(), (ht::Shape{1, 2}));
  EXPECT_FLOAT_EQ(all[0], 7.0f);
  EXPECT_FLOAT_EQ(all[1], 8.0f);
}

TEST(Collectives, ShardBoundsPartitionTheRange) {
  // Property: for any (numel, n) the shards are disjoint, contiguous, cover
  // [0, numel), and differ in size by at most one element.
  for (int64_t numel : {0L, 1L, 5L, 16L, 17L, 100L}) {
    for (int n : {1, 2, 3, 4, 7, 16}) {
      int64_t cursor = 0;
      int64_t min_len = numel + 1, max_len = -1;
      for (int i = 0; i < n; ++i) {
        auto [b, e] = hc::shard_bounds(numel, n, i);
        EXPECT_EQ(b, cursor) << "numel=" << numel << " n=" << n << " i=" << i;
        EXPECT_GE(e, b);
        cursor = e;
        min_len = std::min(min_len, e - b);
        max_len = std::max(max_len, e - b);
      }
      EXPECT_EQ(cursor, numel);
      EXPECT_LE(max_len - min_len, 1);
    }
  }
  EXPECT_THROW(hc::shard_bounds(10, 0, 0), std::invalid_argument);
  EXPECT_THROW(hc::shard_bounds(10, 4, 4), std::invalid_argument);
}

TEST(Collectives, ReduceScatterSumsPerShard) {
  hc::World w(3);
  hc::Group g{{0, 1, 2}};
  // numel=7 is not divisible by 3: shards are 3/2/2.
  run_ranks(w, 3, [&](hc::Communicator& c) {
    std::vector<float> v(7);
    for (size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<float>(i) + 10.0f * static_cast<float>(c.rank());
    }
    ht::Tensor t({7}, v);
    ht::Tensor shard = hc::reduce_scatter_sum(c, g, t, 0);
    auto [b, e] = hc::shard_bounds(7, 3, c.rank());
    ASSERT_EQ(shard.numel(), e - b);
    for (int64_t i = 0; i < shard.numel(); ++i) {
      // Sum over ranks r of (b+i + 10r) = 3*(b+i) + 30.
      EXPECT_FLOAT_EQ(shard[i], 3.0f * static_cast<float>(b + i) + 30.0f);
    }
  });
}

TEST(Collectives, ReduceScatterThenAllgatherShardsRoundTrips) {
  // reduce_scatter + allgather_shards == allreduce (the ZeRO-1 step).
  hc::World w(4);
  hc::Group g{{0, 1, 2, 3}};
  constexpr int64_t kN = 11;
  run_ranks(w, 4, [&](hc::Communicator& c) {
    std::vector<float> v(kN);
    for (size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<float>(i * (c.rank() + 1));
    }
    ht::Tensor t({kN}, v);
    ht::Tensor shard = hc::reduce_scatter_sum(c, g, t, 0);
    ht::Tensor full = hc::allgather_shards(c, g, shard, kN, 4);
    ASSERT_EQ(full.numel(), kN);
    for (int64_t i = 0; i < kN; ++i) {
      // Sum over ranks of i*(r+1) = i * 10.
      EXPECT_FLOAT_EQ(full[i], static_cast<float>(i) * 10.0f);
    }
  });
}

TEST(Collectives, AllgatherShardsRejectsWrongShardSize) {
  hc::World w(1);
  hc::Communicator c(&w, 0);
  hc::Group g{{0}};
  ht::Tensor bad({3});
  EXPECT_THROW(hc::allgather_shards(c, g, bad, 10, 0), std::invalid_argument);
}

TEST(Collectives, AllreduceScalarSums) {
  hc::World w(3);
  hc::Group g{{0, 1, 2}};
  run_ranks(w, 3, [&](hc::Communicator& c) {
    float s = hc::allreduce_scalar(c, g, static_cast<float>(c.rank() + 1), 0);
    EXPECT_FLOAT_EQ(s, 6.0f);
  });
}

// ---------------------------------------------------------------------------
// Allreduce algorithm sweep: every algorithm must produce the same sums on
// every group size, including non-power-of-two and payloads smaller than the
// group (which force the documented fallbacks).

struct AllreduceCase {
  hc::AllreduceAlgo algo;
  int n;
  int64_t numel;
};

class AllreduceAlgoTest : public ::testing::TestWithParam<AllreduceCase> {};

TEST_P(AllreduceAlgoTest, MatchesExpectedSum) {
  const auto [algo, n, numel] = GetParam();
  hc::World w(n);
  hc::Group g;
  for (int r = 0; r < n; ++r) g.ranks.push_back(r);
  run_ranks(w, n, [&](hc::Communicator& c) {
    std::vector<float> v(static_cast<size_t>(numel));
    for (int64_t i = 0; i < numel; ++i) {
      v[static_cast<size_t>(i)] =
          static_cast<float>(i + 1) * static_cast<float>(c.rank() + 1);
    }
    ht::Tensor t({numel}, v);
    hc::allreduce_sum(c, g, t, 0, algo);
    const float rank_sum = static_cast<float>(n * (n + 1)) / 2.0f;
    for (int64_t i = 0; i < numel; ++i) {
      EXPECT_NEAR(t[i], static_cast<float>(i + 1) * rank_sum,
                  1e-4 * static_cast<double>(i + 1))
          << "i=" << i << " n=" << n;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllreduceAlgoTest,
    ::testing::Values(
        AllreduceCase{hc::AllreduceAlgo::Naive, 4, 64},
        AllreduceCase{hc::AllreduceAlgo::Naive, 3, 17},
        AllreduceCase{hc::AllreduceAlgo::Ring, 2, 64},
        AllreduceCase{hc::AllreduceAlgo::Ring, 4, 64},
        AllreduceCase{hc::AllreduceAlgo::Ring, 3, 17},
        AllreduceCase{hc::AllreduceAlgo::Ring, 5, 23},
        AllreduceCase{hc::AllreduceAlgo::Ring, 4, 3},   // numel < n fallback
        AllreduceCase{hc::AllreduceAlgo::RecursiveDoubling, 2, 16},
        AllreduceCase{hc::AllreduceAlgo::RecursiveDoubling, 4, 64},
        AllreduceCase{hc::AllreduceAlgo::RecursiveDoubling, 8, 33},
        AllreduceCase{hc::AllreduceAlgo::RecursiveDoubling, 3, 17},  // ring fallback
        AllreduceCase{hc::AllreduceAlgo::RecursiveDoubling, 6, 2}));

TEST(Collectives, RingMatchesNaiveBitwiseForTwoRanks) {
  // With two ranks both algorithms sum exactly two addends, so the results
  // must be bit-identical — a cheap cross-check of the ring bookkeeping.
  hc::World w(2);
  hc::Group g{{0, 1}};
  constexpr int64_t kN = 37;
  run_ranks(w, 2, [&](hc::Communicator& c) {
    std::vector<float> v(kN);
    for (int64_t i = 0; i < kN; ++i) {
      v[static_cast<size_t>(i)] =
          0.1f * static_cast<float>(i) + static_cast<float>(c.rank());
    }
    ht::Tensor a({kN}, v);
    ht::Tensor b({kN}, v);
    hc::allreduce_sum(c, g, a, 0, hc::AllreduceAlgo::Naive);
    hc::allreduce_sum(c, g, b, 8, hc::AllreduceAlgo::Ring);
    for (int64_t i = 0; i < kN; ++i) {
      EXPECT_EQ(a[i], b[i]) << "i=" << i;
    }
  });
}

TEST(Collectives, ConcurrentAllreducesWithDistinctPhases) {
  // Two allreduces over the *same* pair of ranks must not cross-match when
  // given distinct phases — the situation Chimera's mirrored stage groups
  // create.
  hc::World w(2);
  hc::Group g{{0, 1}};
  run_ranks(w, 2, [&](hc::Communicator& c) {
    ht::Tensor a({1}, std::vector<float>{1.0f + static_cast<float>(c.rank())});
    ht::Tensor b({1}, std::vector<float>{10.0f * (1.0f + static_cast<float>(c.rank()))});
    hc::allreduce_sum(c, g, a, 100);
    hc::allreduce_sum(c, g, b, 200);
    EXPECT_FLOAT_EQ(a[0], 3.0f);
    EXPECT_FLOAT_EQ(b[0], 30.0f);
  });
}

namespace {

/// One transformer Block's gradient shapes at hidden `h` (ffn 4h), in
/// collect_params order, plus a 1-element and a 0-element tensor: the lists
/// the training flush hands to the coalesced allreduce.
std::vector<ht::Shape> block_grad_shapes(int64_t h) {
  const int64_t f = 4 * h;
  return {{h},        {h},     {h, 3 * h}, {3 * h}, {h, h}, {h}, {h},
          {h},        {h, f},  {f},        {f, h},  {h},    {1}, {0}};
}

/// Rank `rank`'s seeded inputs for `block_grad_shapes(h)`.
std::vector<ht::Tensor> seeded_grads(int rank, int64_t h) {
  ht::Rng rng(1000 + static_cast<uint64_t>(rank));
  std::vector<ht::Tensor> out;
  for (const ht::Shape& s : block_grad_shapes(h)) out.push_back(rng.randn(s));
  return out;
}

bool same_bits(const ht::Tensor& a, const ht::Tensor& b) {
  if (a.numel() != b.numel()) return false;
  return a.numel() == 0 ||
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

class CoalescedAllreduceTest : public ::testing::TestWithParam<int> {};

}  // namespace

TEST_P(CoalescedAllreduceTest, BitwiseEqualToPerTensorNaiveInOneMessageEach) {
  const int n = GetParam();
  constexpr int64_t kHidden = 8;
  hc::World w(n);
  // Group order reversed against world ranks, so the root (group rank 0)
  // is the highest world rank and the summation order is the group's.
  hc::Group g;
  for (int r = n - 1; r >= 0; --r) g.ranks.push_back(r);
  run_ranks(w, n, [&](hc::Communicator& c) {
    std::vector<ht::Tensor> per_tensor = seeded_grads(c.rank(), kHidden);
    std::vector<ht::Tensor> coalesced = per_tensor;
    for (size_t i = 0; i < per_tensor.size(); ++i) {
      hc::allreduce_sum(c, g, per_tensor[i], static_cast<int>(2 * i),
                        hc::AllreduceAlgo::Naive);
    }

    std::vector<ht::Tensor*> ptrs;
    for (ht::Tensor& t : coalesced) ptrs.push_back(&t);
    const int64_t sent_before = c.messages_sent();
    hc::allreduce_sum(c, g, ptrs, 1000);
    const int64_t sent = c.messages_sent() - sent_before;
    const bool root = g.index_of(c.rank()) == 0;
    EXPECT_EQ(sent, root ? n - 1 : 1) << "rank " << c.rank();

    // The sum itself, accumulated here in group rank order.
    std::vector<ht::Tensor> expect = seeded_grads(g.ranks[0], kHidden);
    for (int i = 1; i < n; ++i) {
      const std::vector<ht::Tensor> part = seeded_grads(g.ranks[i], kHidden);
      for (size_t k = 0; k < expect.size(); ++k) expect[k].add_(part[k]);
    }
    for (size_t k = 0; k < coalesced.size(); ++k) {
      EXPECT_TRUE(same_bits(coalesced[k], per_tensor[k]))
          << "tensor " << k << " rank " << c.rank();
      EXPECT_TRUE(same_bits(coalesced[k], expect[k]))
          << "tensor " << k << " rank " << c.rank();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, CoalescedAllreduceTest,
                         ::testing::Values(2, 3, 4));

TEST(Collectives, CoalescedAllreduceRequiresMembership) {
  hc::World w(3);
  hc::Communicator c(&w, 2);
  hc::Group g{{0, 1}};
  ht::Tensor t({4});
  ht::Tensor* const ts[] = {&t};
  EXPECT_THROW(hc::allreduce_sum(c, g, ts, 0), std::invalid_argument);
  EXPECT_EQ(c.messages_sent(), 0);
}
