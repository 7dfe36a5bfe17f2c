// Paged KV-store unit suite: the pooled page allocator and the radix-tree
// prefix index (runtime/kv_store.hpp) exercised directly, below the
// attention port.
//
// The invariants locked here are what the serving integration leans on:
//
//   * O(1) pool alloc/free with exact reservation accounting — open_slot
//     either reserves the worst case up front or fails with NO state
//     change, and an admitted stream can never exhaust the pool mid-decode;
//   * bitwise round-trips — fp32 pages via memcpy, fp16 pages through the
//     same quantize-once/dequantize pair as the contiguous cache;
//   * prefix sharing — published pages are adopted by later prompts with a
//     common head (full-page matches plus a partial tail match), and
//     copy-on-write keeps every shared page immutable under divergence;
//   * refcounted release — tree-only pages survive drop_slot, eviction
//     frees exactly the unreferenced ones, and after drop + clear the pool
//     returns to pages_in_use() == 0 (the paged leak probe).
//
// The storm test runs the full open/append/publish/gather/drop cycle from
// concurrent threads (one slot each, all lanes) — the same phase structure
// the serving runtime uses — and is sized through tests/common/scale.hpp
// so the TSan leg keeps it meaningful without dominating CI.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/scale.hpp"
#include "runtime/kv_store.hpp"
#include "tensor/half.hpp"
#include "tensor/rng.hpp"

using namespace hanayo;
using runtime::KvStore;
using runtime::KvStoreConfig;

namespace {

constexpr int kPg = 4;        // page_tokens: small, so everything spans pages
constexpr int64_t kRow = 8;   // row_elems

KvStoreConfig store_cfg(int64_t pool_pages, bool fp16 = false,
                        bool prefix = true) {
  KvStoreConfig kc;
  kc.page_tokens = kPg;
  kc.pool_pages = pool_pages;
  kc.row_elems = kRow;
  kc.max_slots = 4;
  kc.fp16 = fp16;
  kc.prefix_cache = prefix;
  return kc;
}

/// Deterministic row content for cached position `pos`: a pure function of
/// the position, so pages shared between streams carry the bytes every
/// stream expects. All values are exactly representable in binary16.
void fill_row(int64_t pos, std::vector<float>& krow, std::vector<float>& vrow) {
  krow.assign(static_cast<size_t>(kRow), 0.0f);
  vrow.assign(static_cast<size_t>(kRow), 0.0f);
  for (int64_t i = 0; i < kRow; ++i) {
    krow[static_cast<size_t>(i)] = static_cast<float>(pos) + 0.5f * i;
    vrow[static_cast<size_t>(i)] = -krow[static_cast<size_t>(i)];
  }
}

/// Appends rows [from, to) of the canonical content to every lane of `slot`.
void append_rows(KvStore& store, int slot, int64_t from, int64_t to) {
  std::vector<float> k, v;
  for (int64_t pos = from; pos < to; ++pos) {
    fill_row(pos, k, v);
    for (int lane = 0; lane < store.lanes(); ++lane) {
      store.append(lane, slot, k.data(), v.data());
    }
  }
}

/// Gathers [0, len) on every lane and checks each row against the
/// canonical content (bitwise for fp32; through the half round-trip for
/// fp16 — exact here because the canonical values are fp16-representable).
::testing::AssertionResult rows_match(const KvStore& store, int slot,
                                      int64_t len) {
  std::vector<float> k(static_cast<size_t>(len * kRow));
  std::vector<float> v(k.size());
  std::vector<float> ek, ev;
  for (int lane = 0; lane < store.lanes(); ++lane) {
    store.gather(lane, slot, len, k.data(), v.data());
    for (int64_t pos = 0; pos < len; ++pos) {
      fill_row(pos, ek, ev);
      for (int64_t i = 0; i < kRow; ++i) {
        const size_t at = static_cast<size_t>(pos * kRow + i);
        if (k[at] != ek[static_cast<size_t>(i)] ||
            v[at] != ev[static_cast<size_t>(i)]) {
          return ::testing::AssertionFailure()
                 << "lane " << lane << " slot " << slot << " pos " << pos
                 << " elem " << i << ": k " << k[at] << " v " << v[at];
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<int64_t> ids(std::initializer_list<int64_t> v) { return v; }

}  // namespace

TEST(KvStore, PagesNeededPricesWorstCasePerLane) {
  KvStore store(store_cfg(/*pool_pages=*/64));
  (void)store.register_lane();
  (void)store.register_lane();
  // ceil(final/pg) - shared/pg full pages, + 1 COW spare per lane (the
  // prefix cache may publish — and so share — this stream's own tail page).
  EXPECT_EQ(store.pages_needed(/*final_len=*/8, /*shared=*/0), (2 + 1) * 2);
  EXPECT_EQ(store.pages_needed(8, 4), (2 - 1 + 1) * 2);
  EXPECT_EQ(store.pages_needed(4, 4), (1 - 1 + 1) * 2);
  EXPECT_EQ(store.pages_needed(9, 0), (3 + 1) * 2);

  KvStore bare(store_cfg(64, false, /*prefix=*/false));
  (void)bare.register_lane();
  EXPECT_EQ(bare.pages_needed(8, 0), 2);  // no cache, no spare
}

TEST(KvStore, AppendGatherRoundTripsBitwiseAcrossPages) {
  KvStore store(store_cfg(/*pool_pages=*/8));
  (void)store.register_lane();
  int64_t shared = -1;
  ASSERT_TRUE(store.open_slot(0, {}, /*final_len=*/10, &shared));
  EXPECT_EQ(shared, 0);
  append_rows(store, 0, 0, 10);
  EXPECT_EQ(store.lane_len(0, 0), 10);
  EXPECT_TRUE(rows_match(store, 0, 10));
  EXPECT_TRUE(rows_match(store, 0, 5));  // partial gather mid-page
  EXPECT_THROW(store.gather(0, 0, 11, nullptr, nullptr), std::logic_error);
  EXPECT_EQ(store.pages_in_use(), 3);  // ceil(10/4)
  EXPECT_EQ(store.bytes_in_use(), 3 * store.page_bytes());
  store.drop_slot(0);
  EXPECT_EQ(store.pages_in_use(), 0);
  EXPECT_EQ(store.free_pages(), 8);
}

TEST(KvStore, Fp16PagesQuantizeOnceAndGatherExactly) {
  KvStore store(store_cfg(/*pool_pages=*/8, /*fp16=*/true));
  (void)store.register_lane();
  ASSERT_TRUE(store.open_slot(0, {}, 10, nullptr));
  append_rows(store, 0, 0, 10);
  // Canonical content is binary16-representable, so the quantize/dequantize
  // pair is exact; a second gather returns the identical bits (rows
  // quantize on append, once, never re-quantize on read).
  EXPECT_TRUE(rows_match(store, 0, 10));
  EXPECT_TRUE(rows_match(store, 0, 10));
  EXPECT_EQ(store.page_bytes(),
            2ll * kPg * kRow * static_cast<int64_t>(sizeof(uint16_t)));
  // A non-representable value lands as its rounded half, same as the
  // contiguous fp16 cache stores.
  std::vector<float> k(static_cast<size_t>(kRow), 0.1f);
  std::vector<float> v(static_cast<size_t>(kRow), 0.2f);
  store.append(0, 0, k.data(), v.data());
  std::vector<float> gk(static_cast<size_t>(11 * kRow));
  std::vector<float> gv(gk.size());
  store.gather(0, 0, 11, gk.data(), gv.data());
  EXPECT_EQ(gk[static_cast<size_t>(10 * kRow)],
            tensor::half_to_float(tensor::float_to_half(0.1f)));
  store.drop_slot(0);
  EXPECT_EQ(store.pages_in_use(), 0);
}

TEST(KvStore, ExhaustionFailsAdmissionWithoutStateChange) {
  KvStore store(store_cfg(/*pool_pages=*/4));
  (void)store.register_lane();
  ASSERT_TRUE(store.open_slot(0, {}, /*final_len=*/8, nullptr));  // needs 3
  // A second stream needing 3 pages cannot be covered by the 1 unreserved
  // page left: the open fails and leaves no trace.
  EXPECT_FALSE(store.open_slot(1, {}, 8, nullptr));
  EXPECT_EQ(store.pages_in_use(), 0);
  EXPECT_EQ(store.slot_ref_pages(), 0);
  EXPECT_EQ(store.free_pages(), 4);
  // The failed open left slot 1 closed, so it can be opened once the pool
  // can cover it again.
  store.drop_slot(0);
  int64_t shared = -1;
  EXPECT_TRUE(store.open_slot(1, {}, 8, &shared));
  store.drop_slot(1);
}

TEST(KvStore, AppendBeyondReservationIsAnInvariantViolation) {
  // Reservations are the admission contract: running past one is a logic
  // error (the runtime admits on pages_needed, so this can only mean a
  // caller bug), not a silent allocation.
  KvStore store(store_cfg(/*pool_pages=*/8, false, /*prefix=*/false));
  (void)store.register_lane();
  ASSERT_TRUE(store.open_slot(0, {}, /*final_len=*/4, nullptr));  // 1 page
  append_rows(store, 0, 0, 4);
  std::vector<float> k, v;
  fill_row(4, k, v);
  EXPECT_THROW(store.append(0, 0, k.data(), v.data()), std::logic_error);
  store.drop_slot(0);
}

TEST(KvStore, MisuseThrows) {
  KvStore store(store_cfg(8));
  EXPECT_THROW(store.open_slot(0, {}, 4, nullptr), std::logic_error);  // lanes
  (void)store.register_lane();
  EXPECT_THROW(store.open_slot(-1, {}, 4, nullptr), std::invalid_argument);
  EXPECT_THROW(store.open_slot(99, {}, 4, nullptr), std::invalid_argument);
  ASSERT_TRUE(store.open_slot(0, {}, 4, nullptr));
  EXPECT_THROW(store.open_slot(0, {}, 4, nullptr), std::logic_error);  // open
  store.drop_slot(0);
  store.drop_slot(0);  // double drop is a no-op
  EXPECT_THROW(KvStore(KvStoreConfig{}), std::invalid_argument);
}

TEST(KvStore, PublishedPrefixIsAdoptedBitwise) {
  KvStore store(store_cfg(/*pool_pages=*/32));
  (void)store.register_lane();
  (void)store.register_lane();
  const auto prompt = ids({1, 2, 3, 4, 5, 6});

  int64_t shared = -1;
  ASSERT_TRUE(store.open_slot(0, prompt, /*final_len=*/8, &shared));
  EXPECT_EQ(shared, 0);  // cold cache
  append_rows(store, 0, 0, 6);
  store.publish(0, prompt);
  store.drop_slot(0);
  // Tree-only residency: 2 pages per lane survive the drop.
  EXPECT_EQ(store.pages_in_use(), 4);
  EXPECT_EQ(store.slot_ref_pages(), 0);

  // Same 6-token head, longer prompt: full-page node {1,2,3,4} plus a
  // partial match of the tail node {5,6} — 6 shared tokens adopted.
  ASSERT_TRUE(store.open_slot(1, ids({1, 2, 3, 4, 5, 6, 7, 8}), 10, &shared));
  EXPECT_EQ(shared, 6);
  EXPECT_EQ(store.prefix_hits(), 1);
  EXPECT_EQ(store.prefix_hit_tokens(), 6);
  EXPECT_EQ(store.lane_len(0, 1), 6);
  EXPECT_TRUE(rows_match(store, 1, 6));  // adopted rows are the published bits

  // Divergent head shares nothing.
  ASSERT_TRUE(store.open_slot(2, ids({9, 2, 3, 4}), 6, &shared));
  EXPECT_EQ(shared, 0);
  EXPECT_EQ(store.prefix_hits(), 1);

  store.drop_slot(1);
  store.drop_slot(2);
  EXPECT_EQ(store.evict_unreferenced(), 4);
  EXPECT_EQ(store.pages_in_use(), 0);
  EXPECT_EQ(store.free_pages(), 32);
}

TEST(KvStore, IdenticalPromptSharesAllButOneToken) {
  // The match is capped at ids.size() - 1: a prefill must compute at least
  // one token to produce logits, even on a 100% cache hit.
  KvStore store(store_cfg(32));
  (void)store.register_lane();
  const auto prompt = ids({1, 2, 3, 4});
  ASSERT_TRUE(store.open_slot(0, prompt, 6, nullptr));
  append_rows(store, 0, 0, 4);
  store.publish(0, prompt);
  store.drop_slot(0);

  int64_t shared = -1;
  ASSERT_TRUE(store.open_slot(1, prompt, 6, &shared));
  EXPECT_EQ(shared, 3);
  store.drop_slot(1);
}

TEST(KvStore, CopyOnWriteLeavesSharedPagesImmutable) {
  KvStore store(store_cfg(/*pool_pages=*/32));
  (void)store.register_lane();
  const auto prompt = ids({1, 2, 3, 4, 5, 6});
  ASSERT_TRUE(store.open_slot(0, prompt, 8, nullptr));
  append_rows(store, 0, 0, 6);
  store.publish(0, prompt);
  store.drop_slot(0);

  // Two streams adopt the shared 6-token head, then diverge: each append
  // into the shared partial tail page must copy first.
  int64_t sh1 = -1, sh2 = -1;
  ASSERT_TRUE(store.open_slot(1, ids({1, 2, 3, 4, 5, 6, 7}), 9, &sh1));
  ASSERT_TRUE(store.open_slot(2, ids({1, 2, 3, 4, 5, 6, 8}), 9, &sh2));
  ASSERT_EQ(sh1, 6);
  ASSERT_EQ(sh2, 6);
  append_rows(store, 1, 6, 8);  // positions 6, 7 via COW of the tail page
  append_rows(store, 2, 6, 7);
  EXPECT_TRUE(rows_match(store, 1, 8));
  EXPECT_TRUE(rows_match(store, 2, 7));

  // A third adopter still sees the original published bits.
  int64_t sh3 = -1;
  ASSERT_TRUE(store.open_slot(3, ids({1, 2, 3, 4, 5, 6, 9}), 8, &sh3));
  ASSERT_EQ(sh3, 6);
  EXPECT_TRUE(rows_match(store, 3, 6));

  store.drop_slot(1);
  store.drop_slot(2);
  store.drop_slot(3);
  store.clear_prefix_cache();
  EXPECT_EQ(store.pages_in_use(), 0);
  EXPECT_EQ(store.slot_ref_pages(), 0);
}

TEST(KvStore, PublishUpgradesACachedPartialTailInPlace) {
  KvStore store(store_cfg(32));
  (void)store.register_lane();
  // Publish a 2-token prompt: one partial node.
  ASSERT_TRUE(store.open_slot(0, ids({1, 2}), 4, nullptr));
  append_rows(store, 0, 0, 2);
  store.publish(0, ids({1, 2}));
  store.drop_slot(0);

  // A longer prompt with the same head: adopts the partial node, COWs past
  // it, and its publish upgrades the node to the full 4-token page.
  int64_t shared = -1;
  ASSERT_TRUE(store.open_slot(1, ids({1, 2, 3, 4, 5}), 7, &shared));
  EXPECT_EQ(shared, 2);
  append_rows(store, 1, 2, 5);
  store.publish(1, ids({1, 2, 3, 4, 5}));
  store.drop_slot(1);

  ASSERT_TRUE(store.open_slot(2, ids({1, 2, 3, 4, 9}), 7, &shared));
  EXPECT_EQ(shared, 4);  // the upgraded full-page node matches whole
  EXPECT_TRUE(rows_match(store, 2, 4));
  store.drop_slot(2);
  store.clear_prefix_cache();
  EXPECT_EQ(store.pages_in_use(), 0);
}

TEST(KvStore, EvictionSparesPagesReferencedByOpenSlots) {
  KvStore store(store_cfg(32));
  (void)store.register_lane();
  const auto prompt = ids({1, 2, 3, 4, 5});
  ASSERT_TRUE(store.open_slot(0, prompt, 7, nullptr));
  append_rows(store, 0, 0, 5);
  store.publish(0, prompt);

  // The publisher still holds the pages: nothing is evictable.
  EXPECT_EQ(store.evict_unreferenced(), 0);
  EXPECT_TRUE(rows_match(store, 0, 5));

  // clear_prefix_cache drops the tree but slot-held pages stay resident.
  store.clear_prefix_cache();
  EXPECT_TRUE(rows_match(store, 0, 5));
  EXPECT_EQ(store.pages_in_use(), store.slot_ref_pages());

  store.drop_slot(0);
  EXPECT_EQ(store.pages_in_use(), 0);
  EXPECT_EQ(store.peak_pages(), 2);  // high-water mark survives the drop
}

namespace {

/// One thread of the storm: cycles open → append → publish → decode-append
/// → gather-verify → drop on its own slot, with prompts drawn from a tiny
/// vocabulary so prefix sharing, COW and upgrades happen constantly.
void storm_thread(KvStore& store, int slot, int iters, uint64_t seed,
                  std::atomic<int64_t>& successes,
                  std::atomic<int64_t>& mismatches) {
  tensor::Rng rng(seed);
  std::vector<float> k, v;
  for (int it = 0; it < iters; ++it) {
    const int64_t len = 4 + rng.index(5);  // 4..8 prompt tokens
    std::vector<int64_t> prompt;
    for (int64_t i = 0; i < len; ++i) prompt.push_back(rng.index(3));
    const int64_t final_len = len + 2;

    int64_t shared = -1;
    if (!store.open_slot(slot, prompt, final_len, &shared)) {
      (void)store.evict_unreferenced();
      if (!store.open_slot(slot, prompt, final_len, &shared)) continue;
    }
    ++successes;
    // Prefill the unshared suffix, publish, then decode two tokens (the
    // post-publish append COWs the freshly shared tail page).
    for (int64_t pos = shared; pos < final_len; ++pos) {
      fill_row(pos, k, v);
      for (int lane = 0; lane < store.lanes(); ++lane) {
        store.append(lane, slot, k.data(), v.data());
      }
      if (pos + 1 == len) store.publish(slot, prompt);
    }
    // Verify the full stream — adopted, COW'd and fresh rows alike.
    std::vector<float> gk(static_cast<size_t>(final_len * kRow));
    std::vector<float> gv(gk.size());
    std::vector<float> ek, ev;
    for (int lane = 0; lane < store.lanes(); ++lane) {
      store.gather(lane, slot, final_len, gk.data(), gv.data());
      for (int64_t pos = 0; pos < final_len; ++pos) {
        fill_row(pos, ek, ev);
        if (gk[static_cast<size_t>(pos * kRow)] != ek[0] ||
            gv[static_cast<size_t>(pos * kRow + kRow - 1)] !=
                ev[static_cast<size_t>(kRow - 1)]) {
          ++mismatches;
        }
      }
    }
    store.drop_slot(slot);
  }
}

void run_storm(bool fp16) {
  KvStoreConfig kc = store_cfg(/*pool_pages=*/64, fp16);
  KvStore store(kc);
  (void)store.register_lane();
  (void)store.register_lane();

  const int iters = hanayo_test::scaled(250);
  std::atomic<int64_t> successes{0};
  std::atomic<int64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&store, t, iters, &successes, &mismatches] {
      storm_thread(store, t, iters, 101 + 7 * static_cast<uint64_t>(t),
                   successes, mismatches);
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_GT(successes.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  // Every slot dropped: only tree residency may remain; clearing it must
  // return the pool to empty — the zero-leak invariant under concurrency.
  EXPECT_EQ(store.slot_ref_pages(), 0);
  store.clear_prefix_cache();
  EXPECT_EQ(store.pages_in_use(), 0);
  EXPECT_EQ(store.free_pages(), 64);
  EXPECT_LE(store.peak_pages(), 64);
}

}  // namespace

TEST(KvStore, AllocFreeStormUnderThreadsFp32) { run_storm(false); }

TEST(KvStore, AllocFreeStormUnderThreadsFp16) { run_storm(true); }

TEST(KvStore, OutOfRangeSlotsAndLanesAreRejected) {
  // Every slot- or lane-indexed entry point range-checks its ids: a bad id
  // is a std::invalid_argument, never an out-of-bounds page-table access.
  KvStore store(store_cfg(/*pool_pages=*/8));
  (void)store.register_lane();
  (void)store.register_lane();
  ASSERT_TRUE(store.open_slot(0, {}, 4, nullptr));
  std::vector<float> k, v;
  fill_row(0, k, v);
  std::vector<float> scratch(static_cast<size_t>(kPg * kRow));
  for (const int slot : {-1, 4, 1 << 20}) {  // max_slots == 4
    EXPECT_THROW(store.drop_slot(slot), std::invalid_argument);
    EXPECT_THROW(store.append(0, slot, k.data(), v.data()),
                 std::invalid_argument);
    EXPECT_THROW(store.gather(0, slot, 0, k.data(), v.data()),
                 std::invalid_argument);
    EXPECT_THROW((void)store.lane_len(0, slot), std::invalid_argument);
    EXPECT_THROW((void)store.slot_open(slot), std::invalid_argument);
    EXPECT_THROW(store.publish(slot, ids({1})), std::invalid_argument);
  }
  for (const int lane : {-1, 2, 1 << 20}) {  // two lanes registered
    EXPECT_THROW(store.append(lane, 0, k.data(), v.data()),
                 std::invalid_argument);
    EXPECT_THROW(store.gather(lane, 0, 0, k.data(), v.data()),
                 std::invalid_argument);
    EXPECT_THROW((void)store.lane_len(lane, 0), std::invalid_argument);
    EXPECT_THROW((void)store.run(lane, 0, 0, KvStore::Panel::K, 1, 0, kRow,
                                 scratch.data()),
                 std::invalid_argument);
  }
  // The rejected calls touched nothing.
  EXPECT_TRUE(store.slot_open(0));
  EXPECT_EQ(store.lane_len(0, 0), 0);
  EXPECT_EQ(store.lane_len(1, 0), 0);
  EXPECT_EQ(store.pages_in_use(), 0);
  store.drop_slot(0);
  EXPECT_FALSE(store.slot_open(0));
}

TEST(KvStore, RunReadsFp32InPlaceAndDequantisesFp16ColumnsIntoScratch) {
  for (const bool fp16 : {false, true}) {
    KvStore store(store_cfg(/*pool_pages=*/8, fp16));
    (void)store.register_lane();
    ASSERT_TRUE(store.open_slot(0, {}, 6, nullptr));
    append_rows(store, 0, 0, 6);  // page 0 full, page 1 holds rows 4, 5
    std::vector<float> scratch(static_cast<size_t>(kPg * kRow), -7.0f);
    std::vector<float> ek, ev;
    // Columns [2, 5) of page 1's two V rows.
    const float* vr =
        store.run(0, 0, /*page=*/1, KvStore::Panel::V, /*rows=*/2,
                  /*col0=*/2, /*cols=*/3, scratch.data());
    EXPECT_EQ(vr == scratch.data(), fp16) << (fp16 ? "fp16" : "fp32");
    for (int64_t r = 0; r < 2; ++r) {
      fill_row(4 + r, ek, ev);
      for (int64_t i = 2; i < 5; ++i) {
        EXPECT_EQ(vr[r * kRow + i], ev[static_cast<size_t>(i)])
            << "row " << r << " col " << i;
      }
    }
    if (fp16) {
      // Only the requested columns were written: heads reading disjoint
      // column ranges can share one scratch.
      EXPECT_EQ(scratch[0], -7.0f);
      EXPECT_EQ(scratch[5], -7.0f);
      EXPECT_EQ(scratch[static_cast<size_t>(2 * kRow)], -7.0f);
    }
    // Runs stop at the cached length and at the page edge.
    EXPECT_THROW((void)store.run(0, 0, 1, KvStore::Panel::K, 3, 0, kRow,
                                 scratch.data()),
                 std::logic_error);
    EXPECT_THROW((void)store.run(0, 0, 0, KvStore::Panel::K, kPg + 1, 0, kRow,
                                 scratch.data()),
                 std::logic_error);
    store.drop_slot(0);
  }
}
