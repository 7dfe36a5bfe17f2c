// KV-cache incremental decode vs full-prefix recompute.
//
// The deterministic ascending-k kernels make the strong claim testable:
// decoding token-by-token through a KV cache produces *bit-identical*
// logits to recomputing the whole prefix from scratch each step. These are
// the model-layer guarantees the serving runtime's cross-backend token
// equality rests on.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/partition.hpp"
#include "model/transformer.hpp"
#include "runtime/kv_store.hpp"
#include "tensor/rng.hpp"

using namespace hanayo;
using model::ModelConfig;
using model::StageModule;
using tensor::Rng;
using tensor::Tensor;

namespace {

const ModelConfig kTiny = ModelConfig::tiny(/*layers=*/4, /*hidden=*/32,
                                            /*heads=*/2, /*vocab=*/53,
                                            /*seq=*/24);

StageModule full_module(const ModelConfig& cfg, uint64_t seed = 99) {
  const auto descs = cfg.layer_descs();
  return StageModule(descs, 0, static_cast<int>(descs.size()), seed,
                     cfg.init_std);
}

Tensor ids_tensor(const std::vector<int64_t>& ids) {
  Tensor t({1, static_cast<int64_t>(ids.size())});
  for (size_t i = 0; i < ids.size(); ++i) {
    t[static_cast<int64_t>(i)] = static_cast<float>(ids[i]);
  }
  return t;
}

}  // namespace

TEST(Decode, KvCacheMatchesFullPrefixRecomputeBitwise) {
  StageModule inc = full_module(kTiny);    // decodes incrementally, slot 0
  StageModule ref = full_module(kTiny);    // recomputes the prefix each step

  Rng rng(5);
  std::vector<int64_t> seq;
  for (int i = 0; i < 6; ++i) seq.push_back(rng.index(kTiny.vocab));

  // Prefill the incremental module with the prompt.
  Tensor prompt = ids_tensor(seq);
  Tensor y_inc = inc.decode(prompt, /*pos0=*/0, /*slot=*/0);

  for (int step = 0; step < 8; ++step) {
    // Ground truth: fresh slot, whole prefix in one call.
    ref.drop_slot(0);
    Tensor y_ref = ref.decode(ids_tensor(seq), 0, 0);

    const int64_t t = y_ref.size(1), V = y_ref.size(2);
    const float* row_ref = y_ref.data() + (t - 1) * V;
    const float* row_inc = y_inc.data() + (y_inc.size(1) - 1) * V;
    for (int64_t v = 0; v < V; ++v) {
      ASSERT_EQ(row_ref[v], row_inc[v])
          << "step " << step << " logit " << v << " diverged";
    }

    // Greedy-extend both with the agreed argmax.
    int64_t best = 0;
    for (int64_t v = 1; v < V; ++v) {
      if (row_ref[v] > row_ref[best]) best = v;
    }
    seq.push_back(best);
    Tensor one({1, 1});
    one[0] = static_cast<float>(best);
    y_inc = inc.decode(one, static_cast<int64_t>(seq.size()) - 1, 0);
  }
}

TEST(Decode, ForwardInferMatchesTrainingForward) {
  // The inference path computes the same function as the training forward
  // (floats compare equal; only saved-for-backward state differs).
  StageModule train = full_module(kTiny);
  StageModule infer = full_module(kTiny);

  Rng rng(11);
  std::vector<int64_t> seq;
  for (int i = 0; i < 10; ++i) seq.push_back(rng.index(kTiny.vocab));
  Tensor x = ids_tensor(seq);

  Tensor y_train = train.forward(x, /*mb=*/0);
  Tensor y_infer = infer.decode(x, 0, 0);
  ASSERT_EQ(y_train.shape(), y_infer.shape());
  for (int64_t i = 0; i < y_train.numel(); ++i) {
    ASSERT_EQ(y_train[i], y_infer[i]) << "element " << i;
  }
  // Training cached activations; inference cached only KV rows.
  EXPECT_GT(train.cached_bytes(), 0);
  EXPECT_EQ(infer.cached_bytes(), 0);
  EXPECT_GT(infer.slot_bytes(), 0);
}

TEST(Decode, SlotsAreIndependentStreams) {
  StageModule m = full_module(kTiny);
  Rng rng(7);
  std::vector<int64_t> a, b;
  for (int i = 0; i < 5; ++i) a.push_back(rng.index(kTiny.vocab));
  for (int i = 0; i < 3; ++i) b.push_back(rng.index(kTiny.vocab));

  // Interleave two streams through different slots.
  Tensor ya = m.decode(ids_tensor(a), 0, /*slot=*/3);
  Tensor yb = m.decode(ids_tensor(b), 0, /*slot=*/5);

  // A fresh module decoding only stream b agrees bitwise.
  StageModule solo = full_module(kTiny);
  Tensor yb_solo = solo.decode(ids_tensor(b), 0, 0);
  for (int64_t i = 0; i < yb.numel(); ++i) ASSERT_EQ(yb[i], yb_solo[i]);

  // Dropping one slot frees its KV bytes but not the other's.
  const int64_t both = m.slot_bytes();
  m.drop_slot(3);
  const int64_t only_b = m.slot_bytes();
  EXPECT_LT(only_b, both);
  EXPECT_GT(only_b, 0);
  m.drop_slot(5);
  EXPECT_EQ(m.slot_bytes(), 0);
}

TEST(Decode, OutOfOrderDecodeThrows) {
  StageModule m = full_module(kTiny);
  Tensor prompt = ids_tensor({1, 2, 3});
  m.decode(prompt, 0, 0);
  Tensor one({1, 1});
  one[0] = 4.0f;
  // Cached length is 3; feeding pos0=5 would skip positions.
  EXPECT_THROW(m.decode(one, 5, 0), std::logic_error);
}

TEST(Decode, PastPositionalTableThrows) {
  StageModule m = full_module(kTiny);
  std::vector<int64_t> seq(static_cast<size_t>(kTiny.seq) + 1, 1);
  EXPECT_THROW(m.decode(ids_tensor(seq), 0, 0), std::invalid_argument);
}

TEST(Decode, WorksAcrossPartitionedStages) {
  // Chaining stage modules (as pipeline workers do) equals the monolithic
  // module bitwise, prefill and decode alike.
  const auto descs = kTiny.layer_descs();
  const auto ranges = model::partition_layers(descs, 3, kTiny.seq);
  std::vector<StageModule> stages;
  for (const auto& r : ranges) {
    stages.emplace_back(descs, r.begin, r.end, /*seed=*/99, kTiny.init_std);
  }
  StageModule mono = full_module(kTiny);

  Rng rng(3);
  std::vector<int64_t> seq;
  for (int i = 0; i < 4; ++i) seq.push_back(rng.index(kTiny.vocab));

  Tensor h = ids_tensor(seq);
  for (auto& st : stages) h = st.decode(h, 0, 0);
  Tensor h_mono = mono.decode(ids_tensor(seq), 0, 0);
  for (int64_t i = 0; i < h.numel(); ++i) ASSERT_EQ(h[i], h_mono[i]);

  // One decode step through the chain.
  const int64_t V = h.size(2);
  const float* row = h.data() + (h.size(1) - 1) * V;
  int64_t best = 0;
  for (int64_t v = 1; v < V; ++v) {
    if (row[v] > row[best]) best = v;
  }
  Tensor one({1, 1});
  one[0] = static_cast<float>(best);
  Tensor d = one;
  for (auto& st : stages) d = st.decode(d, 4, 0);

  seq.push_back(best);
  mono.drop_slot(0);
  Tensor full = mono.decode(ids_tensor(seq), 0, 0);
  const float* last_full = full.data() + (full.size(1) - 1) * V;
  const float* last_inc = d.data();
  for (int64_t v = 0; v < V; ++v) ASSERT_EQ(last_full[v], last_inc[v]);
}

// ---- Half-precision KV-cache storage (InferConfig::kv_fp16) --------------

TEST(Decode, Fp16KvHalvesSlotBytes) {
  StageModule f32 = full_module(kTiny);
  StageModule f16 = full_module(kTiny);
  f16.set_kv_fp16(true);

  Rng rng(5);
  std::vector<int64_t> seq;
  for (int i = 0; i < 16; ++i) seq.push_back(rng.index(kTiny.vocab));
  (void)f32.decode(ids_tensor(seq), 0, 0);
  (void)f16.decode(ids_tensor(seq), 0, 0);

  // fp32 slots grow capacity in powers of two, fp16 slots resize exactly,
  // so compare against the exact row count, not the fp32 capacity: 2 bytes
  // per cached element instead of 4.
  const auto descs = kTiny.layer_descs();
  int64_t exact16 = 0;
  for (const auto& d : descs) {
    if (d.type == model::LayerDesc::Type::Block) {
      exact16 += 2 * 16 * kTiny.hidden * 2;  // K and V, 16 rows, 2 bytes
    }
  }
  EXPECT_EQ(f16.slot_bytes(), exact16);
  EXPECT_GE(f32.slot_bytes(), 2 * exact16);

  f16.drop_slot(0);
  EXPECT_EQ(f16.slot_bytes(), 0);
}

TEST(Decode, Fp16KvDecodeWithinHalfPrecisionOfFp32) {
  StageModule f32 = full_module(kTiny);
  StageModule f16 = full_module(kTiny);
  f16.set_kv_fp16(true);

  Rng rng(5);
  std::vector<int64_t> seq;
  for (int i = 0; i < 6; ++i) seq.push_back(rng.index(kTiny.vocab));

  Tensor ya = f32.decode(ids_tensor(seq), 0, 0);
  Tensor yb = f16.decode(ids_tensor(seq), 0, 0);
  ASSERT_EQ(ya.shape(), yb.shape());

  // Greedy-extend the fp32 stream for a few steps and compare logits at a
  // tolerance: quantizing K/V panels perturbs each attention score by
  // O(kHalfEps), so the final-row logits must track within a loose relative
  // band of the logit scale — not bitwise.
  for (int step = 0; step < 6; ++step) {
    const int64_t t = ya.size(1), V = ya.size(2);
    const float* ra = ya.data() + (t - 1) * V;
    const float* rb = yb.data() + (yb.size(1) - 1) * V;
    float scale = 1e-3f;
    for (int64_t v = 0; v < V; ++v) scale = std::max(scale, std::abs(ra[v]));
    for (int64_t v = 0; v < V; ++v) {
      EXPECT_NEAR(ra[v], rb[v], 0.02f * scale)
          << "step " << step << " logit " << v;
    }
    int64_t best = 0;
    for (int64_t v = 1; v < V; ++v) {
      if (ra[v] > ra[best]) best = v;
    }
    seq.push_back(best);
    Tensor one({1, 1});
    one[0] = static_cast<float>(best);
    const int64_t pos = static_cast<int64_t>(seq.size()) - 1;
    ya = f32.decode(one, pos, 0);
    yb = f16.decode(one, pos, 0);
  }
}

TEST(Decode, Fp16KvIncrementalMatchesFp16FullPrefixBitwise) {
  // The exactness guarantee survives quantization: K/V rows quantize once,
  // whichever call produced them, so fp16 incremental decode still equals
  // fp16 full-prefix recompute bit-for-bit (this is what keeps Threads and
  // Reference token-identical under kv_fp16).
  StageModule inc = full_module(kTiny);
  StageModule ref = full_module(kTiny);
  inc.set_kv_fp16(true);
  ref.set_kv_fp16(true);

  Rng rng(5);
  std::vector<int64_t> seq;
  for (int i = 0; i < 5; ++i) seq.push_back(rng.index(kTiny.vocab));
  Tensor y_inc = inc.decode(ids_tensor(seq), 0, 0);

  for (int step = 0; step < 5; ++step) {
    ref.drop_slot(0);
    Tensor y_ref = ref.decode(ids_tensor(seq), 0, 0);
    const int64_t t = y_ref.size(1), V = y_ref.size(2);
    const float* rr = y_ref.data() + (t - 1) * V;
    const float* ri = y_inc.data() + (y_inc.size(1) - 1) * V;
    for (int64_t v = 0; v < V; ++v) {
      ASSERT_EQ(rr[v], ri[v]) << "step " << step << " logit " << v;
    }
    int64_t best = 0;
    for (int64_t v = 1; v < V; ++v) {
      if (rr[v] > rr[best]) best = v;
    }
    seq.push_back(best);
    Tensor one({1, 1});
    one[0] = static_cast<float>(best);
    y_inc = inc.decode(one, static_cast<int64_t>(seq.size()) - 1, 0);
  }
}

TEST(Decode, Fp16KvToggleWithStreamsInFlightThrows) {
  StageModule m = full_module(kTiny);
  Rng rng(5);
  std::vector<int64_t> seq = {1, 2, 3};
  (void)m.decode(ids_tensor(seq), 0, 0);
  EXPECT_THROW(m.set_kv_fp16(true), std::logic_error);
  m.drop_slot(0);
  EXPECT_NO_THROW(m.set_kv_fp16(true));
}

// ---- Paged KV storage (runtime::KvStore through model/attention) ---------

namespace {

runtime::KvStoreConfig paged_cfg(const ModelConfig& cfg, bool fp16) {
  runtime::KvStoreConfig kc;
  kc.page_tokens = 4;  // small pages: every stream spans several
  kc.pool_pages = 64;
  kc.row_elems = cfg.hidden;
  kc.max_slots = 4;
  kc.fp16 = fp16;
  kc.prefix_cache = true;
  return kc;
}

/// The correctness anchor, paged: incremental decode through pooled pages
/// must stay bitwise identical to a full-prefix recompute on a plain
/// contiguous-cache module. The gather/append copies are memcpy (fp32) or
/// the same quantize-once/dequantize pair as the contiguous fp16 cache, so
/// the kernels see byte-identical panels.
void expect_paged_matches_recompute(bool fp16) {
  StageModule inc = full_module(kTiny);  // paged, decodes incrementally
  StageModule ref = full_module(kTiny);  // contiguous, recomputes each step
  runtime::KvStore store(paged_cfg(kTiny, fp16));
  inc.set_kv_store(&store);
  ref.set_kv_fp16(fp16);

  Rng rng(5);
  std::vector<int64_t> seq;
  for (int i = 0; i < 6; ++i) seq.push_back(rng.index(kTiny.vocab));

  const int kSteps = 8;
  int64_t shared = -1;
  ASSERT_TRUE(store.open_slot(/*slot=*/0, seq,
                              static_cast<int64_t>(seq.size()) + kSteps,
                              &shared));
  EXPECT_EQ(shared, 0);  // cold cache: the full prompt prefills
  Tensor y_inc = inc.decode(ids_tensor(seq), /*pos0=*/0, /*slot=*/0);

  for (int step = 0; step < kSteps; ++step) {
    ref.drop_slot(0);
    Tensor y_ref = ref.decode(ids_tensor(seq), 0, 0);
    const int64_t t = y_ref.size(1), V = y_ref.size(2);
    const float* row_ref = y_ref.data() + (t - 1) * V;
    const float* row_inc = y_inc.data() + (y_inc.size(1) - 1) * V;
    for (int64_t v = 0; v < V; ++v) {
      ASSERT_EQ(row_ref[v], row_inc[v])
          << (fp16 ? "fp16" : "fp32") << " step " << step << " logit " << v;
    }
    int64_t best = 0;
    for (int64_t v = 1; v < V; ++v) {
      if (row_ref[v] > row_ref[best]) best = v;
    }
    seq.push_back(best);
    Tensor one({1, 1});
    one[0] = static_cast<float>(best);
    y_inc = inc.decode(one, static_cast<int64_t>(seq.size()) - 1, 0);
  }
  EXPECT_EQ(store.lane_len(0, 0), static_cast<int64_t>(seq.size()));
  store.drop_slot(0);
  EXPECT_EQ(store.pages_in_use(), 0);  // nothing published, nothing leaks
}

}  // namespace

TEST(Decode, PagedKvMatchesFullPrefixRecomputeBitwise) {
  expect_paged_matches_recompute(/*fp16=*/false);
}

TEST(Decode, PagedFp16KvMatchesFp16FullPrefixRecomputeBitwise) {
  expect_paged_matches_recompute(/*fp16=*/true);
}

TEST(Decode, PagedSharedPrefixDecodesBitwiseIdenticalToUnshared) {
  // Two prompts with a common head through one store: the second adopts
  // the first's published pages and skips their prefill, yet its logits
  // equal an unshared full prefill bit-for-bit — K/V rows at a position
  // depend only on the token prefix, so adopted rows ARE the rows the
  // skipped prefill would have produced.
  StageModule paged = full_module(kTiny);
  runtime::KvStore store(paged_cfg(kTiny, false));
  paged.set_kv_store(&store);
  StageModule plain = full_module(kTiny);

  const std::vector<int64_t> head = {7, 3, 11, 5, 2, 9};  // shared system head
  std::vector<int64_t> a = head, b = head;
  a.insert(a.end(), {13, 4});
  b.insert(b.end(), {1, 8});

  ASSERT_TRUE(store.open_slot(0, a, static_cast<int64_t>(a.size()) + 1,
                              nullptr));
  (void)paged.decode(ids_tensor(a), 0, 0);
  store.publish(0, a);
  store.drop_slot(0);

  int64_t shared = -1;
  ASSERT_TRUE(store.open_slot(1, b, static_cast<int64_t>(b.size()) + 1,
                              &shared));
  EXPECT_EQ(shared, static_cast<int64_t>(head.size()));
  EXPECT_EQ(store.prefix_hit_tokens(), static_cast<int64_t>(head.size()));
  // Prefill only the unshared suffix, positions [shared, b.size()).
  std::vector<int64_t> tail(b.begin() + shared, b.end());
  Tensor y_shared = paged.decode(ids_tensor(tail), shared, 1);
  Tensor y_plain = plain.decode(ids_tensor(b), 0, 0);

  const int64_t V = y_plain.size(2);
  const float* row_s = y_shared.data() + (y_shared.size(1) - 1) * V;
  const float* row_p = y_plain.data() + (y_plain.size(1) - 1) * V;
  for (int64_t v = 0; v < V; ++v) {
    ASSERT_EQ(row_s[v], row_p[v]) << "logit " << v;
  }
  store.drop_slot(1);
  store.clear_prefix_cache();
  EXPECT_EQ(store.pages_in_use(), 0);
}

TEST(Decode, PagedDecodeRejectsBatchesAndOutOfOrderPositions) {
  StageModule m = full_module(kTiny);
  runtime::KvStore store(paged_cfg(kTiny, false));
  m.set_kv_store(&store);
  ASSERT_TRUE(store.open_slot(0, {}, 8, nullptr));
  Tensor two({2, 3});  // paged streams are batch-1 by contract
  EXPECT_THROW(m.decode(two, 0, 0), std::invalid_argument);
  (void)m.decode(ids_tensor({1, 2, 3}), 0, 0);
  Tensor one({1, 1});
  one[0] = 4.0f;
  EXPECT_THROW(m.decode(one, 5, 0), std::logic_error);  // skips position 3
  store.drop_slot(0);
}

// ---- Page boundaries: every page size, mid-page suffix prefills ----------

namespace {

/// A store whose pages hold `page_tokens` rows, sized so every slot can
/// hold a full-context stream plus its copy-on-write spares.
runtime::KvStoreConfig page_cfg(const ModelConfig& cfg, int page_tokens,
                                bool fp16) {
  runtime::KvStoreConfig kc = paged_cfg(cfg, fp16);
  kc.page_tokens = page_tokens;
  kc.pool_pages = kc.max_slots * cfg.layers *
                  ((cfg.seq + page_tokens - 1) / page_tokens + 1);
  return kc;
}

/// Greedy argmax of the last row.
int64_t last_row_argmax(const Tensor& y) {
  const int64_t V = y.size(2);
  const float* row = y.data() + (y.size(1) - 1) * V;
  int64_t best = 0;
  for (int64_t v = 1; v < V; ++v) {
    if (row[v] > row[best]) best = v;
  }
  return best;
}

/// Last rows of `a` and `b` agree bitwise.
::testing::AssertionResult same_last_row(const Tensor& a, const Tensor& b) {
  const int64_t V = a.size(2);
  const float* ra = a.data() + (a.size(1) - 1) * V;
  const float* rb = b.data() + (b.size(1) - 1) * V;
  for (int64_t v = 0; v < V; ++v) {
    if (ra[v] != rb[v]) {
      return ::testing::AssertionFailure()
             << "logit " << v << ": " << ra[v] << " vs " << rb[v];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Greedy-decodes `steps` tokens after `seq`'s prefill result `y` through
/// `paged` (slot `slot`), checking every step's last row bitwise against a
/// bare-module full-prefix recompute.
void expect_decode_tracks_recompute(StageModule& paged, int slot, Tensor y,
                                    std::vector<int64_t> seq, int steps,
                                    bool fp16, const std::string& what) {
  StageModule ref = full_module(kTiny);
  ref.set_kv_fp16(fp16);
  for (int step = 0; step <= steps; ++step) {
    ref.drop_slot(0);
    const Tensor y_ref = ref.decode(ids_tensor(seq), 0, 0);
    ASSERT_TRUE(same_last_row(y_ref, y)) << what << " step " << step;
    if (step == steps) break;
    const int64_t best = last_row_argmax(y_ref);
    seq.push_back(best);
    Tensor one({1, 1});
    one[0] = static_cast<float>(best);
    y = paged.decode(one, static_cast<int64_t>(seq.size()) - 1, slot);
  }
}

}  // namespace

TEST(Decode, PagedDecodeMatchesRecomputeAtEveryPageSize) {
  // Page sizes 1 (every row its own page), 3 (runs of uneven length, the
  // prompt ending mid-page) and 16 (the whole context in one or two runs):
  // the per-run score and context kernels must agree bitwise with the
  // bare module's recompute, fp32 and fp16.
  for (const int pg : {1, 3, 16}) {
    for (const bool fp16 : {false, true}) {
      const std::string what = "page " + std::to_string(pg) +
                               (fp16 ? " fp16" : " fp32");
      StageModule inc = full_module(kTiny);
      runtime::KvStore store(page_cfg(kTiny, pg, fp16));
      inc.set_kv_store(&store);
      Rng rng(21);
      std::vector<int64_t> seq;
      for (int i = 0; i < 5; ++i) seq.push_back(rng.index(kTiny.vocab));
      const int kSteps = 14;  // 19 positions: crosses a 16-row page edge
      ASSERT_TRUE(store.open_slot(0, seq, 5 + kSteps, nullptr));
      const Tensor y = inc.decode(ids_tensor(seq), 0, 0);
      expect_decode_tracks_recompute(inc, 0, y, seq, kSteps, fp16, what);
      EXPECT_EQ(store.lane_len(0, 0), 5 + kSteps) << what;
      store.drop_slot(0);
      EXPECT_EQ(store.pages_in_use(), 0) << what;
    }
  }
}

TEST(Decode, PagedMidPageSuffixPrefillMatchesRecompute) {
  // A shared-prefix admission whose suffix prefill starts mid-page
  // (pos0 = 5 on 3- and 16-row pages): the adopted partial page is
  // copied on write, and the suffix and every later decode step still
  // equal a full-prefix recompute bitwise.
  const std::vector<int64_t> head = {7, 3, 11, 5, 2};
  for (const int pg : {1, 3, 16}) {
    for (const bool fp16 : {false, true}) {
      const std::string what = "page " + std::to_string(pg) +
                               (fp16 ? " fp16" : " fp32");
      StageModule paged = full_module(kTiny);
      runtime::KvStore store(page_cfg(kTiny, pg, fp16));
      paged.set_kv_store(&store);
      std::vector<int64_t> a = head, b = head;
      a.insert(a.end(), {13, 4});
      b.insert(b.end(), {1, 8, 6});

      ASSERT_TRUE(store.open_slot(0, a, static_cast<int64_t>(a.size()),
                                  nullptr));
      (void)paged.decode(ids_tensor(a), 0, 0);
      store.publish(0, a);
      store.drop_slot(0);

      const int kSteps = 6;
      int64_t shared = -1;
      ASSERT_TRUE(store.open_slot(
          1, b, static_cast<int64_t>(b.size()) + kSteps, &shared));
      ASSERT_EQ(shared, static_cast<int64_t>(head.size())) << what;
      const std::vector<int64_t> tail(b.begin() + shared, b.end());
      const Tensor y = paged.decode(ids_tensor(tail), shared, 1);
      expect_decode_tracks_recompute(paged, 1, y, b, kSteps, fp16, what);
      store.drop_slot(1);
      store.clear_prefix_cache();
      EXPECT_EQ(store.pages_in_use(), 0) << what;
    }
  }
}

TEST(Decode, BareModuleSlotPastItsTableThrows) {
  // A module without an attached store decodes through its own, whose
  // slot table is [0, kBareSlots): an id outside it is rejected, not
  // written past the table.
  StageModule m = full_module(kTiny);
  const int past = StageModule::kBareSlots;
  EXPECT_THROW(m.decode(ids_tensor({1, 2, 3}), 0, past),
               std::invalid_argument);
  EXPECT_THROW(m.decode(ids_tensor({1, 2, 3}), 0, -1), std::invalid_argument);
  Tensor one({1, 1});
  one[0] = 4.0f;
  EXPECT_THROW(m.decode(one, 3, past), std::invalid_argument);
  EXPECT_THROW(m.drop_slot(past), std::invalid_argument);
  EXPECT_EQ(m.slot_bytes(), 0);
  // The last slot of the table is an ordinary stream.
  (void)m.decode(ids_tensor({1, 2, 3}), 0, past - 1);
  EXPECT_GT(m.slot_bytes(), 0);
  m.drop_slot(past - 1);
  EXPECT_EQ(m.slot_bytes(), 0);
}

TEST(Decode, BareModuleRejectsBatches) {
  // Decode streams are batch-1 with or without an attached store.
  StageModule m = full_module(kTiny);
  Tensor two({2, 3});
  EXPECT_THROW(m.decode(two, 0, 0), std::invalid_argument);
}
