#include "runtime/kv_store.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "tensor/half.hpp"

namespace hanayo::runtime {

// One radix-tree node covers one page worth of token ids (the tail node
// may cover fewer) and pins one page per lane while it lives. Children
// are keyed by their first token; every non-tail node spans exactly
// page_tokens ids, so a root-to-node path always lands on the page grid.
struct KvStore::Node {
  std::vector<int64_t> tokens;
  std::vector<int32_t> pages;  // [lanes]
  std::vector<std::unique_ptr<Node>> kids;

  static Node* find_child(const std::vector<std::unique_ptr<Node>>& kids,
                          int64_t first) {
    for (const auto& k : kids) {
      if (!k->tokens.empty() && k->tokens[0] == first) return k.get();
    }
    return nullptr;
  }
};

namespace {

/// Longest common prefix of `tokens` and `ids[pos, pos + limit)`.
int64_t match_len(const std::vector<int64_t>& tokens,
                  const std::vector<int64_t>& ids, int64_t pos,
                  int64_t limit) {
  const int64_t n = std::min<int64_t>(static_cast<int64_t>(tokens.size()),
                                      limit);
  int64_t m = 0;
  while (m < n && tokens[static_cast<size_t>(m)] ==
                      ids[static_cast<size_t>(pos + m)]) {
    ++m;
  }
  return m;
}

}  // namespace

KvStore::KvStore(const KvStoreConfig& cfg) : cfg_(cfg) {
  if (cfg_.page_tokens < 1) {
    throw std::invalid_argument("KvStore: page_tokens must be >= 1");
  }
  if (cfg_.pool_pages < 1) {
    throw std::invalid_argument("KvStore: pool_pages must be >= 1");
  }
  if (cfg_.row_elems < 1 || cfg_.max_slots < 1) {
    throw std::invalid_argument("KvStore: row_elems and max_slots required");
  }
  const int64_t elems = cfg_.pool_pages * page_elems();
  if (cfg_.fp16) {
    data16_.assign(static_cast<size_t>(elems), 0);
  } else {
    data32_.assign(static_cast<size_t>(elems), 0.0f);
  }
  pages_.assign(static_cast<size_t>(cfg_.pool_pages), Page{});
  free_.reserve(static_cast<size_t>(cfg_.pool_pages));
  for (int64_t p = cfg_.pool_pages - 1; p >= 0; --p) {
    free_.push_back(static_cast<int32_t>(p));
  }
  slots_.assign(static_cast<size_t>(cfg_.max_slots), SlotInfo{});
}

KvStore::~KvStore() = default;

int KvStore::register_lane() {
  std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
  const int lane = lanes_++;
  lane_slots_.resize(static_cast<size_t>(lanes_) *
                     static_cast<size_t>(cfg_.max_slots));
  return lane;
}

int64_t KvStore::page_elems() const {
  return 2ll * cfg_.page_tokens * cfg_.row_elems;
}

int64_t KvStore::page_bytes() const {
  return page_elems() * static_cast<int64_t>(cfg_.fp16 ? sizeof(uint16_t)
                                                       : sizeof(float));
}

void KvStore::check_slot(int slot) const {
  if (slot < 0 || slot >= cfg_.max_slots) {
    throw std::invalid_argument("KvStore: slot " + std::to_string(slot) +
                                " out of range [0, " +
                                std::to_string(cfg_.max_slots) + ")");
  }
}

const KvStore::LaneSlot& KvStore::lane_slot(int lane, int slot) const {
  if (lane < 0 || lane >= lanes_) {
    throw std::invalid_argument("KvStore: lane " + std::to_string(lane) +
                                " out of range [0, " +
                                std::to_string(lanes_) + ")");
  }
  check_slot(slot);
  return lane_slots_[static_cast<size_t>(lane) *
                         static_cast<size_t>(cfg_.max_slots) +
                     static_cast<size_t>(slot)];
}

KvStore::LaneSlot& KvStore::lane_slot(int lane, int slot) {
  return const_cast<LaneSlot&>(std::as_const(*this).lane_slot(lane, slot));
}

float* KvStore::k_row32(int32_t page, int row) {
  return data32_.data() + page * page_elems() +
         static_cast<int64_t>(row) * cfg_.row_elems;
}

uint16_t* KvStore::k_row16(int32_t page, int row) {
  return data16_.data() + page * page_elems() +
         static_cast<int64_t>(row) * cfg_.row_elems;
}

int64_t KvStore::pages_needed(int64_t final_len, int64_t shared_tokens) const {
  const int64_t pg = cfg_.page_tokens;
  // Worst case per lane: every page from the first non-fully-shared one
  // through the final token, plus one copy-on-write spare when the prefix
  // cache may publish (and so share) this stream's own partial tail page.
  int64_t per_lane = (final_len + pg - 1) / pg - shared_tokens / pg;
  if (cfg_.prefix_cache) per_lane += 1;
  if (per_lane < 0) per_lane = 0;
  return per_lane * std::max(1, lanes_);
}

int32_t KvStore::alloc_page_locked(int slot) {
  SlotInfo& si = slots_[static_cast<size_t>(slot)];
  if (si.reserved <= 0 || free_.empty()) {
    throw std::logic_error("KvStore: page reservation exhausted");
  }
  const int32_t p = free_.back();
  free_.pop_back();
  pages_[static_cast<size_t>(p)] = Page{/*refs=*/1, /*tree_refs=*/0};
  ++slot_ref_pages_;
  ++in_use_;
  peak_ = std::max(peak_, in_use_);
  --si.reserved;
  --reserved_total_;
  return p;
}

void KvStore::ref_page_locked(int32_t p) {
  if (pages_[static_cast<size_t>(p)].refs++ == 0) ++slot_ref_pages_;
}

void KvStore::free_if_unreferenced_locked(int32_t p) {
  Page& pg = pages_[static_cast<size_t>(p)];
  if (pg.refs == 0 && pg.tree_refs == 0) {
    free_.push_back(p);
    --in_use_;
  }
}

void KvStore::unref_page_locked(int32_t p) {
  if (--pages_[static_cast<size_t>(p)].refs == 0) {
    --slot_ref_pages_;
    free_if_unreferenced_locked(p);
  }
}

void KvStore::tree_unref_locked(int32_t p) {
  --pages_[static_cast<size_t>(p)].tree_refs;
  free_if_unreferenced_locked(p);
}

bool KvStore::page_shared(int32_t p) const {
  const Page& pg = pages_[static_cast<size_t>(p)];
  return pg.refs + pg.tree_refs > 1;
}

bool KvStore::open_slot(int slot, const std::vector<int64_t>& ids,
                        int64_t final_len, int64_t* shared_out) {
  std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
  if (lanes_ == 0) throw std::logic_error("KvStore: no lanes registered");
  check_slot(slot);
  SlotInfo& si = slots_[static_cast<size_t>(slot)];
  if (si.open) throw std::logic_error("KvStore: slot already open");

  // Longest cached prefix, capped so the prefill computes >= 1 token.
  const int64_t cap =
      cfg_.prefix_cache ? static_cast<int64_t>(ids.size()) - 1 : 0;
  std::vector<const Node*> matched;
  int64_t shared = 0;
  const std::vector<std::unique_ptr<Node>>* level = &roots_;
  while (shared < cap) {
    const Node* c = Node::find_child(*level, ids[static_cast<size_t>(shared)]);
    if (c == nullptr) break;
    const int64_t m = match_len(c->tokens, ids, shared, cap - shared);
    if (m == 0) break;
    matched.push_back(c);
    shared += m;
    // Descending past a node is only sound when the node matched in full
    // (its page's rows beyond a partial match belong to someone else's
    // prompt) and spans a whole page (tail nodes have no children).
    if (m < static_cast<int64_t>(c->tokens.size()) ||
        static_cast<int64_t>(c->tokens.size()) < cfg_.page_tokens) {
      break;
    }
    level = &c->kids;
  }

  const int64_t need = pages_needed(final_len, shared);
  if (need > static_cast<int64_t>(free_.size()) - reserved_total_) {
    return false;  // pool dry: caller evicts and retries, or sheds load
  }

  for (const Node* n : matched) {
    for (int lane = 0; lane < lanes_; ++lane) {
      ref_page_locked(n->pages[static_cast<size_t>(lane)]);
      lane_slot(lane, slot).table.push_back(
          n->pages[static_cast<size_t>(lane)]);
    }
  }
  for (int lane = 0; lane < lanes_; ++lane) lane_slot(lane, slot).len = shared;
  si.open = true;
  si.reserved = need;
  si.shared = shared;
  reserved_total_ += need;
  if (shared > 0) {
    ++hits_;
    hit_tokens_ += shared;
  }
  if (shared_out != nullptr) *shared_out = shared;
  return true;
}

void KvStore::publish(int slot, const std::vector<int64_t>& ids) {
  check_slot(slot);
  if (!cfg_.prefix_cache) return;
  std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
  const int64_t pg = cfg_.page_tokens;
  const int64_t n = static_cast<int64_t>(ids.size());
  std::vector<std::unique_ptr<Node>>* level = &roots_;
  int64_t pos = 0;
  int page_idx = 0;
  while (pos < n) {
    const int64_t chunk = std::min<int64_t>(pg, n - pos);
    Node* c = Node::find_child(*level, ids[static_cast<size_t>(pos)]);
    if (c != nullptr) {
      const int64_t m = match_len(c->tokens, ids, pos, chunk);
      const int64_t clen = static_cast<int64_t>(c->tokens.size());
      if (m == clen && m == chunk) {
        // Identical chunk already cached; our copy of the page stays
        // private (first writer wins) and we continue below it.
        pos += m;
        ++page_idx;
        if (chunk < pg) break;
        level = &c->kids;
        continue;
      }
      if (m == clen && m < chunk && c->kids.empty() && clen < pg) {
        // The cached tail is a strict prefix of our chunk: upgrade the
        // node in place to the longer page.
        for (int lane = 0; lane < lanes_; ++lane) {
          const int32_t ours =
              lane_slot(lane, slot).table[static_cast<size_t>(page_idx)];
          ++pages_[static_cast<size_t>(ours)].tree_refs;
          tree_unref_locked(c->pages[static_cast<size_t>(lane)]);
          c->pages[static_cast<size_t>(lane)] = ours;
        }
        c->tokens.assign(ids.begin() + pos, ids.begin() + pos + chunk);
        pos += chunk;
        ++page_idx;
        if (chunk < pg) break;
        level = &c->kids;
        continue;
      }
      break;  // diverges mid-node: first writer wins
    }
    auto node = std::make_unique<Node>();
    node->tokens.assign(ids.begin() + pos, ids.begin() + pos + chunk);
    node->pages.resize(static_cast<size_t>(lanes_));
    for (int lane = 0; lane < lanes_; ++lane) {
      const int32_t ours =
          lane_slot(lane, slot).table[static_cast<size_t>(page_idx)];
      ++pages_[static_cast<size_t>(ours)].tree_refs;
      node->pages[static_cast<size_t>(lane)] = ours;
    }
    Node* made = node.get();
    level->push_back(std::move(node));
    pos += chunk;
    ++page_idx;
    if (chunk < pg) break;
    level = &made->kids;
  }
}

bool KvStore::slot_open(int slot) const {
  check_slot(slot);
  std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
  return slots_[static_cast<size_t>(slot)].open;
}

void KvStore::drop_slot(int slot) {
  check_slot(slot);
  std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
  SlotInfo& si = slots_[static_cast<size_t>(slot)];
  if (!si.open) return;
  for (int lane = 0; lane < lanes_; ++lane) {
    LaneSlot& ls = lane_slot(lane, slot);
    for (const int32_t p : ls.table) unref_page_locked(p);
    ls.table.clear();
    ls.len = 0;
  }
  reserved_total_ -= si.reserved;
  si = SlotInfo{};
}

void KvStore::append(int lane, int slot, const float* krow,
                     const float* vrow) {
  LaneSlot& ls = lane_slot(lane, slot);
  const int64_t pg = cfg_.page_tokens;
  const int64_t pi = ls.len / pg;
  const int off = static_cast<int>(ls.len % pg);
  if (pi == static_cast<int64_t>(ls.table.size())) {
    std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
    ls.table.push_back(alloc_page_locked(slot));
  } else {
    int32_t fresh = -1;
    int32_t old = ls.table[static_cast<size_t>(pi)];
    {
      std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
      if (page_shared(old)) fresh = alloc_page_locked(slot);
    }
    if (fresh >= 0) {
      // Copy-on-write: clone the rows this stream already owns, then
      // release the shared original. The source page cannot be freed
      // underneath us — this slot still holds a reference to it.
      if (cfg_.fp16) {
        std::memcpy(k_row16(fresh, 0), k_row16(old, 0),
                    static_cast<size_t>(off) * cfg_.row_elems *
                        sizeof(uint16_t));
        std::memcpy(k_row16(fresh, cfg_.page_tokens),
                    k_row16(old, cfg_.page_tokens),
                    static_cast<size_t>(off) * cfg_.row_elems *
                        sizeof(uint16_t));
      } else {
        std::memcpy(k_row32(fresh, 0), k_row32(old, 0),
                    static_cast<size_t>(off) * cfg_.row_elems *
                        sizeof(float));
        std::memcpy(k_row32(fresh, cfg_.page_tokens),
                    k_row32(old, cfg_.page_tokens),
                    static_cast<size_t>(off) * cfg_.row_elems *
                        sizeof(float));
      }
      ls.table[static_cast<size_t>(pi)] = fresh;
      std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
      unref_page_locked(old);
    }
  }
  const int32_t page = ls.table[static_cast<size_t>(pi)];
  if (cfg_.fp16) {
    uint16_t* kdst = k_row16(page, off);
    uint16_t* vdst = k_row16(page, cfg_.page_tokens + off);
    for (int64_t i = 0; i < cfg_.row_elems; ++i) {
      kdst[i] = tensor::float_to_half(krow[i]);
      vdst[i] = tensor::float_to_half(vrow[i]);
    }
  } else {
    std::memcpy(k_row32(page, off), krow,
                static_cast<size_t>(cfg_.row_elems) * sizeof(float));
    std::memcpy(k_row32(page, cfg_.page_tokens + off), vrow,
                static_cast<size_t>(cfg_.row_elems) * sizeof(float));
  }
  ls.len += 1;
}

const float* KvStore::run(int lane, int slot, int64_t page, Panel which,
                          int64_t rows, int64_t col0, int64_t cols,
                          float* scratch) const {
  const LaneSlot& ls = lane_slot(lane, slot);
  const int64_t pg = cfg_.page_tokens;
  if (page < 0 || rows < 1 || rows > pg || page * pg + rows > ls.len) {
    throw std::logic_error("KvStore: run past cached len");
  }
  auto* self = const_cast<KvStore*>(this);
  const int32_t p = ls.table[static_cast<size_t>(page)];
  const int first = which == Panel::K ? 0 : cfg_.page_tokens;
  if (!cfg_.fp16) return self->k_row32(p, first);
  const uint16_t* src = self->k_row16(p, first);
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t at = r * cfg_.row_elems + col0;
    for (int64_t i = at; i < at + cols; ++i) {
      scratch[i] = tensor::half_to_float(src[i]);
    }
  }
  return scratch;
}

void KvStore::gather(int lane, int slot, int64_t len, float* kout,
                     float* vout) const {
  if (len > lane_slot(lane, slot).len) {
    throw std::logic_error("KvStore: gather past cached len");
  }
  const int64_t pg = cfg_.page_tokens, row = cfg_.row_elems;
  for (int64_t page = 0; page * pg < len; ++page) {
    const int64_t rows = std::min(pg, len - page * pg);
    for (const Panel which : {Panel::K, Panel::V}) {
      float* dst = (which == Panel::K ? kout : vout) + page * pg * row;
      const float* src = run(lane, slot, page, which, rows, 0, row, dst);
      if (src != dst) {
        std::memcpy(dst, src, static_cast<size_t>(rows * row) * sizeof(float));
      }
    }
  }
}

int64_t KvStore::lane_len(int lane, int slot) const {
  return lane_slot(lane, slot).len;
}

int64_t KvStore::prune_nodes_locked(
    std::vector<std::unique_ptr<Node>>& nodes) {
  int64_t freed = 0;
  for (auto& n : nodes) freed += prune_nodes_locked(n->kids);
  auto removable = [this](const std::unique_ptr<Node>& n) {
    if (!n->kids.empty()) return false;
    for (const int32_t p : n->pages) {
      if (pages_[static_cast<size_t>(p)].refs != 0) return false;
    }
    return true;
  };
  for (auto it = nodes.begin(); it != nodes.end();) {
    if (removable(*it)) {
      for (const int32_t p : (*it)->pages) {
        tree_unref_locked(p);
        ++freed;
      }
      it = nodes.erase(it);
    } else {
      ++it;
    }
  }
  return freed;
}

int64_t KvStore::evict_unreferenced() {
  std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
  return prune_nodes_locked(roots_);
}

void KvStore::drop_nodes_locked(std::vector<std::unique_ptr<Node>>& nodes) {
  for (auto& n : nodes) {
    drop_nodes_locked(n->kids);
    for (const int32_t p : n->pages) tree_unref_locked(p);
  }
  nodes.clear();
}

void KvStore::clear_prefix_cache() {
  std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
  drop_nodes_locked(roots_);
}

int64_t KvStore::pages_in_use() const {
  std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
  return in_use_;
}

int64_t KvStore::peak_pages() const {
  std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
  return peak_;
}

int64_t KvStore::slot_ref_pages() const {
  std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
  return slot_ref_pages_;
}

int64_t KvStore::free_pages() const {
  std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
  return static_cast<int64_t>(free_.size());
}

int64_t KvStore::bytes_in_use() const { return pages_in_use() * page_bytes(); }

int64_t KvStore::slot_ref_bytes() const {
  return slot_ref_pages() * page_bytes();
}

int64_t KvStore::prefix_hits() const {
  std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
  return hits_;
}

int64_t KvStore::prefix_hit_tokens() const {
  std::lock_guard<sync::Mutex<sync::Rank::KvPool>> g(mu_);
  return hit_tokens_;
}

}  // namespace hanayo::runtime
