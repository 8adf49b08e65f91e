// Internal to the stemming library: the class arena, the bigram table,
// the posting-list interface, and the component recursion that both the
// batch `Stem` and the sliding-window `WindowStemmer` run over them
// (DESIGN.md "Arena counting backend").  Not a public header.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "stemming/stemming.h"

namespace ranomaly::stemming::internal {

// Tagged 64-bit encoding: kind in the top byte, payload below.  Prefixes
// pack (address << 8) | length into 40 bits.
constexpr std::uint64_t Tag(SymbolKind kind, std::uint64_t payload) {
  return (static_cast<std::uint64_t>(kind) << 56) | payload;
}

// Appends event e's raw tagged sequence c = x h a1 .. an p to `out`
// (consecutive AS-path prepends collapsed, as they carry no location
// information) — pure arithmetic, no table lookups.
inline void AppendRawSequence(const bgp::Event& e,
                              std::vector<std::uint64_t>& out) {
  out.push_back(Tag(SymbolKind::kPeer, e.peer.value()));
  out.push_back(Tag(SymbolKind::kNexthop, e.attrs.nexthop.value()));
  bgp::AsNumber last_as = 0;
  bool have_last = false;
  for (const bgp::AsNumber asn : e.attrs.as_path.asns()) {
    if (have_last && asn == last_as) continue;
    out.push_back(Tag(SymbolKind::kAs, asn));
    last_as = asn;
    have_last = true;
  }
  out.push_back(
      Tag(SymbolKind::kPrefix,
          (static_cast<std::uint64_t>(e.prefix.addr().value()) << 8) |
              e.prefix.length()));
}

inline std::uint64_t Mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

inline std::uint64_t PackPair(SymbolId a, SymbolId b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

constexpr std::uint32_t kNoIndex = 0xffffffffu;

inline std::uint64_t HashSpan(const std::uint64_t* seq, std::uint32_t len) {
  // Single-multiply accumulation (short dependency chain — this runs
  // once per *event*), with one full finalizer to spread entropy into
  // the low bits the probe mask keeps and the high bits BucketOf keeps.
  std::uint64_t h = len;
  for (std::uint32_t i = 0; i < len; ++i) {
    h = (h ^ seq[i]) * 0x9e3779b97f4a7c15ULL;
  }
  return Mix64(h);
}

// ---------------------------------------------------------------------------
// Flat sequence arena over *distinct* sequences.  BGP spike traffic is
// massively repetitive — the same (peer, nexthop, path, prefix) sequence
// recurs ~10x in Table-1-scale windows — and the algorithm never needs to
// tell duplicates apart: removal is prefix-granular, so events with
// identical sequences always share fate.  Each distinct sequence becomes
// one weighted "class" view; counting, posting lists, and component
// extraction all run over classes, and original event ids are recovered
// in a single ordered pass at the end.

struct EventView {
  std::uint32_t begin = 0;
  std::uint32_t length = 0;
  SymbolId prefix_symbol = 0;
  double weight = 0.0;        // summed over all events of the class
  double unit_weight = 1.0;   // weight_fn value (same for the whole class)
};

struct Arena {
  std::vector<SymbolId> symbols;
  std::vector<std::uint64_t> raw;  // raw tagged value per position (batch)
  std::vector<EventView> views;    // one per distinct sequence class
  // Bigram entry id of the adjacent pair starting at each arena position
  // (meaningful for the first length-1 positions of every class).  Kept
  // so counting and incremental subtraction are plain array arithmetic —
  // no hash lookups at all.
  std::vector<std::uint32_t> pair_entries;

  const SymbolId* Seq(std::size_t cls) const {
    return symbols.data() + views[cls].begin;
  }
  std::size_t Len(std::size_t cls) const { return views[cls].length; }
};

// ---------------------------------------------------------------------------
// Open-addressed hash map from packed 64-bit keys (bigrams) to a value.
// Linear probing, power-of-two capacity.  The empty sentinel is the pair
// (0xffffffff, 0xffffffff), unreachable while symbol ids stay dense.

template <typename Value>
class U64Map {
 public:
  static constexpr std::uint64_t kEmpty = ~0ULL;

  void Reserve(std::size_t n) {
    std::size_t cap = 16;
    while (cap * 7 < n * 10) cap <<= 1;  // target load factor <= 0.7
    if (cap > keys_.size()) Rehash(cap);
  }

  Value& At(std::uint64_t key) {
    if (keys_.empty() || (size_ + 1) * 10 > keys_.size() * 7) {
      Rehash(keys_.empty() ? 16 : keys_.size() * 2);
    }
    std::size_t i = Mix64(key) & mask_;
    while (keys_[i] != kEmpty) {
      if (keys_[i] == key) return values_[i];
      i = (i + 1) & mask_;
    }
    keys_[i] = key;
    values_[i] = Value{};
    ++size_;
    return values_[i];
  }

  Value* Find(std::uint64_t key) {
    if (keys_.empty()) return nullptr;
    std::size_t i = Mix64(key) & mask_;
    while (keys_[i] != kEmpty) {
      if (keys_[i] == key) return &values_[i];
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  const Value* Find(std::uint64_t key) const {
    return const_cast<U64Map*>(this)->Find(key);
  }

  std::size_t size() const { return size_; }
  std::size_t Bytes() const {
    return keys_.capacity() * sizeof(std::uint64_t) +
           values_.capacity() * sizeof(Value);
  }

 private:
  void Rehash(std::size_t cap) {
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<Value> old_values = std::move(values_);
    keys_.assign(cap, kEmpty);
    values_.assign(cap, Value{});
    mask_ = cap - 1;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kEmpty) continue;
      std::size_t j = Mix64(old_keys[i]) & mask_;
      while (keys_[j] != kEmpty) j = (j + 1) & mask_;
      keys_[j] = old_keys[i];
      values_[j] = old_values[i];
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<Value> values_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

// ---------------------------------------------------------------------------
// Posting lists the component recursion reads: bigram -> ids of classes
// containing it, and prefix symbol -> ids of classes carrying that
// prefix.  Lists are ascending in class id; a class containing a bigram
// at several positions appears once per position, so duplicates are
// adjacent and dedup is a single comparison.  Classes that are no longer
// active stay listed and are filtered at query time.  The batch encoder
// builds immutable CSR lists; the sliding window appends as classes are
// born.
class ClassIndex {
 public:
  static constexpr std::uint32_t kNoEntry = 0xffffffffu;

  virtual std::uint32_t EntryOf(SymbolId a, SymbolId b) const = 0;
  virtual std::uint64_t BigramKey(std::uint32_t entry) const = 0;
  virtual std::span<const std::uint32_t> BigramClasses(
      std::uint32_t entry) const = 0;
  virtual std::span<const std::uint32_t> PrefixClasses(
      SymbolId prefix) const = 0;

 protected:
  ~ClassIndex() = default;
};

// One window's input to the component recursion.  `bigram_counts` (per
// bigram entry) and `active` (per class) are consumed: removing a
// component subtracts its classes' contributions and clears their flags.
struct ExtractInput {
  const Arena& arena;
  const ClassIndex& index;
  const SymbolTable& symbols;                  // names the arena's ids
  std::span<const std::uint32_t> class_mult;   // events per class
  std::span<const std::uint32_t> event_class;  // class of each window event
  std::vector<double>& bigram_counts;
  std::vector<char>& active;
};

// The paper's recursion (Section III-B): repeatedly pick the top-ranked
// sub-sequence s', collect P (prefixes of active classes containing s')
// and E (active classes carrying a prefix in P), remove E, and record the
// component — until options.max_components, the count floor, or an empty
// window stops it.  Then expands classes back to window events in
// ascending order.  Fills result.components (ids name input.symbols),
// result.residual_events and the extract stats; result.total_weight must
// already be set.  Records the stemming.extract span and metrics.
void ExtractComponents(const ExtractInput& input,
                       const StemmingOptions& options, StemmingResult& result,
                       double* parallel_seconds);

}  // namespace ranomaly::stemming::internal
