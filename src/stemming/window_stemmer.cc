#include "stemming/window_stemmer.h"

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "stemming/arena.h"
#include "util/stats.h"

namespace ranomaly::stemming {

using internal::Arena;
using internal::ClassIndex;
using internal::EventView;
using internal::kNoIndex;
using internal::PackPair;

namespace {

// Compaction rule: compact once tombstones exceed a quarter of the live
// classes.  A quarter rather than "outnumber" keeps the held state, plus
// the per-tick copies, near the size of one from-scratch encoding of the
// window, which bounds peak memory while a large window drains.
constexpr std::size_t kLivePerTombstone = 4;

template <typename T>
std::size_t CapacityBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

// The persistent encoded window.  Every per-class and per-entry table is
// a dense array indexed by class id or bigram entry id.  Invariants
// between operations:
//   - mult[c] is the number of window events of class c, and
//     arena.views[c].weight equals it (unit weights);
//   - counts[e] is the sum of mult over the positions of bigram entry e,
//     i.e. exactly what a from-scratch count of the window produces;
//   - posting lists name every class born since the last compaction,
//     live (mult > 0) or dead (a tombstone), ascending;
//   - every class with mult 0 is a tombstone (a class is born with its
//     first event), and after every PopFront the tombstones are at most
//     a quarter of the live classes.
struct WindowStemmer::State final : ClassIndex {
  StemmingOptions options;
  SymbolTable symbols;
  Arena arena;  // symbols, views and pair entries per class (no raw)
  std::vector<std::uint32_t> mult;    // per class: events in the window
  std::vector<std::uint64_t> hashes;  // per class: HashSpan of its raw seq
  std::vector<std::uint32_t> slots;   // class + 1; 0 = empty
  std::size_t mask = 0;
  internal::U64Map<std::uint32_t> bigram_index;  // packed pair -> entry + 1
  std::vector<std::uint64_t> bigram_keys;
  std::vector<double> counts;  // per bigram entry
  std::vector<std::vector<std::uint32_t>> bigram_classes;  // per entry
  std::vector<std::vector<std::uint32_t>> prefix_classes;  // per symbol
  std::size_t posting_bytes = 0;  // heap bytes of the lists above
  // Class of each window event; the window is [head, end).
  std::vector<std::uint32_t> event_class;
  std::size_t head = 0;
  std::size_t live = 0;  // classes with mult > 0

  std::uint32_t EntryOf(SymbolId a, SymbolId b) const override {
    const std::uint32_t* entry = bigram_index.Find(PackPair(a, b));
    return entry ? *entry - 1 : kNoEntry;
  }
  std::uint64_t BigramKey(std::uint32_t entry) const override {
    return bigram_keys[entry];
  }
  std::span<const std::uint32_t> BigramClasses(
      std::uint32_t entry) const override {
    return bigram_classes[entry];
  }
  std::span<const std::uint32_t> PrefixClasses(
      SymbolId prefix) const override {
    return prefix_classes[prefix];
  }

  std::size_t size() const { return event_class.size() - head; }
  std::size_t dead() const { return arena.views.size() - live; }
  bool NeedsCompaction() const {
    return dead() * kLivePerTombstone > live;
  }

  void Append(std::vector<std::uint32_t>& list, std::uint32_t cls) {
    const std::size_t before = list.capacity();
    list.push_back(cls);
    posting_bytes += (list.capacity() - before) * sizeof(std::uint32_t);
  }

  void GrowSlots(std::size_t cap) {
    slots.assign(cap, 0u);
    mask = cap - 1;
    for (std::uint32_t cls = 0; cls < hashes.size(); ++cls) {
      std::size_t i = hashes[cls] & mask;
      while (slots[i] != 0) i = (i + 1) & mask;
      slots[i] = cls + 1;
    }
  }

  bool SameSequence(std::uint32_t cls, const std::uint64_t* seq,
                    std::uint32_t len) const {
    if (arena.views[cls].length != len) return false;
    const SymbolId* syms = arena.Seq(cls);
    for (std::uint32_t j = 0; j < len; ++j) {
      if (symbols.Raw(syms[j]) != seq[j]) return false;
    }
    return true;
  }

  // Returns the class of a raw sequence, giving a never-seen one its
  // symbols, bigram entries and posting-list slots.  Sequences are stored
  // only as symbol ids; the interner compares through SymbolTable::Raw.
  std::uint32_t Intern(const std::uint64_t* seq, std::uint32_t len,
                       std::uint64_t hash) {
    if (slots.empty() || (hashes.size() + 1) * 10 > slots.size() * 7) {
      GrowSlots(slots.empty() ? 1024 : slots.size() * 2);
    }
    std::size_t i = hash & mask;
    while (slots[i] != 0) {
      const std::uint32_t cls = slots[i] - 1;
      if (hashes[cls] == hash && SameSequence(cls, seq, len)) return cls;
      i = (i + 1) & mask;
    }
    const auto cls = static_cast<std::uint32_t>(arena.views.size());
    slots[i] = cls + 1;
    hashes.push_back(hash);
    mult.push_back(0);
    EventView view;
    view.begin = static_cast<std::uint32_t>(arena.symbols.size());
    view.length = len;
    for (std::uint32_t j = 0; j < len; ++j) {
      arena.symbols.push_back(symbols.InternRaw(seq[j]));
    }
    view.prefix_symbol = arena.symbols.back();
    for (std::uint32_t j = 0; j + 1 < len; ++j) {
      const std::uint64_t key = PackPair(arena.symbols[view.begin + j],
                                         arena.symbols[view.begin + j + 1]);
      std::uint32_t& slot = bigram_index.At(key);
      if (slot == 0) {
        bigram_keys.push_back(key);
        counts.push_back(0.0);
        bigram_classes.emplace_back();
        slot = static_cast<std::uint32_t>(bigram_keys.size());
      }
      arena.pair_entries.push_back(slot - 1);
      Append(bigram_classes[slot - 1], cls);
    }
    arena.pair_entries.push_back(0);  // class-final position, as in Stem
    if (prefix_classes.size() < symbols.size()) {
      prefix_classes.resize(symbols.size());
    }
    Append(prefix_classes[view.prefix_symbol], cls);
    arena.views.push_back(view);
    return cls;
  }

  // Adds one event of class `cls` (delta +1) or removes one (delta -1).
  void Add(std::uint32_t cls, int delta) {
    if (mult[cls] == 0) ++live;
    mult[cls] += static_cast<std::uint32_t>(delta);  // -1 wraps: one less
    if (mult[cls] == 0) --live;
    EventView& view = arena.views[cls];
    view.weight = static_cast<double>(mult[cls]);
    for (std::uint32_t j = 0; j + 1 < view.length; ++j) {
      counts[arena.pair_entries[view.begin + j]] += delta;
    }
  }

  // Drops the tombstones in place: live classes keep their relative
  // order under new dense ids, and the symbol table, bigram entries and
  // posting lists are rebuilt over just the symbols and bigrams the live
  // classes use.  Counts carry over unchanged (dead classes contribute
  // nothing), so the counting invariant holds across the renumbering.
  void Compact() {
    const std::size_t n = arena.views.size();
    std::vector<std::uint32_t> class_map(n, kNoIndex);
    std::uint32_t next_class = 0;
    for (std::size_t c = 0; c < n; ++c) {
      if (mult[c] != 0) class_map[c] = next_class++;
    }

    // Symbols and bigram entries still used, renumbered in first-use
    // order over the live classes.
    SymbolTable fresh;
    std::vector<SymbolId> symbol_map(symbols.size(), kNoIndex);
    std::vector<std::uint32_t> entry_map(bigram_keys.size(), kNoIndex);
    std::vector<std::uint32_t> entry_order;  // old entry per new entry
    for (std::size_t c = 0; c < n; ++c) {
      if (class_map[c] == kNoIndex) continue;
      const EventView& view = arena.views[c];
      for (std::uint32_t j = 0; j < view.length; ++j) {
        const SymbolId s = arena.symbols[view.begin + j];
        if (symbol_map[s] == kNoIndex) {
          symbol_map[s] = fresh.InternRaw(symbols.Raw(s));
        }
        const std::uint32_t e = arena.pair_entries[view.begin + j];
        if (j + 1 < view.length && entry_map[e] == kNoIndex) {
          entry_map[e] = static_cast<std::uint32_t>(entry_order.size());
          entry_order.push_back(e);
        }
      }
    }

    // Arena and per-class arrays: live classes slide down in place.
    std::size_t write = 0;
    for (std::size_t c = 0; c < n; ++c) {
      const std::uint32_t nc = class_map[c];
      if (nc == kNoIndex) continue;
      EventView view = arena.views[c];
      for (std::uint32_t j = 0; j < view.length; ++j) {
        const std::size_t from = view.begin + j;
        arena.symbols[write + j] = symbol_map[arena.symbols[from]];
        arena.pair_entries[write + j] =
            j + 1 < view.length ? entry_map[arena.pair_entries[from]] : 0;
      }
      view.begin = static_cast<std::uint32_t>(write);
      view.prefix_symbol = symbol_map[view.prefix_symbol];
      write += view.length;
      arena.views[nc] = view;
      mult[nc] = mult[c];
      hashes[nc] = hashes[c];
    }
    const auto shrink = [](auto& v, std::size_t size) {
      v.resize(size);
      v.shrink_to_fit();
    };
    shrink(arena.symbols, write);
    shrink(arena.pair_entries, write);
    shrink(arena.views, next_class);
    shrink(mult, next_class);
    shrink(hashes, next_class);

    // Posting lists: filtered to live classes, ids remapped (the map is
    // monotone, so lists stay ascending).
    posting_bytes = 0;
    const auto remap_list = [&](std::vector<std::uint32_t>& list) {
      std::size_t out = 0;
      for (const std::uint32_t cls : list) {
        if (class_map[cls] != kNoIndex) list[out++] = class_map[cls];
      }
      list.resize(out);
      list.shrink_to_fit();
      posting_bytes += CapacityBytes(list);
    };
    std::vector<std::vector<std::uint32_t>> new_bigram_classes(
        entry_order.size());
    std::vector<std::uint64_t> new_keys(entry_order.size());
    std::vector<double> new_counts(entry_order.size());
    internal::U64Map<std::uint32_t> new_index;
    new_index.Reserve(entry_order.size());
    for (std::uint32_t ne = 0; ne < entry_order.size(); ++ne) {
      const std::uint32_t e = entry_order[ne];
      const std::uint64_t key = bigram_keys[e];
      new_keys[ne] = PackPair(symbol_map[static_cast<SymbolId>(key >> 32)],
                              symbol_map[static_cast<SymbolId>(key)]);
      new_index.At(new_keys[ne]) = ne + 1;
      new_counts[ne] = counts[e];
      new_bigram_classes[ne] = std::move(bigram_classes[e]);
      remap_list(new_bigram_classes[ne]);
    }
    std::vector<std::vector<std::uint32_t>> new_prefix_classes(fresh.size());
    for (SymbolId s = 0; s < prefix_classes.size(); ++s) {
      if (symbol_map[s] == kNoIndex || prefix_classes[s].empty()) continue;
      new_prefix_classes[symbol_map[s]] = std::move(prefix_classes[s]);
      remap_list(new_prefix_classes[symbol_map[s]]);
    }
    symbols = std::move(fresh);
    bigram_index = std::move(new_index);
    bigram_keys = std::move(new_keys);
    counts = std::move(new_counts);
    bigram_classes = std::move(new_bigram_classes);
    prefix_classes = std::move(new_prefix_classes);

    std::size_t cap = 1024;
    while (cap * 7 < (next_class + 1) * 10) cap <<= 1;
    slots = {};  // release the old table before sizing the new one
    GrowSlots(cap);

    std::vector<std::uint32_t> window(event_class.size() - head);
    for (std::size_t k = head; k < event_class.size(); ++k) {
      window[k - head] = class_map[event_class[k]];
    }
    event_class = std::move(window);
    head = 0;
  }

  std::size_t Bytes() const {
    return symbols.Bytes() + CapacityBytes(arena.symbols) +
           CapacityBytes(arena.views) + CapacityBytes(arena.pair_entries) +
           CapacityBytes(mult) + CapacityBytes(hashes) +
           CapacityBytes(slots) + bigram_index.Bytes() +
           CapacityBytes(bigram_keys) + CapacityBytes(counts) +
           CapacityBytes(bigram_classes) + CapacityBytes(prefix_classes) +
           posting_bytes + CapacityBytes(event_class);
  }
};

namespace {

void PublishGauges(const WindowStemmer& stemmer) {
  RANOMALY_METRIC_SET("stemming_window_classes",
                      static_cast<double>(stemmer.classes()));
  RANOMALY_METRIC_SET("stemming_window_dead_classes",
                      static_cast<double>(stemmer.dead_classes()));
  RANOMALY_METRIC_SET("stemming_window_bytes",
                      static_cast<double>(stemmer.Bytes()));
}

}  // namespace

WindowStemmer::WindowStemmer(StemmingOptions options)
    : state_(std::make_unique<State>()) {
  if (options.weight_fn) {
    throw std::invalid_argument(
        "WindowStemmer: weight_fn is not supported (the sliding window is "
        "unweighted)");
  }
  state_->options = std::move(options);
}

WindowStemmer::~WindowStemmer() = default;
WindowStemmer::WindowStemmer(WindowStemmer&&) noexcept = default;
WindowStemmer& WindowStemmer::operator=(WindowStemmer&&) noexcept = default;

void WindowStemmer::PushBack(std::span<const bgp::Event> arrivals) {
  const util::StageTimer timer;
  obs::TraceSpan span("stemming.encode");
  span.Annotate("events", static_cast<std::uint64_t>(arrivals.size()));
  State& st = *state_;
  const std::size_t classes_before = st.arena.views.size();
  const std::size_t symbols_before = st.symbols.size();
  const std::size_t positions_before = st.arena.symbols.size();
  const std::size_t entries_before = st.bigram_keys.size();
  std::vector<std::uint64_t> raw;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    if (i + 1 < arrivals.size()) {
      // The AS path lives behind a pointer per event; pull the next one
      // into cache while this one is being encoded.
      __builtin_prefetch(arrivals[i + 1].attrs.as_path.asns().data());
    }
    raw.clear();
    internal::AppendRawSequence(arrivals[i], raw);
    const auto len = static_cast<std::uint32_t>(raw.size());
    const std::uint32_t cls =
        st.Intern(raw.data(), len, internal::HashSpan(raw.data(), len));
    st.Add(cls, +1);
    st.event_class.push_back(cls);
  }
  const double seconds = timer.Seconds();
  span.Annotate("classes", static_cast<std::uint64_t>(st.live));
  span.End();
  RANOMALY_METRIC_COUNT("stemming_events_encoded_total", arrivals.size());
  RANOMALY_METRIC_COUNT("stemming_distinct_sequences_total",
                        st.arena.views.size() - classes_before);
  RANOMALY_METRIC_COUNT("stemming_symbols_interned_total",
                        st.symbols.size() - symbols_before);
  RANOMALY_METRIC_COUNT("stemming_arena_symbols_total",
                        st.arena.symbols.size() - positions_before);
  RANOMALY_METRIC_COUNT("stemming_bigram_entries_total",
                        st.bigram_keys.size() - entries_before);
  RANOMALY_METRIC_OBSERVE("stemming_encode_seconds", obs::TimeBounds(),
                          seconds);
  PublishGauges(*this);
}

void WindowStemmer::PopFront(std::size_t n) {
  State& st = *state_;
  if (n > st.size()) {
    throw std::out_of_range("WindowStemmer::PopFront: beyond the window");
  }
  const util::StageTimer timer;
  obs::TraceSpan span("stemming.count");
  span.Annotate("events", static_cast<std::uint64_t>(n));
  for (std::size_t k = st.head; k < st.head + n; ++k) {
    st.Add(st.event_class[k], -1);
  }
  st.head += n;
  if (st.NeedsCompaction()) {
    obs::TraceSpan compact_span("stemming.compact");
    compact_span.Annotate("dead", static_cast<std::uint64_t>(st.dead()));
    st.Compact();
    RANOMALY_METRIC_COUNT("stemming_window_compactions_total", 1);
  } else if (st.head * 2 >= st.event_class.size()) {
    st.event_class.erase(st.event_class.begin(),
                         st.event_class.begin() +
                             static_cast<std::ptrdiff_t>(st.head));
    st.head = 0;
  }
  span.End();
  RANOMALY_METRIC_OBSERVE("stemming_count_seconds", obs::TimeBounds(),
                          timer.Seconds());
  PublishGauges(*this);
}

StemmingResult WindowStemmer::Extract() const {
  const State& st = *state_;
  StemmingResult result;
  result.total_events = st.size();
  result.total_weight = static_cast<double>(st.size());
  result.stats.distinct_sequences = st.live;
  result.stats.symbols_interned = st.symbols.size();
  result.stats.arena_symbols = st.arena.symbols.size();
  result.stats.bigram_table_size = st.bigram_keys.size();

  // Per-call copies: the recursion subtracts removed components from the
  // counts and clears their flags.
  std::vector<double> counts = st.counts;
  std::vector<char> active(st.arena.views.size());
  for (std::size_t cls = 0; cls < active.size(); ++cls) {
    active[cls] = st.mult[cls] != 0 ? 1 : 0;
  }
  double parallel_seconds = 0.0;
  internal::ExtractComponents(
      internal::ExtractInput{
          st.arena, st, st.symbols, st.mult,
          std::span<const std::uint32_t>(st.event_class).subspan(st.head),
          counts, active},
      st.options, result, &parallel_seconds);
  result.stats.parallel_seconds = parallel_seconds;

  // Re-home the components' ids in the result's own (small) table, so
  // the result stays self-contained while the window moves on.
  for (Component& component : result.components) {
    for (SymbolId& id : component.top_sequence) {
      id = result.symbols.InternRaw(st.symbols.Raw(id));
    }
    const std::size_t len = component.top_sequence.size();
    component.stem = {component.top_sequence[len - 2],
                      component.top_sequence[len - 1]};
  }
  return result;
}

std::size_t WindowStemmer::size() const { return state_->size(); }
std::size_t WindowStemmer::classes() const {
  return state_->arena.views.size();
}
std::size_t WindowStemmer::dead_classes() const { return state_->dead(); }
std::size_t WindowStemmer::Bytes() const { return state_->Bytes(); }

}  // namespace ranomaly::stemming
