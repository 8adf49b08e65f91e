#include "stemming/stemming.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "stemming/arena.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace ranomaly::stemming {

using internal::Tag;

SymbolId SymbolTable::InternPeer(bgp::Ipv4Addr addr) {
  return pool_.Intern(Tag(SymbolKind::kPeer, addr.value()));
}
SymbolId SymbolTable::InternNexthop(bgp::Ipv4Addr addr) {
  return pool_.Intern(Tag(SymbolKind::kNexthop, addr.value()));
}
SymbolId SymbolTable::InternAs(bgp::AsNumber asn) {
  return pool_.Intern(Tag(SymbolKind::kAs, asn));
}
SymbolId SymbolTable::InternPrefix(const bgp::Prefix& prefix) {
  const std::uint64_t payload =
      (static_cast<std::uint64_t>(prefix.addr().value()) << 8) |
      prefix.length();
  return pool_.Intern(Tag(SymbolKind::kPrefix, payload));
}

SymbolKind SymbolTable::KindOf(SymbolId id) const {
  return static_cast<SymbolKind>(pool_.Lookup(id) >> 56);
}

bgp::Ipv4Addr SymbolTable::AddrOf(SymbolId id) const {
  const SymbolKind kind = KindOf(id);
  if (kind != SymbolKind::kPeer && kind != SymbolKind::kNexthop) {
    throw std::logic_error("SymbolTable::AddrOf: not an address symbol");
  }
  return bgp::Ipv4Addr(
      static_cast<std::uint32_t>(pool_.Lookup(id) & 0xffffffffULL));
}

bgp::AsNumber SymbolTable::AsOf(SymbolId id) const {
  if (KindOf(id) != SymbolKind::kAs) {
    throw std::logic_error("SymbolTable::AsOf: not an AS symbol");
  }
  return static_cast<bgp::AsNumber>(pool_.Lookup(id) & 0xffffffffULL);
}

bgp::Prefix SymbolTable::PrefixOf(SymbolId id) const {
  if (KindOf(id) != SymbolKind::kPrefix) {
    throw std::logic_error("SymbolTable::PrefixOf: not a prefix symbol");
  }
  const std::uint64_t payload = pool_.Lookup(id) & 0xffffffffffULL;
  return bgp::Prefix(
      bgp::Ipv4Addr(static_cast<std::uint32_t>(payload >> 8)),
      static_cast<std::uint8_t>(payload & 0xff));
}

std::string SymbolTable::Name(SymbolId id) const {
  switch (KindOf(id)) {
    case SymbolKind::kPeer: return "peer " + AddrOf(id).ToString();
    case SymbolKind::kNexthop: return "nexthop " + AddrOf(id).ToString();
    case SymbolKind::kAs: return "AS" + std::to_string(AsOf(id));
    case SymbolKind::kPrefix: return PrefixOf(id).ToString();
  }
  return "?";
}

bool IsValidRawSymbol(std::uint64_t raw) {
  const std::uint64_t payload = raw & ((1ull << 56) - 1);
  switch (static_cast<SymbolKind>(raw >> 56)) {
    case SymbolKind::kPeer:
    case SymbolKind::kNexthop:
    case SymbolKind::kAs:
      return payload <= 0xffffffffULL;
    case SymbolKind::kPrefix:
      // (address << 8) | length in 40 bits, mask length <= 32.
      return payload <= 0xffffffffffULL && (payload & 0xff) <= 32;
  }
  return false;
}

std::string StemmingResult::StemLabel(const Component& component) const {
  return symbols.Name(component.stem.first) + " - " +
         symbols.Name(component.stem.second);
}

std::string StemmingResult::SequenceLabel(const Component& component) const {
  std::string out;
  for (std::size_t i = 0; i < component.top_sequence.size(); ++i) {
    if (i != 0) out += " ";
    out += symbols.Name(component.top_sequence[i]);
  }
  return out;
}

namespace internal {
namespace {

constexpr double kCountEpsilon = 1e-9;

bool CountsEqual(double a, double b) {
  return std::fabs(a - b) <= kCountEpsilon * std::max(1.0, std::max(a, b));
}

// Dispatches `chunks` chunks on the pool — or serially, in the same
// chunk order and with the same per-chunk partial association, when
// there is none — and returns the wall seconds spent.  Callers
// accumulate the return value into StemmingStats::parallel_seconds so
// the per-stage parallel fractions can be reported.
double ParallelRegion(util::ThreadPool* pool, std::size_t chunks,
                      const std::function<void(std::size_t, std::size_t)>& fn) {
  if (chunks == 0) return 0.0;
  const util::StageTimer timer;
  if (pool != nullptr) {
    pool->ParallelFor(chunks, fn);
  } else {
    for (std::size_t c = 0; c < chunks; ++c) fn(c, 0);
  }
  return timer.Seconds();
}

// Number of hash buckets the cross-shard merges partition distinct keys
// into.  A fixed constant: the partition must be a pure function of the
// input, never of the thread count.
constexpr std::size_t kMergeBuckets = 64;

inline std::size_t BucketOf(std::uint64_t hash) { return hash >> 58; }

// One encode shard: a contiguous range of events deduplicated into
// *local* sequence classes, each stored once in the shard's own flat raw
// store.  Merging the shards' local tables in shard order reproduces the
// global first-seen class order of a serial encoder (DESIGN.md "Parallel
// analysis architecture" has the argument), which is what lets the
// per-event dedup — the hottest loop of the whole analysis tier — run
// sharded while staying bit-identical at any thread count.
struct EncodeShard {
  std::vector<std::uint64_t> raw;          // local flat sequence storage
  std::vector<std::uint32_t> begins;       // per local class, into raw
  std::vector<std::uint32_t> lengths;      // per local class
  std::vector<std::uint64_t> hashes;       // HashSpan per local class
  std::vector<std::uint32_t> mult;         // this shard's events per class
  std::vector<std::uint32_t> event_local;  // local class per shard event
  // Local class -> cross-shard group index (bucket-local, written by the
  // merge), then -> final global class id after ids are assigned.
  std::vector<std::uint32_t> global;
  std::vector<std::uint32_t> bucket_offsets;  // kMergeBuckets + 1
  std::vector<std::uint32_t> by_bucket;  // local classes grouped by bucket

  // Open-addressed span index over the local classes.  The hash is kept
  // per slot so probes reject on one compare and growth never re-hashes
  // the raw store.
  std::vector<std::uint32_t> slot_cls;  // local class + 1; 0 = empty
  std::vector<std::uint64_t> slot_hash;
  std::size_t mask = 0;

  std::uint32_t FindOrInsert(const std::uint64_t* seq, std::uint32_t len,
                             std::uint64_t hash) {
    if (slot_cls.empty() || (begins.size() + 1) * 10 > slot_cls.size() * 7) {
      Grow(slot_cls.empty() ? 1024 : slot_cls.size() * 2);
    }
    std::size_t i = hash & mask;
    while (slot_cls[i] != 0) {
      const std::uint32_t cls = slot_cls[i] - 1;
      if (slot_hash[i] == hash && lengths[cls] == len &&
          std::equal(seq, seq + len, raw.data() + begins[cls])) {
        return cls;
      }
      i = (i + 1) & mask;
    }
    const auto cls = static_cast<std::uint32_t>(begins.size());
    slot_cls[i] = cls + 1;
    slot_hash[i] = hash;
    begins.push_back(static_cast<std::uint32_t>(raw.size()));
    lengths.push_back(len);
    hashes.push_back(hash);
    mult.push_back(0);
    raw.insert(raw.end(), seq, seq + len);
    return cls;
  }

  void Grow(std::size_t cap) {
    const std::vector<std::uint32_t> old_cls = std::move(slot_cls);
    const std::vector<std::uint64_t> old_hash = std::move(slot_hash);
    slot_cls.assign(cap, 0u);
    slot_hash.assign(cap, 0u);
    mask = cap - 1;
    for (std::size_t i = 0; i < old_cls.size(); ++i) {
      if (old_cls[i] == 0) continue;
      std::size_t j = old_hash[i] & mask;
      while (slot_cls[j] != 0) j = (j + 1) & mask;
      slot_cls[j] = old_cls[i];
      slot_hash[j] = old_hash[i];
    }
  }
};

// Cross-shard class groups for one hash bucket.  Each group is one
// global class; its representative is the (shard, local) pair that saw
// it first, iterating shards in order — which is exactly the shard whose
// event range contains the class's first event.
struct MergeBucket {
  std::vector<std::uint32_t> slots;  // group index + 1; 0 = empty
  std::size_t mask = 0;
  std::vector<std::uint32_t> g_shard;  // representative shard
  std::vector<std::uint32_t> g_local;  // representative local class
  std::vector<std::uint32_t> g_mult;   // events across all shards
  std::vector<std::uint32_t> g_gid;    // final global class id
};

// Sharded first-occurrence dedup of 64-bit keys.  Assigns dense ids to
// the distinct keys of the virtual item sequence [0, items) in first-
// occurrence order — exactly the ids a serial walk-and-intern assigns —
// writes each valid item's id over out[i], and returns the keys in id
// order.  key_fn(i) returns kInvalidKey to skip an item (its out[i] is
// left untouched).  The chunk split and the kMergeBuckets hash partition
// depend only on the input; per-chunk and per-bucket partials merge in
// fixed order, so any pool — or none — yields identical ids.
constexpr std::uint64_t kInvalidKey = ~0ULL;

template <typename KeyFn>
std::vector<std::uint64_t> OrderedDedupU64(std::size_t items,
                                           std::size_t grain,
                                           util::ThreadPool* pool,
                                           const KeyFn& key_fn,
                                           std::uint32_t* out,
                                           double* parallel_seconds) {
  std::vector<std::uint64_t> keys;
  if (items == 0) return keys;
  const std::size_t chunks = util::ThreadPool::ChunksFor(items, grain);

  struct Chunk {
    std::vector<std::uint64_t> values;   // local distinct, first-seen order
    std::vector<std::uint32_t> handles;  // per value: group index, then gid
    std::vector<std::uint32_t> slots;    // local index + 1; 0 = empty
    std::size_t mask = 0;
    std::vector<std::uint32_t> bucket_offsets;
    std::vector<std::uint32_t> by_bucket;
  };
  std::vector<Chunk> parts(chunks);

  // Pass 1 (sharded): local dedup.  out[i] holds the local index for
  // now; a translation pass rewrites it once global ids exist.
  *parallel_seconds += ParallelRegion(
      pool, chunks, [&](std::size_t c, std::size_t) {
        Chunk& part = parts[c];
        const auto grow = [&part](std::size_t cap) {
          part.slots.assign(cap, 0u);
          part.mask = cap - 1;
          for (std::uint32_t v = 0;
               v < static_cast<std::uint32_t>(part.values.size()); ++v) {
            std::size_t j = Mix64(part.values[v]) & part.mask;
            while (part.slots[j] != 0) j = (j + 1) & part.mask;
            part.slots[j] = v + 1;
          }
        };
        const auto [begin, end] =
            util::ThreadPool::ChunkRange(items, grain, c);
        for (std::size_t i = begin; i < end; ++i) {
          const std::uint64_t key = key_fn(i);
          if (key == kInvalidKey) continue;
          if (part.slots.empty() ||
              (part.values.size() + 1) * 10 > part.slots.size() * 7) {
            grow(part.slots.empty() ? 256 : part.slots.size() * 2);
          }
          std::size_t j = Mix64(key) & part.mask;
          std::uint32_t local = kNoIndex;
          while (part.slots[j] != 0) {
            const std::uint32_t v = part.slots[j] - 1;
            if (part.values[v] == key) {
              local = v;
              break;
            }
            j = (j + 1) & part.mask;
          }
          if (local == kNoIndex) {
            local = static_cast<std::uint32_t>(part.values.size());
            part.slots[j] = local + 1;
            part.values.push_back(key);
          }
          out[i] = local;
        }
        // Partition the local distinct values by merge bucket, keeping
        // ascending (= first-local-occurrence) order within each bucket.
        const auto n_local = static_cast<std::uint32_t>(part.values.size());
        part.bucket_offsets.assign(kMergeBuckets + 1, 0);
        for (std::uint32_t v = 0; v < n_local; ++v) {
          ++part.bucket_offsets[BucketOf(Mix64(part.values[v])) + 1];
        }
        for (std::size_t b = 0; b < kMergeBuckets; ++b) {
          part.bucket_offsets[b + 1] += part.bucket_offsets[b];
        }
        part.by_bucket.resize(n_local);
        std::vector<std::uint32_t> cursor(part.bucket_offsets.begin(),
                                          part.bucket_offsets.end() - 1);
        for (std::uint32_t v = 0; v < n_local; ++v) {
          part.by_bucket[cursor[BucketOf(Mix64(part.values[v]))]++] = v;
        }
        part.handles.resize(n_local);
      });

  // Pass 2 (per bucket): group identical values across chunks.  Chunks
  // are visited in order and locals in first-occurrence order, so a
  // group's first insertion is its globally-first occurrence.
  struct Bucket {
    std::vector<std::uint32_t> slots;  // group index + 1; 0 = empty
    std::size_t mask = 0;
    std::vector<std::uint64_t> values;
    std::vector<std::uint32_t> g_chunk, g_local, g_id;
  };
  std::vector<Bucket> buckets(kMergeBuckets);
  *parallel_seconds += ParallelRegion(
      pool, kMergeBuckets, [&](std::size_t b, std::size_t) {
        Bucket& bucket = buckets[b];
        std::size_t cand = 0;
        for (const Chunk& part : parts) {
          cand += part.bucket_offsets[b + 1] - part.bucket_offsets[b];
        }
        if (cand == 0) return;
        std::size_t cap = 16;
        while (cap * 7 < cand * 10) cap <<= 1;
        bucket.slots.assign(cap, 0u);
        bucket.mask = cap - 1;
        for (std::uint32_t c = 0; c < static_cast<std::uint32_t>(chunks);
             ++c) {
          Chunk& part = parts[c];
          for (std::uint32_t k = part.bucket_offsets[b];
               k < part.bucket_offsets[b + 1]; ++k) {
            const std::uint32_t local = part.by_bucket[k];
            const std::uint64_t key = part.values[local];
            std::size_t j = Mix64(key) & bucket.mask;
            std::uint32_t idx = kNoIndex;
            while (bucket.slots[j] != 0) {
              const std::uint32_t g = bucket.slots[j] - 1;
              if (bucket.values[g] == key) {
                idx = g;
                break;
              }
              j = (j + 1) & bucket.mask;
            }
            if (idx == kNoIndex) {
              idx = static_cast<std::uint32_t>(bucket.values.size());
              bucket.slots[j] = idx + 1;
              bucket.values.push_back(key);
              bucket.g_chunk.push_back(c);
              bucket.g_local.push_back(local);
            }
            part.handles[local] = idx;
          }
        }
        bucket.g_id.resize(bucket.values.size());
      });

  // Pass 3 (serial): assign ids in global first-occurrence order.  A
  // value first occurs in the earliest chunk containing it, at that
  // chunk's first-local-occurrence position — so walking chunks in order
  // and locals in order visits representatives exactly in the order a
  // serial intern walk would have created them.
  for (std::uint32_t c = 0; c < static_cast<std::uint32_t>(chunks); ++c) {
    const Chunk& part = parts[c];
    for (std::uint32_t v = 0;
         v < static_cast<std::uint32_t>(part.values.size()); ++v) {
      Bucket& bucket = buckets[BucketOf(Mix64(part.values[v]))];
      const std::uint32_t idx = part.handles[v];
      if (bucket.g_chunk[idx] == c && bucket.g_local[idx] == v) {
        bucket.g_id[idx] = static_cast<std::uint32_t>(keys.size());
        keys.push_back(part.values[v]);
      }
    }
  }

  // Pass 4 (sharded): translate local indices to global ids.
  *parallel_seconds += ParallelRegion(
      pool, chunks, [&](std::size_t c, std::size_t) {
        Chunk& part = parts[c];
        for (std::uint32_t v = 0;
             v < static_cast<std::uint32_t>(part.values.size()); ++v) {
          part.handles[v] =
              buckets[BucketOf(Mix64(part.values[v]))].g_id[part.handles[v]];
        }
        const auto [begin, end] =
            util::ThreadPool::ChunkRange(items, grain, c);
        for (std::size_t i = begin; i < end; ++i) {
          if (key_fn(i) != kInvalidKey) out[i] = part.handles[out[i]];
        }
      });
  return keys;
}

// ---------------------------------------------------------------------------
// The batch encoder's posting lists: built once over the arena as CSR
// arrays.  This is what lets component extraction touch candidates
// instead of scanning every active class.

struct Postings final : ClassIndex {
  U64Map<std::uint32_t> bigram_index;      // packed pair -> entry id (+1)
  std::vector<std::uint64_t> bigram_keys;  // packed pair per entry
  // CSR index: for entry e, events[offsets[e]..offsets[e+1]) are the ids
  // of classes whose sequence contains that bigram.
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> events;
  // Prefix symbol -> classes CSR, same layout.
  std::vector<std::uint32_t> prefix_offsets;
  std::vector<std::uint32_t> prefix_classes;

  std::uint32_t EntryOf(SymbolId a, SymbolId b) const override {
    const std::uint32_t* entry = bigram_index.Find(PackPair(a, b));
    return entry ? *entry - 1 : kNoEntry;
  }
  std::uint64_t BigramKey(std::uint32_t entry) const override {
    return bigram_keys[entry];
  }
  std::span<const std::uint32_t> BigramClasses(
      std::uint32_t entry) const override {
    return {events.data() + offsets[entry], events.data() + offsets[entry + 1]};
  }
  std::span<const std::uint32_t> PrefixClasses(
      SymbolId prefix) const override {
    return {prefix_classes.data() + prefix_offsets[prefix],
            prefix_classes.data() + prefix_offsets[prefix + 1]};
  }
};

bool ContainsSpan(const SymbolId* seq, std::size_t len, const SymbolId* sub,
                  std::size_t sub_len) {
  if (sub_len > len) return false;
  for (std::size_t j = 0; j + sub_len <= len; ++j) {
    if (std::equal(sub, sub + sub_len, seq + j)) return true;
  }
  return false;
}

// Reused allocations for the per-component search.  The chunk_* members
// hold per-chunk partials for the pool-dispatched extract passes:
// indexed by chunk, merged in chunk order, and reused across components
// to avoid allocator churn.  (Per-chunk — never per-slot — because slot
// assignment is the one thing the pool does not keep deterministic.)
struct Scratch {
  std::vector<std::uint32_t> survivors;  // max-count bigram entries, ascending
  std::vector<char> interior;            // per survivor: inside a longer chain
  std::vector<SymbolId> chain;
  std::vector<std::vector<std::uint32_t>> chunk_ids;
  std::vector<std::vector<SymbolId>> chunk_prefixes;
  // Subtract pass: sparse (entry, delta) lists per chunk, built in
  // per-slot dense accumulators that are all zero between chunks.
  std::vector<std::vector<std::pair<std::uint32_t, double>>> chunk_deltas;
  std::vector<std::vector<double>> slot_deltas;
  std::vector<std::vector<std::uint32_t>> slot_touched;
  std::vector<double> chunk_max;
  std::vector<std::uint32_t> removed;  // classes of the current component
};

// The longest continuation shared by every active positive-weight
// occurrence of bigram `entry`: the arena position of the first such
// occurrence and how many symbols past the bigram all of them agree on.
// nullopt when no occurrence is active.
std::optional<std::pair<std::size_t, std::size_t>> CommonContinuation(
    const Arena& arena, const std::vector<char>& active,
    const ClassIndex& index, std::uint32_t entry) {
  std::optional<std::pair<std::size_t, std::size_t>> common;
  std::uint32_t last = kNoIndex;
  for (const std::uint32_t cls : index.BigramClasses(entry)) {
    if (cls == last) continue;  // one visit covers all its positions
    last = cls;
    const EventView& view = arena.views[cls];
    if (!active[cls] || !(view.weight > 0.0)) continue;
    for (std::uint32_t j = 0; j + 1 < view.length; ++j) {
      if (arena.pair_entries[view.begin + j] != entry) continue;
      const std::size_t pos = view.begin + j;
      const std::size_t len = view.length - j - 2;
      if (!common) {
        common.emplace(pos, len);
      } else {
        auto& [ref, ref_len] = *common;
        std::size_t t = 0;
        while (t < ref_len && t < len &&
               arena.symbols[ref + 2 + t] == arena.symbols[pos + 2 + t]) {
          ++t;
        }
        ref_len = t;
      }
      if (common->second == 0) return common;
    }
  }
  return common;
}

// Finds the top-ranked sub-sequence (count desc, length desc, then
// lexicographically smallest raw values for determinism) over active classes,
// reading bigram counts from the persistent (incrementally maintained)
// table.  Returns nullopt if no bigram reaches min_count.  The max scan
// and the survivor collection are sharded on the pool with an
// input-derived grain (options.scan_grain); per-chunk partials merge in
// chunk order, so the pick is unchanged by the thread count.
//
// Lengthening is one walk of a posting list per chain.  Every occurrence
// of a max-count gram g is an occurrence of its leading bigram s, whose
// count is the maximum too, so g's positive-weight occurrences are
// exactly s's: g keeps the maximum iff all of them continue with g's
// tail.  The longest survivor starting with s is therefore s plus the
// longest common continuation of s's active positive-weight occurrences.
// A survivor bigram inside an earlier chain starts a strictly shorter
// chain (the same occurrences, shifted) and is skipped.
std::optional<std::pair<std::vector<SymbolId>, double>> TopSubsequence(
    const Arena& arena, const SymbolTable& symbols,
    const std::vector<char>& active, const ClassIndex& index,
    const std::vector<double>& bigram_counts,
    double min_count, Scratch& scratch, const StemmingOptions& options,
    double* parallel_seconds) {
  util::ThreadPool* pool = options.pool;
  const std::size_t scan_grain = std::max<std::size_t>(1, options.scan_grain);
  const std::size_t n_entries = bigram_counts.size();

  // The maximum over all length>=2 sub-sequences is attained by a bigram
  // (counts are antitone in extension); the persistent dense count array
  // already holds every active bigram count.  Max is order-independent,
  // so the per-chunk maxima merge exactly.
  const std::size_t scan_chunks =
      util::ThreadPool::ChunksFor(n_entries, scan_grain);
  scratch.chunk_max.assign(scan_chunks, 0.0);
  *parallel_seconds += ParallelRegion(
      pool, scan_chunks, [&](std::size_t c, std::size_t) {
        const auto [begin, end] =
            util::ThreadPool::ChunkRange(n_entries, scan_grain, c);
        double m = 0.0;
        for (std::size_t e = begin; e < end; ++e) {
          m = std::max(m, bigram_counts[e]);
        }
        scratch.chunk_max[c] = m;
      });
  double best_count = 0.0;
  for (const double m : scratch.chunk_max) best_count = std::max(best_count, m);
  if (best_count < min_count || best_count <= kCountEpsilon) {
    return std::nullopt;
  }

  // Survivors at length 2, collected per chunk and merged in chunk (=
  // entry) order, so the list is ascending and a chain's interior
  // bigrams are found in it by binary search.
  if (scratch.chunk_ids.size() < scan_chunks) {
    scratch.chunk_ids.resize(scan_chunks);
  }
  *parallel_seconds += ParallelRegion(
      pool, scan_chunks, [&](std::size_t c, std::size_t) {
        std::vector<std::uint32_t>& ids = scratch.chunk_ids[c];
        ids.clear();
        const auto [begin, end] =
            util::ThreadPool::ChunkRange(n_entries, scan_grain, c);
        for (std::size_t e = begin; e < end; ++e) {
          if (CountsEqual(bigram_counts[e], best_count)) {
            ids.push_back(static_cast<std::uint32_t>(e));
          }
        }
      });
  std::vector<std::uint32_t>& survivors = scratch.survivors;
  survivors.clear();
  for (std::size_t c = 0; c < scan_chunks; ++c) {
    survivors.insert(survivors.end(), scratch.chunk_ids[c].begin(),
                     scratch.chunk_ids[c].end());
  }
  scratch.interior.assign(survivors.size(), 0);

  // Deterministic pick among the longest chains: lexicographically
  // smallest by raw tagged value, never by SymbolId.  Ids are first-seen
  // interning order, so comparing them would make the pick depend on
  // event order (and differ between windows holding the same events).
  const auto raw_less = [&symbols](SymbolId x, SymbolId y) {
    return symbols.Raw(x) < symbols.Raw(y);
  };
  std::vector<SymbolId> best;
  std::vector<SymbolId>& chain = scratch.chain;
  for (std::size_t si = 0; si < survivors.size(); ++si) {
    if (scratch.interior[si]) continue;
    const std::uint32_t entry = survivors[si];
    const std::uint64_t key = index.BigramKey(entry);
    chain.assign({static_cast<SymbolId>(key >> 32), static_cast<SymbolId>(key)});
    if (const auto common = CommonContinuation(arena, active, index, entry)) {
      const auto [pos, len] = *common;
      chain.insert(chain.end(), arena.symbols.begin() + pos + 2,
                   arena.symbols.begin() + pos + 2 + len);
      // Interior bigrams (chain positions 1 .. size-2) head shorter chains.
      for (std::size_t i = 1; i + 1 < chain.size(); ++i) {
        const std::uint32_t inner = arena.pair_entries[pos + i];
        const auto it =
            std::lower_bound(survivors.begin(), survivors.end(), inner);
        if (it != survivors.end() && *it == inner) {
          scratch.interior[it - survivors.begin()] = 1;
        }
      }
    }
    if (chain.size() > best.size() ||
        (chain.size() == best.size() &&
         std::lexicographical_compare(chain.begin(), chain.end(),
                                      best.begin(), best.end(), raw_less))) {
      best = chain;
    }
  }
  return std::make_pair(std::move(best), best_count);
}

}  // namespace

// Extraction parallel fraction is reported over the recursion alone, so
// callers pass a fresh accumulator.
void ExtractComponents(const ExtractInput& input,
                       const StemmingOptions& options, StemmingResult& result,
                       double* parallel_seconds) {
  const util::StageTimer extract_timer;
  obs::TraceSpan extract_span("stemming.extract");
  const Arena& arena = input.arena;
  const ClassIndex& index = input.index;
  std::vector<double>& bigram_counts = input.bigram_counts;
  std::vector<char>& active = input.active;
  util::ThreadPool* pool = options.pool;
  const std::size_t scan_grain = std::max<std::size_t>(1, options.scan_grain);
  const std::size_t n_bigrams = bigram_counts.size();
  // In original-event units.
  std::size_t active_count = input.event_class.size();
  constexpr std::uint32_t kNoComponent = 0xffffffffu;
  std::vector<std::uint32_t> class_component(arena.views.size(),
                                             kNoComponent);
  Scratch scratch;

  while (result.components.size() < options.max_components &&
         active_count > 0) {
    const double min_count =
        std::max(options.min_count,
                 options.min_count_fraction * result.total_weight);
    auto top = TopSubsequence(arena, input.symbols, active, index,
                              bigram_counts, min_count, scratch, options,
                              parallel_seconds);
    if (!top) break;
    auto& [sequence, count] = *top;
    if (sequence.size() < options.min_subsequence_length) break;

    Component component;
    component.top_sequence = sequence;
    component.stem = {sequence[sequence.size() - 2], sequence.back()};
    component.count = count;

    // P: prefixes of active sequences containing s'.  Candidates come
    // from the stem pair's posting list (every sequence containing s'
    // contains its last bigram); only they are checked for containment.
    // The containment scan shards over the posting range; per-chunk hits
    // concatenate in chunk order and are then sorted and deduplicated —
    // the same set the serial scan collected.
    std::vector<SymbolId> prefix_symbols;
    const std::uint32_t stem_entry =
        index.EntryOf(component.stem.first, component.stem.second);
    if (stem_entry != ClassIndex::kNoEntry) {
      const std::span<const std::uint32_t> posting =
          index.BigramClasses(stem_entry);
      const std::size_t plen = posting.size();
      const std::size_t pchunks =
          util::ThreadPool::ChunksFor(plen, scan_grain);
      if (scratch.chunk_prefixes.size() < pchunks) {
        scratch.chunk_prefixes.resize(pchunks);
      }
      *parallel_seconds += ParallelRegion(
          pool, pchunks, [&](std::size_t c, std::size_t) {
            std::vector<SymbolId>& out = scratch.chunk_prefixes[c];
            out.clear();
            const auto [begin, end] =
                util::ThreadPool::ChunkRange(plen, scan_grain, c);
            std::uint32_t last = kNoIndex;
            for (std::size_t i = begin; i < end; ++i) {
              const std::uint32_t cls = posting[i];
              if (cls == last) continue;
              last = cls;
              if (!active[cls]) continue;
              if (sequence.size() == 2 ||
                  ContainsSpan(arena.Seq(cls), arena.Len(cls),
                               sequence.data(), sequence.size())) {
                out.push_back(arena.views[cls].prefix_symbol);
              }
            }
          });
      for (std::size_t c = 0; c < pchunks; ++c) {
        prefix_symbols.insert(prefix_symbols.end(),
                              scratch.chunk_prefixes[c].begin(),
                              scratch.chunk_prefixes[c].end());
      }
    }
    std::sort(prefix_symbols.begin(), prefix_symbols.end());
    prefix_symbols.erase(
        std::unique(prefix_symbols.begin(), prefix_symbols.end()),
        prefix_symbols.end());

    // E: every active class whose prefix is in P, via the prefix posting
    // lists — proportional to the component, not the window.  The
    // deactivation sweep stays serial (it mutates shared flags); the
    // subtract-on-removal pass shards the removed classes into
    // input-derived chunks, each accumulating its delta in a per-slot
    // dense array (capacity reuse only: the chunk reads out the entries
    // it touched and zeroes them again) and keeping them as a sparse
    // per-chunk list that merges in chunk order.  Untouched entries
    // would subtract 0.0, a no-op, so this is bit-identical to merging
    // dense per-chunk deltas — and the persistent counts stay
    // bit-identical at any thread count — at a cost proportional to the
    // removed classes rather than to the bigram table.  The component
    // that ends the loop (the max_components-th, or one that leaves no
    // active class) skips the subtract: no later search reads the counts.
    const std::uint32_t comp_id =
        static_cast<std::uint32_t>(result.components.size());
    scratch.removed.clear();
    for (const SymbolId prefix_symbol : prefix_symbols) {
      for (const std::uint32_t cls : index.PrefixClasses(prefix_symbol)) {
        if (!active[cls]) continue;
        active[cls] = 0;
        class_component[cls] = comp_id;
        active_count -= input.class_mult[cls];
        scratch.removed.push_back(cls);
      }
    }
    const std::size_t removal_grain =
        std::max<std::size_t>(1, options.removal_grain);
    const bool ends_loop =
        result.components.size() + 1 >= options.max_components ||
        active_count == 0;
    const std::size_t rchunks =
        ends_loop ? 0
                  : util::ThreadPool::ChunksFor(scratch.removed.size(),
                                                removal_grain);
    if (scratch.chunk_deltas.size() < rchunks) {
      scratch.chunk_deltas.resize(rchunks);
    }
    scratch.slot_deltas.resize(pool != nullptr ? pool->threads() : 1);
    scratch.slot_touched.resize(scratch.slot_deltas.size());
    *parallel_seconds += ParallelRegion(
        pool, rchunks, [&](std::size_t c, std::size_t slot) {
          std::vector<double>& dense = scratch.slot_deltas[slot];
          std::vector<std::uint32_t>& touched = scratch.slot_touched[slot];
          if (dense.size() != n_bigrams) dense.assign(n_bigrams, 0.0);
          touched.clear();
          const auto [begin, end] = util::ThreadPool::ChunkRange(
              scratch.removed.size(), removal_grain, c);
          for (std::size_t i = begin; i < end; ++i) {
            const EventView& view = arena.views[scratch.removed[i]];
            const double weight = view.weight;
            for (std::uint32_t j = 0; j + 1 < view.length; ++j) {
              const std::uint32_t e = arena.pair_entries[view.begin + j];
              if (dense[e] == 0.0) touched.push_back(e);
              dense[e] += weight;
            }
          }
          std::vector<std::pair<std::uint32_t, double>>& delta =
              scratch.chunk_deltas[c];
          delta.clear();
          for (const std::uint32_t e : touched) {
            delta.emplace_back(e, dense[e]);  // 0.0 if already read out
            dense[e] = 0.0;
          }
        });
    for (std::size_t c = 0; c < rchunks; ++c) {
      for (const auto& [e, d] : scratch.chunk_deltas[c]) {
        bigram_counts[e] -= d;
      }
    }

    component.prefixes.reserve(prefix_symbols.size());
    for (const SymbolId s : prefix_symbols) {
      component.prefixes.push_back(input.symbols.PrefixOf(s));
    }
    std::sort(component.prefixes.begin(), component.prefixes.end());

    result.components.push_back(std::move(component));
  }

  // Expand classes back to original events, in ascending event order —
  // the same order (and the same floating-point accumulation sequence)
  // in which a per-event recursion would have collected them.
  for (std::size_t ei = 0; ei < input.event_class.size(); ++ei) {
    const std::uint32_t cls = input.event_class[ei];
    const std::uint32_t comp_id = class_component[cls];
    if (comp_id == kNoComponent) continue;
    Component& component = result.components[comp_id];
    component.event_indices.push_back(ei);
    component.event_weight += arena.views[cls].unit_weight;
  }

  result.residual_events = active_count;
  result.stats.components = result.components.size();
  result.stats.extract_seconds = extract_timer.Seconds();
  extract_span.Annotate("components",
                        static_cast<std::uint64_t>(result.components.size()));
  RANOMALY_METRIC_COUNT("stemming_components_total", result.components.size());
  RANOMALY_METRIC_OBSERVE("stemming_components_per_window",
                          (std::vector<double>{0, 1, 2, 4, 8, 16}),
                          static_cast<double>(result.components.size()));
  RANOMALY_METRIC_OBSERVE("stemming_extract_seconds", obs::TimeBounds(),
                          result.stats.extract_seconds);
  if (result.stats.extract_seconds > 0.0) {
    RANOMALY_METRIC_SET(
        "stemming_extract_parallel_fraction",
        std::min(1.0, *parallel_seconds / result.stats.extract_seconds));
  }
}

}  // namespace internal

StemmingResult Stem(std::span<const bgp::Event> events,
                    const StemmingOptions& options) {
  using namespace internal;
  StemmingResult result;
  result.total_events = events.size();
  result.stats.events_encoded = events.size();
  util::ThreadPool* pool = options.pool;
  double par_encode = 0.0, par_count = 0.0, par_extract = 0.0;

  // ---- Encode: events -> weighted sequence classes in the flat arena.
  //
  // Sharded local dedup + ordered merge (DESIGN.md "Parallel analysis
  // architecture"): contiguous event shards dedup into local class
  // tables in parallel; merging the local tables in shard order
  // reproduces the global first-seen class order — and with it symbol
  // ids, bigram entry ids, and every downstream byte — of a serial
  // encoder, at any thread count.
  const util::StageTimer encode_timer;
  obs::TraceSpan encode_span("stemming.encode");
  encode_span.Annotate("events", static_cast<std::uint64_t>(events.size()));
  const bool weighted = static_cast<bool>(options.weight_fn);
  const std::size_t n = events.size();
  const std::size_t shard_events =
      std::max<std::size_t>(1, options.encode_shard_events);
  const std::size_t n_shards = util::ThreadPool::ChunksFor(n, shard_events);
  std::vector<EncodeShard> shards(n_shards);
  par_encode += ParallelRegion(
      pool, n_shards, [&](std::size_t s, std::size_t) {
        EncodeShard& shard = shards[s];
        const auto [begin, end] =
            util::ThreadPool::ChunkRange(n, shard_events, s);
        shard.event_local.reserve(end - begin);
        std::vector<std::uint64_t> raw_buf;
        for (std::size_t ei = begin; ei < end; ++ei) {
          if (ei + 1 < end) {
            // The AS path lives behind a pointer per event; pull the next
            // one into cache while this one is being encoded.
            __builtin_prefetch(events[ei + 1].attrs.as_path.asns().data());
          }
          const bgp::Event& e = events[ei];
          raw_buf.clear();
          AppendRawSequence(e, raw_buf);
          const auto len = static_cast<std::uint32_t>(raw_buf.size());
          const std::uint32_t cls = shard.FindOrInsert(
              raw_buf.data(), len, HashSpan(raw_buf.data(), len));
          ++shard.mult[cls];
          shard.event_local.push_back(cls);
        }
        // Partition the local classes by merge bucket, keeping ascending
        // (= first-seen) order within each bucket.
        const auto n_local = static_cast<std::uint32_t>(shard.begins.size());
        shard.bucket_offsets.assign(kMergeBuckets + 1, 0);
        for (std::uint32_t c = 0; c < n_local; ++c) {
          ++shard.bucket_offsets[BucketOf(shard.hashes[c]) + 1];
        }
        for (std::size_t b = 0; b < kMergeBuckets; ++b) {
          shard.bucket_offsets[b + 1] += shard.bucket_offsets[b];
        }
        shard.by_bucket.resize(n_local);
        std::vector<std::uint32_t> cursor(shard.bucket_offsets.begin(),
                                          shard.bucket_offsets.end() - 1);
        for (std::uint32_t c = 0; c < n_local; ++c) {
          shard.by_bucket[cursor[BucketOf(shard.hashes[c])]++] = c;
        }
        shard.global.resize(n_local);
      });

  // Merge local classes into global groups, one hash bucket per chunk
  // (buckets touch disjoint classes, so they are independent).
  std::vector<MergeBucket> merge_buckets(kMergeBuckets);
  par_encode += ParallelRegion(
      pool, n_shards == 0 ? 0 : kMergeBuckets,
      [&](std::size_t b, std::size_t) {
        MergeBucket& bucket = merge_buckets[b];
        std::size_t cand = 0;
        for (const EncodeShard& shard : shards) {
          cand += shard.bucket_offsets[b + 1] - shard.bucket_offsets[b];
        }
        if (cand == 0) return;
        std::size_t cap = 16;
        while (cap * 7 < cand * 10) cap <<= 1;
        bucket.slots.assign(cap, 0u);
        bucket.mask = cap - 1;
        for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(n_shards);
             ++s) {
          EncodeShard& shard = shards[s];
          for (std::uint32_t bi = shard.bucket_offsets[b];
               bi < shard.bucket_offsets[b + 1]; ++bi) {
            const std::uint32_t c = shard.by_bucket[bi];
            const std::uint64_t hash = shard.hashes[c];
            const std::uint32_t len = shard.lengths[c];
            const std::uint64_t* seq = shard.raw.data() + shard.begins[c];
            std::size_t i = hash & bucket.mask;
            std::uint32_t idx = kNoIndex;
            while (bucket.slots[i] != 0) {
              const std::uint32_t g = bucket.slots[i] - 1;
              const EncodeShard& rep = shards[bucket.g_shard[g]];
              const std::uint32_t rl = bucket.g_local[g];
              if (rep.hashes[rl] == hash && rep.lengths[rl] == len &&
                  std::equal(seq, seq + len, rep.raw.data() + rep.begins[rl])) {
                idx = g;
                break;
              }
              i = (i + 1) & bucket.mask;
            }
            if (idx == kNoIndex) {
              idx = static_cast<std::uint32_t>(bucket.g_shard.size());
              bucket.slots[i] = idx + 1;
              bucket.g_shard.push_back(s);
              bucket.g_local.push_back(c);
              bucket.g_mult.push_back(shard.mult[c]);
            } else {
              bucket.g_mult[idx] += shard.mult[c];
            }
            shard.global[c] = idx;
          }
        }
        bucket.g_gid.resize(bucket.g_shard.size());
      });

  // Assign global class ids in first-seen order: a class's first event
  // lies in its representative (= earliest) shard, so walking shards in
  // order and locals in first-seen order visits representatives exactly
  // in serial first-seen order.
  std::vector<std::uint32_t> rep_shard_of, rep_local_of;
  std::vector<std::uint32_t> class_mult;  // events per class
  for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(n_shards); ++s) {
    const EncodeShard& shard = shards[s];
    for (std::uint32_t c = 0; c < static_cast<std::uint32_t>(
                                      shard.begins.size());
         ++c) {
      MergeBucket& bucket = merge_buckets[BucketOf(shard.hashes[c])];
      const std::uint32_t idx = shard.global[c];
      if (bucket.g_shard[idx] == s && bucket.g_local[idx] == c) {
        bucket.g_gid[idx] = static_cast<std::uint32_t>(class_mult.size());
        rep_shard_of.push_back(s);
        rep_local_of.push_back(c);
        class_mult.push_back(bucket.g_mult[idx]);
      }
    }
  }
  const std::size_t n_classes = class_mult.size();

  // Translate local classes to global ids and recover per-event classes.
  std::vector<std::uint32_t> event_class(n, 0);
  par_encode += ParallelRegion(
      pool, n_shards, [&](std::size_t s, std::size_t) {
        EncodeShard& shard = shards[s];
        for (std::uint32_t c = 0; c < static_cast<std::uint32_t>(
                                          shard.begins.size());
             ++c) {
          shard.global[c] =
              merge_buckets[BucketOf(shard.hashes[c])].g_gid[shard.global[c]];
        }
        const auto [begin, end] =
            util::ThreadPool::ChunkRange(n, shard_events, s);
        for (std::size_t i = begin; i < end; ++i) {
          event_class[i] = shard.global[shard.event_local[i - begin]];
        }
      });

  // Lay the global arena out: representatives' spans copied in class
  // order, so positions — like ids — match the serial encoder's.
  Arena arena;
  arena.views.resize(n_classes);
  std::size_t total_positions = 0;
  for (std::size_t gid = 0; gid < n_classes; ++gid) {
    arena.views[gid].begin = static_cast<std::uint32_t>(total_positions);
    arena.views[gid].length =
        shards[rep_shard_of[gid]].lengths[rep_local_of[gid]];
    total_positions += arena.views[gid].length;
  }
  arena.raw.resize(total_positions);
  arena.symbols.resize(total_positions);
  std::vector<std::uint32_t> pos_class(total_positions, 0);
  const std::size_t class_grain =
      std::max<std::size_t>(1, options.candidate_grain);
  const std::size_t class_chunks =
      util::ThreadPool::ChunksFor(n_classes, class_grain);
  par_encode += ParallelRegion(
      pool, class_chunks, [&](std::size_t c, std::size_t) {
        const auto [gb, ge] =
            util::ThreadPool::ChunkRange(n_classes, class_grain, c);
        for (std::size_t gid = gb; gid < ge; ++gid) {
          const EncodeShard& shard = shards[rep_shard_of[gid]];
          const EventView& view = arena.views[gid];
          const std::uint64_t* src =
              shard.raw.data() + shard.begins[rep_local_of[gid]];
          std::copy(src, src + view.length, arena.raw.begin() + view.begin);
          std::fill(pos_class.begin() + view.begin,
                    pos_class.begin() + view.begin + view.length,
                    static_cast<std::uint32_t>(gid));
        }
      });
  std::vector<EncodeShard>().swap(shards);
  std::vector<MergeBucket>().swap(merge_buckets);

  // Symbol ids: first-occurrence dedup over the arena walk — the same
  // order a per-event encoder interns in, since a never-seen symbol
  // first appears in a never-seen sequence.  The SymbolTable is then
  // populated serially in id order (it assigns ids sequentially).
  const std::size_t dedup_grain = std::max<std::size_t>(shard_events, 4096);
  const std::vector<std::uint64_t> symbol_keys = OrderedDedupU64(
      total_positions, dedup_grain, pool,
      [&](std::size_t p) { return arena.raw[p]; }, arena.symbols.data(),
      &par_encode);
  for (const std::uint64_t key : symbol_keys) {
    result.symbols.InternRaw(key);
  }
  par_encode += ParallelRegion(
      pool, class_chunks, [&](std::size_t c, std::size_t) {
        const auto [gb, ge] =
            util::ThreadPool::ChunkRange(n_classes, class_grain, c);
        for (std::size_t gid = gb; gid < ge; ++gid) {
          EventView& view = arena.views[gid];
          view.prefix_symbol =
              arena.symbols[view.begin + view.length - 1];
        }
      });

  // Weights.  weight_fn is user code: call it on this thread only, once
  // per class, in class (= serial first-seen) order.  Class weights are
  // the unit weight added multiplicity times — the exact accumulation a
  // per-event encoder performs — and the weighted window total follows
  // original event order, so both match the serial bytes.
  if (weighted) {
    for (std::size_t gid = 0; gid < n_classes; ++gid) {
      arena.views[gid].unit_weight = options.weight_fn(
          result.symbols.PrefixOf(arena.views[gid].prefix_symbol));
    }
  }
  par_encode += ParallelRegion(
      pool, class_chunks, [&](std::size_t c, std::size_t) {
        const auto [gb, ge] =
            util::ThreadPool::ChunkRange(n_classes, class_grain, c);
        for (std::size_t gid = gb; gid < ge; ++gid) {
          EventView& view = arena.views[gid];
          if (weighted) {
            double w = 0.0;
            for (std::uint32_t m = 0; m < class_mult[gid]; ++m) {
              w += view.unit_weight;
            }
            view.weight = w;
          } else {
            view.weight = static_cast<double>(class_mult[gid]);
          }
        }
      });
  if (weighted) {
    for (std::size_t ei = 0; ei < n; ++ei) {
      result.total_weight += arena.views[event_class[ei]].unit_weight;
    }
  } else {
    result.total_weight = static_cast<double>(n);
  }

  // Bigram entry ids: first-occurrence dedup over the adjacent pairs of
  // the arena walk (class-final positions are skipped and keep entry 0,
  // as the serial encoder recorded).
  Postings postings;
  arena.pair_entries.assign(total_positions, 0);
  const auto pair_key = [&](std::size_t p) -> std::uint64_t {
    if (p + 1 >= total_positions || pos_class[p + 1] != pos_class[p]) {
      return kInvalidKey;
    }
    return PackPair(arena.symbols[p], arena.symbols[p + 1]);
  };
  postings.bigram_keys =
      OrderedDedupU64(total_positions, dedup_grain, pool, pair_key,
                      arena.pair_entries.data(), &par_encode);
  const std::size_t n_bigrams = postings.bigram_keys.size();
  postings.bigram_index.Reserve(n_bigrams);
  for (std::size_t e = 0; e < n_bigrams; ++e) {
    postings.bigram_index.At(postings.bigram_keys[e]) =
        static_cast<std::uint32_t>(e) + 1;
  }

  // Bigram -> classes CSR: per-chunk entry counts, cross-chunk exclusive
  // scan (parallel over entry ranges), then a sharded fill.  Chunks are
  // position-ascending and positions are class-ascending, so each
  // entry's posting list comes out in ascending class order with
  // same-class duplicates adjacent — identical to the serial fill.
  const std::size_t csr_chunks =
      util::ThreadPool::ChunksFor(total_positions, dedup_grain);
  std::vector<std::vector<std::uint32_t>> csr_counts(csr_chunks);
  par_encode += ParallelRegion(
      pool, csr_chunks, [&](std::size_t c, std::size_t) {
        std::vector<std::uint32_t>& counts = csr_counts[c];
        counts.assign(n_bigrams, 0);
        const auto [begin, end] =
            util::ThreadPool::ChunkRange(total_positions, dedup_grain, c);
        for (std::size_t p = begin; p < end; ++p) {
          if (pair_key(p) != kInvalidKey) ++counts[arena.pair_entries[p]];
        }
      });
  postings.offsets.assign(n_bigrams + 1, 0);
  const std::size_t scan_grain = std::max<std::size_t>(1, options.scan_grain);
  const std::size_t entry_chunks =
      util::ThreadPool::ChunksFor(n_bigrams, scan_grain);
  par_encode += ParallelRegion(
      pool, entry_chunks, [&](std::size_t c, std::size_t) {
        const auto [begin, end] =
            util::ThreadPool::ChunkRange(n_bigrams, scan_grain, c);
        for (std::size_t e = begin; e < end; ++e) {
          std::uint32_t total = 0;
          for (std::size_t cc = 0; cc < csr_chunks; ++cc) {
            total += csr_counts[cc][e];
          }
          postings.offsets[e + 1] = total;
        }
      });
  for (std::size_t e = 0; e < n_bigrams; ++e) {
    postings.offsets[e + 1] += postings.offsets[e];
  }
  par_encode += ParallelRegion(
      pool, entry_chunks, [&](std::size_t c, std::size_t) {
        const auto [begin, end] =
            util::ThreadPool::ChunkRange(n_bigrams, scan_grain, c);
        for (std::size_t e = begin; e < end; ++e) {
          std::uint32_t running = postings.offsets[e];
          for (std::size_t cc = 0; cc < csr_chunks; ++cc) {
            const std::uint32_t count = csr_counts[cc][e];
            csr_counts[cc][e] = running;  // becomes the chunk's cursor
            running += count;
          }
        }
      });
  postings.events.resize(postings.offsets[n_bigrams]);
  par_encode += ParallelRegion(
      pool, csr_chunks, [&](std::size_t c, std::size_t) {
        std::vector<std::uint32_t>& cursor = csr_counts[c];
        const auto [begin, end] =
            util::ThreadPool::ChunkRange(total_positions, dedup_grain, c);
        for (std::size_t p = begin; p < end; ++p) {
          if (pair_key(p) != kInvalidKey) {
            postings.events[cursor[arena.pair_entries[p]]++] = pos_class[p];
          }
        }
      });
  std::vector<std::vector<std::uint32_t>>().swap(csr_counts);

  // Prefix -> classes CSR, two-pass over the (small) class list.
  postings.prefix_offsets.assign(result.symbols.size() + 1, 0);
  for (const EventView& view : arena.views) {
    ++postings.prefix_offsets[view.prefix_symbol + 1];
  }
  for (std::size_t s = 0; s < result.symbols.size(); ++s) {
    postings.prefix_offsets[s + 1] += postings.prefix_offsets[s];
  }
  postings.prefix_classes.resize(arena.views.size());
  {
    std::vector<std::uint32_t> cursor(postings.prefix_offsets.begin(),
                                      postings.prefix_offsets.end() - 1);
    for (std::uint32_t cls = 0;
         cls < static_cast<std::uint32_t>(arena.views.size()); ++cls) {
      postings.prefix_classes[cursor[arena.views[cls].prefix_symbol]++] = cls;
    }
  }
  result.stats.distinct_sequences = arena.views.size();
  result.stats.symbols_interned = result.symbols.size();
  result.stats.arena_symbols = arena.symbols.size();
  result.stats.encode_seconds = encode_timer.Seconds();
  encode_span.Annotate("classes",
                       static_cast<std::uint64_t>(arena.views.size()));
  encode_span.Annotate("shards", static_cast<std::uint64_t>(n_shards));
  encode_span.End();
  RANOMALY_METRIC_COUNT("stemming_events_encoded_total", events.size());
  RANOMALY_METRIC_COUNT("stemming_distinct_sequences_total",
                        arena.views.size());
  RANOMALY_METRIC_COUNT("stemming_symbols_interned_total",
                        result.symbols.size());
  RANOMALY_METRIC_COUNT("stemming_arena_symbols_total", arena.symbols.size());
  RANOMALY_METRIC_OBSERVE("stemming_encode_seconds", obs::TimeBounds(),
                          result.stats.encode_seconds);
  if (result.stats.encode_seconds > 0.0) {
    RANOMALY_METRIC_SET(
        "stemming_encode_parallel_fraction",
        std::min(1.0, par_encode / result.stats.encode_seconds));
  }

  // Initial bigram count, sharded over dense per-shard arrays indexed by
  // the entry ids recorded during encoding — no hashing.  The shard
  // split depends only on the class count — never on the pool — and
  // partials merge in shard order, so any thread count (or none)
  // produces identical sums, bit for bit.
  const util::StageTimer count_timer;
  obs::TraceSpan count_span("stemming.count");
  constexpr std::size_t kShardSize = 16384;
  const std::size_t count_shards =
      util::ThreadPool::ChunksFor(arena.views.size(), kShardSize);
  std::vector<std::vector<double>> partial(count_shards);
  par_count += ParallelRegion(
      pool, count_shards, [&](std::size_t s, std::size_t) {
        const auto [begin, end] =
            util::ThreadPool::ChunkRange(arena.views.size(), kShardSize, s);
        std::vector<double>& counts = partial[s];
        counts.assign(n_bigrams, 0.0);
        for (std::size_t i = begin; i < end; ++i) {
          const EventView& view = arena.views[i];
          const double weight = view.weight;
          for (std::uint32_t j = 0; j + 1 < view.length; ++j) {
            counts[arena.pair_entries[view.begin + j]] += weight;
          }
        }
      });
  std::vector<double> bigram_counts(n_bigrams, 0.0);
  for (const std::vector<double>& counts : partial) {
    for (std::size_t e = 0; e < n_bigrams; ++e) {
      bigram_counts[e] += counts[e];
    }
  }
  partial.clear();
  result.stats.bigram_table_size = n_bigrams;
  result.stats.count_seconds = count_timer.Seconds();
  count_span.Annotate("bigrams", static_cast<std::uint64_t>(n_bigrams));
  count_span.Annotate("shards", static_cast<std::uint64_t>(count_shards));
  count_span.End();
  RANOMALY_METRIC_COUNT("stemming_bigram_entries_total", n_bigrams);
  RANOMALY_METRIC_OBSERVE("stemming_count_seconds", obs::TimeBounds(),
                          result.stats.count_seconds);
  if (result.stats.count_seconds > 0.0) {
    RANOMALY_METRIC_SET(
        "stemming_count_parallel_fraction",
        std::min(1.0, par_count / result.stats.count_seconds));
  }

  std::vector<char> active(arena.views.size(), 1);
  ExtractComponents(ExtractInput{arena, postings, result.symbols, class_mult,
                                 event_class, bigram_counts, active},
                    options, result, &par_extract);
  result.stats.parallel_seconds = par_encode + par_count + par_extract;
  return result;
}

}  // namespace ranomaly::stemming
