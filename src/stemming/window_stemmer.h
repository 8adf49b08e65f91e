// Sliding-window stemming: the paper's Section V live monitor re-stems a
// 5-minute window every 10 s tick.  Re-encoding the whole window each
// tick encodes every event ~30 times; WindowStemmer instead keeps the
// encoded window — class arena, class refcounts, symbols, bigram entries
// with their counts, and the bigram/prefix posting lists — across ticks,
// so a tick costs its arrivals and expiries plus one extraction
// (DESIGN.md "Sliding-window stemming").
//
// Extract() returns exactly what `Stem` returns on the same window
// (unweighted), with SymbolIds naming the returned result's own table:
// compare results across the two through SymbolTable::Raw.
#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "stemming/stemming.h"

namespace ranomaly::stemming {

class WindowStemmer {
 public:
  // Throws std::invalid_argument when options.weight_fn is set: the
  // sliding window is unweighted (class counts are integer refcounts).
  explicit WindowStemmer(StemmingOptions options = {});
  ~WindowStemmer();
  WindowStemmer(WindowStemmer&&) noexcept;
  WindowStemmer& operator=(WindowStemmer&&) noexcept;

  // Appends routing events (no collection markers) to the back of the
  // window: each is encoded once, its class interned or revived, and its
  // bigram contributions added.
  void PushBack(std::span<const bgp::Event> arrivals);

  // Expires the `n` oldest events (n <= size()): refcounts and bigram
  // counts are decremented.  A class whose refcount reaches zero becomes
  // a tombstone; once tombstones exceed a quarter of the live classes
  // the state is compacted to the live ones, which renumbers every id.
  void PopFront(std::size_t n);

  // Runs the component recursion over the current window on a per-call
  // copy of the counts and liveness flags; the persistent state is not
  // modified.  event_indices index the window, oldest event first.
  StemmingResult Extract() const;

  std::size_t size() const;          // events in the window
  std::size_t classes() const;       // live + dead classes held
  std::size_t dead_classes() const;  // tombstones awaiting compaction
  std::size_t Bytes() const;         // heap bytes held by the state

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace ranomaly::stemming
