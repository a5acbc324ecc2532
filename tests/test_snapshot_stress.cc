/// Concurrency stress suite for the MVCC storage layer: N snapshot
/// readers racing one mutating writer and running compactions, with
/// bitwise snapshot-isolation checks throughout. CI runs this file
/// under ThreadSanitizer at 1, 2 and 4 pool threads (the tsan preset +
/// KGNET_NUM_THREADS); the assertions themselves are valid under any
/// interleaving.
///
/// Contract exercised (docs/STORAGE.md): one mutating writer, any
/// number of snapshot readers, concurrent Compact() calls. Dictionary
/// interning is writer-role work, so the whole term universe is
/// interned up front and the racing threads touch encoded ids only.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "rdf/triple_store.h"
#include "tensor/rng.h"

namespace kgnet::rdf {
namespace {

/// Pre-interns a term universe and returns every (s, p, o) combination
/// as an encoded triple. Nothing after this touches the dictionary.
std::vector<Triple> BuildUniverse(TripleStore* store, uint64_t n_s,
                                  uint64_t n_p, uint64_t n_o) {
  Dictionary* dict = &store->dict();
  std::vector<TermId> s_ids, p_ids, o_ids;
  for (uint64_t i = 0; i < n_s; ++i)
    s_ids.push_back(dict->InternIri("s" + std::to_string(i)));
  for (uint64_t i = 0; i < n_p; ++i)
    p_ids.push_back(dict->InternIri("p" + std::to_string(i)));
  for (uint64_t i = 0; i < n_o; ++i)
    o_ids.push_back(dict->InternIri("o" + std::to_string(i)));
  std::vector<Triple> universe;
  universe.reserve(n_s * n_p * n_o);
  for (TermId s : s_ids)
    for (TermId p : p_ids)
      for (TermId o : o_ids) universe.emplace_back(s, p, o);
  return universe;
}

/// One writer mutating + explicitly compacting, `n_readers` readers
/// verifying bitwise snapshot isolation, one dedicated compactor
/// thread. Returns nothing — failures surface as gtest assertions.
void RunStress(int n_readers) {
  TripleStore::Options opts;
  opts.delta_compact_threshold = 64;  // force frequent auto-compactions
  TripleStore store(opts);
  const std::vector<Triple> universe = BuildUniverse(&store, 12, 3, 10);

  // Seed a third of the universe so erases hit from the start.
  tensor::Rng seed_rng(1);
  std::vector<bool> present(universe.size(), false);
  for (size_t i = 0; i < universe.size() / 3; ++i) {
    const size_t k = seed_rng.NextUint(universe.size());
    if (store.Insert(universe[k])) present[k] = true;
  }
  store.Compact();

  std::atomic<bool> writer_done{false};
  constexpr int kWriterOps = 4000;

  std::thread writer([&] {
    tensor::Rng rng(2);
    for (int op = 0; op < kWriterOps; ++op) {
      const size_t k = rng.NextUint(universe.size());
      if (present[k]) {
        EXPECT_TRUE(store.Erase(universe[k])) << "op " << op;
        present[k] = false;
      } else {
        EXPECT_TRUE(store.Insert(universe[k])) << "op " << op;
        present[k] = true;
      }
      if (op % 512 == 511) store.Compact();
    }
    writer_done.store(true, std::memory_order_release);
  });

  std::thread compactor([&] {
    while (!writer_done.load(std::memory_order_acquire)) store.Compact();
  });

  std::vector<std::thread> readers;
  readers.reserve(static_cast<size_t>(n_readers));
  for (int r = 0; r < n_readers; ++r) {
    readers.emplace_back([&, r] {
      tensor::Rng rng(100 + static_cast<uint64_t>(r));
      uint64_t last_epoch = 0;
      while (!writer_done.load(std::memory_order_acquire)) {
        Snapshot snap = store.OpenSnapshot();
        // Epochs only move forward.
        EXPECT_GE(snap.epoch(), last_epoch);
        last_epoch = snap.epoch();

        // Bitwise isolation: the same snapshot materializes the same
        // rows no matter how much the writer/compactor churn between
        // the two reads.
        const std::vector<Triple> first = snap.Match(TriplePattern());
        EXPECT_EQ(first.size(), snap.size());
        const std::vector<Triple> again = snap.Match(TriplePattern());
        EXPECT_EQ(first, again);

        // Counts, estimates and cursors agree with the materialization
        // inside one snapshot — exactness holds on dirty ranges too.
        const Triple& probe = universe[rng.NextUint(universe.size())];
        TriplePattern pat;
        if (rng.NextFloat() < 0.6f) pat.p = probe.p;
        if (rng.NextFloat() < 0.4f) pat.s = probe.s;
        size_t want = 0;
        for (const Triple& t : first)
          if (pat.Matches(t)) ++want;
        EXPECT_EQ(snap.Count(pat), want);
        EXPECT_EQ(snap.EstimateCardinality(pat), want);
        TripleCursor c = snap.OpenCursor(snap.ChooseIndex(pat), pat);
        size_t streamed = 0;
        Triple row;
        while (c.Next(&row)) ++streamed;
        EXPECT_EQ(streamed, want);
      }
    });
  }

  writer.join();
  compactor.join();
  for (std::thread& t : readers) t.join();

  // Post-race: the store converged to the writer's serial model.
  store.Compact();
  size_t want_size = 0;
  for (size_t k = 0; k < universe.size(); ++k) {
    EXPECT_EQ(store.Contains(universe[k]), static_cast<bool>(present[k]));
    if (present[k]) ++want_size;
  }
  EXPECT_EQ(store.size(), want_size);
  // Every superseded generation was reclaimed once its snapshots died.
  EXPECT_EQ(store.GetStats().live_generations, 1);
}

TEST(SnapshotStressTest, OneReaderVsWriterAndCompaction) { RunStress(1); }
TEST(SnapshotStressTest, TwoReadersVsWriterAndCompaction) { RunStress(2); }
TEST(SnapshotStressTest, FourReadersVsWriterAndCompaction) { RunStress(4); }

TEST(SnapshotStressTest, PinnedSnapshotSurvivesManyCompactionCycles) {
  // One long-lived snapshot held across many generation swaps must stay
  // bitwise identical and keep exactly one superseded generation alive.
  TripleStore::Options opts;
  opts.delta_compact_threshold = 16;
  TripleStore store(opts);
  const std::vector<Triple> universe = BuildUniverse(&store, 8, 2, 8);
  tensor::Rng rng(3);
  for (size_t i = 0; i < universe.size() / 2; ++i)
    store.Insert(universe[rng.NextUint(universe.size())]);
  store.Compact();

  Snapshot pinned = store.OpenSnapshot();
  const std::vector<Triple> frozen = pinned.Match(TriplePattern());
  const uint64_t gens_before = store.GetStats().compactions;
  for (int round = 0; round < 8; ++round) {
    for (int op = 0; op < 40; ++op) {
      const size_t k = rng.NextUint(universe.size());
      if (store.Contains(universe[k]))
        store.Erase(universe[k]);
      else
        store.Insert(universe[k]);
    }
    store.Compact();
    EXPECT_EQ(pinned.Match(TriplePattern()), frozen) << "round " << round;
  }
  EXPECT_GT(store.GetStats().compactions, gens_before);
  // The pinned snapshot holds the one superseded generation; the store
  // holds the live one.
  EXPECT_EQ(store.GetStats().live_generations, 2);
  pinned = Snapshot();  // drop the pin
  EXPECT_EQ(store.GetStats().live_generations, 1);
}

// ------------------------------------------- incremental delta views --

/// Field-by-field comparison of two delta views, so a mismatch names the
/// order and field; the closing == pins the whole value.
void ExpectSameView(const DeltaView& got, const DeltaView& want, int step) {
  EXPECT_EQ(got.epoch(), want.epoch()) << "step " << step;
  EXPECT_EQ(got.num_inserts(), want.num_inserts()) << "step " << step;
  EXPECT_EQ(got.num_tombstones(), want.num_tombstones()) << "step " << step;
  for (int oi = 0; oi < kNumIndexOrders; ++oi) {
    const auto order = static_cast<IndexOrder>(oi);
    const DeltaView::OrderDelta& g = got.order_delta(order);
    const DeltaView::OrderDelta& w = want.order_delta(order);
    EXPECT_EQ(g.keys, w.keys) << IndexOrderName(order) << " step " << step;
    EXPECT_EQ(g.tombstone, w.tombstone)
        << IndexOrderName(order) << " step " << step;
    EXPECT_EQ(g.ins_before, w.ins_before)
        << IndexOrderName(order) << " step " << step;
  }
  EXPECT_TRUE(got == want) << "step " << step;
}

struct ViewCase {
  TripleStore::Options::IndexSet index_set;
  size_t compact_threshold;
  uint64_t seed;
};

// Names the case in test listings (and so in ctest test names).
void PrintTo(const ViewCase& vc, std::ostream* os) {
  *os << (vc.index_set == TripleStore::Options::IndexSet::kAllSix ? "AllSix"
                                                                  : "Trio")
      << "_threshold" << vc.compact_threshold << "_seed" << vc.seed;
}

/// Seeded random single inserts and erases (no-op ones included),
/// erase-then-reinsert runs, insert and erase batches (with duplicates),
/// explicit and writer-triggered compactions. After every step the view
/// a snapshot gets — extended from the previous step's cached view —
/// must equal the from-scratch rebuild of the whole log, and the store
/// must match a plain membership model.
class SnapshotStressViewTest : public ::testing::TestWithParam<ViewCase> {};

TEST_P(SnapshotStressViewTest, IncrementalViewMatchesRebuildAfterEveryStep) {
  const ViewCase vc = GetParam();
  TripleStore::Options opts;
  opts.index_set = vc.index_set;
  opts.delta_compact_threshold = vc.compact_threshold;
  TripleStore store(opts);
  const std::vector<Triple> universe = BuildUniverse(&store, 7, 3, 6);
  std::vector<bool> present(universe.size(), false);
  tensor::Rng rng(vc.seed);
  auto pick = [&] { return rng.NextUint(universe.size()); };
  auto single = [&](size_t k, bool erase) {
    const bool applied =
        erase ? store.Erase(universe[k]) : store.Insert(universe[k]);
    EXPECT_EQ(applied, present[k] == erase);
    present[k] = !erase;
  };
  // Half the universe in the first generation, so erases and
  // re-inserts of generation keys happen from the start.
  for (size_t k = 0; k < universe.size(); k += 2) single(k, false);
  store.Compact();

  constexpr int kSteps = 1500;
  for (int step = 0; step < kSteps; ++step) {
    const uint64_t action = rng.NextUint(10);
    if (action < 4) {
      const uint64_t n = 1 + rng.NextUint(6);
      for (uint64_t i = 0; i < n; ++i) single(pick(), rng.NextUint(2) == 0);
    } else if (action < 5) {
      const size_t k = pick();  // erase-then-reinsert (or the reverse)
      single(k, present[k]);
      single(k, present[k]);
    } else if (action < 9) {
      const bool erase = action == 8 || rng.NextUint(2) == 0;
      std::vector<Triple> batch;
      std::vector<bool> after = present;
      size_t want = 0;
      const uint64_t n = 1 + rng.NextUint(12);
      for (uint64_t i = 0; i < n; ++i) {
        const size_t k = pick();
        batch.push_back(universe[k]);
        if (after[k] == erase) ++want;
        after[k] = !erase;
      }
      EXPECT_EQ(store.Apply(erase ? TripleStore::Mutation::kErase
                                  : TripleStore::Mutation::kInsert,
                            batch),
                want)
          << "step " << step;
      present = std::move(after);
    } else {
      store.Compact();
    }

    const Snapshot snap = store.OpenSnapshot();
    const std::shared_ptr<const DeltaView> oracle = store.RebuildDeltaView();
    ASSERT_NE(snap.delta_view(), nullptr);
    ExpectSameView(*snap.delta_view(), *oracle, step);
    EXPECT_EQ(snap.epoch(), store.epoch());
    size_t live = 0;
    for (bool b : present) live += b ? 1 : 0;
    ASSERT_EQ(snap.size(), live) << "step " << step;
    if (::testing::Test::HasFailure()) return;
  }
  for (size_t k = 0; k < universe.size(); ++k)
    EXPECT_EQ(store.Contains(universe[k]), static_cast<bool>(present[k]));
  EXPECT_GT(store.GetStats().compactions, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    IndexSetsAndThresholds, SnapshotStressViewTest,
    ::testing::Values(
        ViewCase{TripleStore::Options::IndexSet::kAllSix, 4096, 11},
        ViewCase{TripleStore::Options::IndexSet::kAllSix, 24, 12},
        ViewCase{TripleStore::Options::IndexSet::kClassicTrio, 4096, 13},
        ViewCase{TripleStore::Options::IndexSet::kClassicTrio, 24, 14}));

TEST(SnapshotStressTest, ReadersNeverSeePartOfABatch) {
  // The writer inserts and erases whole batches of kBatch triples (one
  // subject each) with Apply while a compactor runs; every snapshot must
  // hold whole batches only, at an epoch on a batch boundary.
  constexpr size_t kBatch = 8;
  TripleStore::Options opts;
  opts.delta_compact_threshold = 64;
  TripleStore store(opts);
  const std::vector<Triple> universe = BuildUniverse(&store, 48, 1, kBatch);
  auto batch_of = [&](size_t b) {
    return std::span<const Triple>(universe).subspan(b * kBatch, kBatch);
  };
  const size_t num_batches = universe.size() / kBatch;

  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    constexpr size_t kLive = 5;
    for (size_t round = 0; round < 1200; ++round) {
      EXPECT_EQ(store.Apply(TripleStore::Mutation::kInsert,
                            batch_of(round % num_batches)),
                kBatch);
      if (round >= kLive) {
        EXPECT_EQ(store.Apply(TripleStore::Mutation::kErase,
                              batch_of((round - kLive) % num_batches)),
                  kBatch);
      }
    }
    writer_done.store(true, std::memory_order_release);
  });
  std::thread compactor([&] {
    while (!writer_done.load(std::memory_order_acquire)) store.Compact();
  });
  std::vector<std::thread> readers;
  std::atomic<int> snapshots{0};
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!writer_done.load(std::memory_order_acquire)) {
        const Snapshot snap = store.OpenSnapshot();
        ++snapshots;
        EXPECT_EQ(snap.epoch() % kBatch, 0u) << snap.epoch();
        EXPECT_EQ(snap.size() % kBatch, 0u) << snap.size();
        size_t rows = 0;
        TermId subject = kNullTermId;
        size_t run = 0;
        TripleCursor c = snap.OpenCursor(IndexOrder::kSpo, TriplePattern());
        Triple t;
        while (c.Next(&t)) {
          ++rows;
          if (t.s != subject) {
            EXPECT_TRUE(run == 0 || run == kBatch) << run;
            subject = t.s;
            run = 0;
          }
          ++run;
        }
        EXPECT_TRUE(run == 0 || run == kBatch) << run;
        EXPECT_EQ(rows, snap.size());
      }
    });
  }
  writer.join();
  compactor.join();
  for (std::thread& t : readers) t.join();
  EXPECT_GT(snapshots.load(), 0);
  EXPECT_EQ(store.size(), 5 * kBatch);
}

}  // namespace
}  // namespace kgnet::rdf
