// Planner-choice unit tests: asserts, via QueryEngine::Explain() and the
// ExecInfo counters, that the cost-based planner picks the intended join
// algorithm per query shape and that LIMIT short-circuits the scans.
#include <gtest/gtest.h>

#include <string>

#include "common/thread_pool.h"
#include "rdf/term.h"
#include "sparql/engine.h"
#include "sparql/parser.h"
#include "tests/parallel_test_util.h"

namespace kgnet::sparql {
namespace {

class PlanTest : public ::testing::Test {
 protected:
  PlanTest() : engine_(&store_) {
    // Star data: 100 typed subjects, 4 colors (25 subjects each).
    for (int i = 0; i < 100; ++i) {
      const std::string s = "s" + std::to_string(i);
      store_.InsertIris(s, std::string(rdf::kRdfType), "T");
      store_.InsertIris(s, "color", "c" + std::to_string(i % 4));
    }
    // Chain data: u -> e0 -> v -> e1 -> w -> e2 -> x, ~200 triples each.
    for (int i = 0; i < 200; ++i) {
      store_.InsertIris("u" + std::to_string(i % 50), "e0",
                        "v" + std::to_string((i * 7) % 60));
      store_.InsertIris("v" + std::to_string(i % 60), "e1",
                        "w" + std::to_string((i * 3) % 40));
      store_.InsertIris("w" + std::to_string(i % 40), "e2",
                        "x" + std::to_string((i * 11) % 30));
    }
  }

  std::string Plan(const std::string& query) {
    auto p = engine_.ExplainString(query);
    EXPECT_TRUE(p.ok()) << p.status();
    return p.ok() ? *p : std::string();
  }

  /// Executes `query` and returns (rows, scanned) from ExecInfo.
  std::pair<size_t, size_t> Run(const std::string& query) {
    auto q = ParseQuery(query);
    EXPECT_TRUE(q.ok()) << q.status();
    if (!q.ok()) return {0, 0};
    ExecInfo info;
    auto r = engine_.Execute(*q, &info);
    EXPECT_TRUE(r.ok()) << r.status();
    if (!r.ok()) return {0, 0};
    return {r->NumRows(), info.rows_scanned};
  }

  rdf::TripleStore store_;
  QueryEngine engine_;
};

TEST_F(PlanTest, StarJoinUsesMergeJoinWhenOrdersAlign) {
  // Both patterns scan a (p,o)-bound range ordered by ?x, so the planner
  // must pick the merge join over hash/bind.
  const std::string plan =
      Plan("SELECT ?x WHERE { ?x a <T> . ?x <color> <c1> . }");
  EXPECT_NE(plan.find("MergeJoin(?x)"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("HashJoin"), std::string::npos) << plan;
  EXPECT_NE(plan.find("IndexScan["), std::string::npos) << plan;
}

TEST_F(PlanTest, ChainJoinStreamsMergeViaPsoIndex) {
  // An object-subject chain. ?b sits in subject position of the second
  // pattern with its predicate the only bound term; before the PSO index
  // existed, streaming that side ordered by ?b needed a full SPO scan,
  // forcing a HashJoin. Now the planner must ride PSO into a merge join.
  const std::string plan =
      Plan("SELECT ?a ?c WHERE { ?a <e0> ?b . ?b <e1> ?c . }");
  EXPECT_NE(plan.find("MergeJoin(?b)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("IndexScan[pso]"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("HashJoin"), std::string::npos) << plan;
}

TEST_F(PlanTest, ThreeChainTailFallsBackToHashJoin) {
  // The middle and last hops merge on ?c (PSO again); the running plan
  // then streams ordered by ?c, so the remaining hop's shared variable
  // ?b cannot merge and hashes instead.
  const std::string plan = Plan(
      "SELECT ?a ?d WHERE { ?a <e0> ?b . ?b <e1> ?c . ?c <e2> ?d . }");
  EXPECT_NE(plan.find("MergeJoin(?c)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("HashJoin(?b)"), std::string::npos) << plan;
}

TEST_F(PlanTest, DisconnectedPatternsUseCrossHashJoin) {
  const std::string plan =
      Plan("SELECT ?a ?x WHERE { ?a <e0> ?b . ?x <e2> ?y . }");
  EXPECT_NE(plan.find("HashJoin(cross)"), std::string::npos) << plan;
}

TEST_F(PlanTest, SelectiveOuterUsesBindJoin) {
  // <u1> binds the first pattern to a handful of rows; seeking the inner
  // index once per outer row beats scanning the full e1 range.
  const std::string plan =
      Plan("SELECT ?c WHERE { <u1> <e0> ?b . ?b <e1> ?c . }");
  EXPECT_NE(plan.find("BindJoin(?b)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("IndexScan[auto]"), std::string::npos) << plan;
}

TEST_F(PlanTest, FiltersAttachInsidePlan) {
  const std::string plan = Plan(
      "SELECT ?x WHERE { ?x a <T> . ?x <color> <c1> . "
      "FILTER(?x != <s5>) }");
  EXPECT_NE(plan.find("Filter("), std::string::npos) << plan;
}

TEST_F(PlanTest, SelectModifiersWrapThePlan) {
  const std::string plan =
      Plan("SELECT DISTINCT ?x WHERE { ?x a <T> . } LIMIT 7 OFFSET 2");
  EXPECT_NE(plan.find("Limit(7 offset=2)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Project(distinct ?x)"), std::string::npos) << plan;
}

TEST_F(PlanTest, PlannerEstimatesAppearInExplain) {
  const std::string plan = Plan("SELECT ?x WHERE { ?x <color> <c1> . }");
  EXPECT_NE(plan.find("est=25"), std::string::npos) << plan;
}

TEST_F(PlanTest, MergeAndHashPlansProduceCorrectRows) {
  auto star = Run("SELECT ?x WHERE { ?x a <T> . ?x <color> <c1> . }");
  EXPECT_EQ(star.first, 25u);
  // The fixture's 200 distinct e0 edges meet its 120 distinct e1 edges
  // in 400 (?a, ?b, ?c) solutions.
  auto chain = Run("SELECT ?a ?c WHERE { ?a <e0> ?b . ?b <e1> ?c . }");
  EXPECT_EQ(chain.first, 400u);
  EXPECT_GT(chain.first, 0u);
}

TEST_F(PlanTest, LimitShortCircuitsScanCounts) {
  const std::string query =
      "SELECT ?x WHERE { ?x a <T> . ?x <color> <c1> . }";
  auto [full_rows, full_scanned] = Run(query);
  auto [lim_rows, lim_scanned] = Run(query + " LIMIT 3");
  EXPECT_EQ(full_rows, 25u);
  EXPECT_EQ(lim_rows, 3u);
  // Streaming LIMIT must stop the scans well before a full evaluation.
  EXPECT_LT(lim_scanned, full_scanned / 2) << "full=" << full_scanned
                                           << " limited=" << lim_scanned;
}

TEST_F(PlanTest, LimitZeroReturnsNoRows) {
  auto [rows, scanned] = Run("SELECT ?x WHERE { ?x a <T> . } LIMIT 0");
  EXPECT_EQ(rows, 0u);
  EXPECT_EQ(scanned, 0u);
}

TEST_F(PlanTest, LazyHashBuildShortCircuitsUnderLimit) {
  // The three-hop chain ends in a HashJoin (see above). Its build side is
  // pulled lazily (symmetric hash join), so a LIMIT above the join must
  // stop the build-side scan early too, not just the probe.
  const std::string query =
      "SELECT ?a ?d WHERE { ?a <e0> ?b . ?b <e1> ?c . ?c <e2> ?d . }";
  auto [full_rows, full_scanned] = Run(query);
  auto [lim_rows, lim_scanned] = Run(query + " LIMIT 3");
  ASSERT_GT(full_rows, 3u);
  EXPECT_EQ(lim_rows, 3u);
  EXPECT_LT(lim_scanned, full_scanned / 2) << "full=" << full_scanned
                                           << " limited=" << lim_scanned;
}

TEST_F(PlanTest, UnionStreamsAsUnionAllNode) {
  const std::string plan = Plan(
      "SELECT ?s WHERE { { ?s a <T> . } UNION { ?s <color> <c1> . } }");
  EXPECT_NE(plan.find("Union(2 branches)"), std::string::npos) << plan;
  auto [rows, scanned] = Run(
      "SELECT ?s WHERE { { ?s a <T> . } UNION { ?s <color> <c1> . } }");
  (void)scanned;
  EXPECT_EQ(rows, 125u);  // 100 typed + 25 color-c1
}

TEST_F(PlanTest, OptionalStreamsAsLeftJoinNode) {
  const std::string plan = Plan(
      "SELECT ?x ?c WHERE { ?x a <T> . OPTIONAL { ?x <color> ?c . } }");
  EXPECT_NE(plan.find("LeftJoin(optional)"), std::string::npos) << plan;
  auto [rows, scanned] = Run(
      "SELECT ?x ?c WHERE { ?x a <T> . OPTIONAL { ?x <color> ?c . } }");
  (void)scanned;
  EXPECT_EQ(rows, 100u);  // every subject has exactly one color
}

TEST_F(PlanTest, StreamingUnionLimitShortCircuitsScans) {
  const std::string query =
      "SELECT ?s WHERE { { ?s a <T> . } UNION { ?s <color> <c1> . } }";
  auto [full_rows, full_scanned] = Run(query);
  auto [lim_rows, lim_scanned] = Run(query + " LIMIT 5");
  EXPECT_EQ(full_rows, 125u);
  EXPECT_EQ(lim_rows, 5u);
  EXPECT_LT(lim_scanned, full_scanned / 2) << "full=" << full_scanned
                                           << " limited=" << lim_scanned;
}

class TrioPlanTest : public ::testing::Test {
 protected:
  TrioPlanTest() : store_(TrioOptions()), engine_(&store_) {
    for (int i = 0; i < 200; ++i) {
      store_.InsertIris("u" + std::to_string(i % 50), "e0",
                        "v" + std::to_string((i * 7) % 60));
      store_.InsertIris("v" + std::to_string(i % 60), "e1",
                        "w" + std::to_string((i * 3) % 40));
    }
  }
  static rdf::TripleStore::Options TrioOptions() {
    rdf::TripleStore::Options opts;
    opts.index_set = rdf::TripleStore::Options::IndexSet::kClassicTrio;
    return opts;
  }
  rdf::TripleStore store_;
  QueryEngine engine_;
};

TEST_F(TrioPlanTest, PlannerFallsBackGracefullyWithoutSecondTrio) {
  // The chain shape whose merge join rides PSO under the full index set:
  // with only SPO/POS/OSP maintained, the planner must not reference the
  // absent permutations and must still answer correctly (hash or bind
  // join instead of the PSO-fed merge).
  const std::string query =
      "SELECT ?a ?c WHERE { ?a <e0> ?b . ?b <e1> ?c . }";
  auto plan = engine_.ExplainString(query);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->find("IndexScan[pso]"), std::string::npos) << *plan;
  EXPECT_EQ(plan->find("IndexScan[ops]"), std::string::npos) << *plan;
  EXPECT_EQ(plan->find("IndexScan[sop]"), std::string::npos) << *plan;

  // Same fixture edges as PlanTest: 400 chain solutions.
  auto streamed = engine_.ExecuteString(query);
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  EXPECT_EQ(streamed->NumRows(), 400u);
  EXPECT_GT(streamed->NumRows(), 0u);
}

TEST_F(PlanTest, AskStopsAtFirstRow) {
  auto q = ParseQuery("ASK { ?x a <T> . ?x <color> <c1> . }");
  ASSERT_TRUE(q.ok());
  ExecInfo info;
  auto r = engine_.Execute(*q, &info);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->ask_result);
  EXPECT_LT(info.rows_scanned, 30u);
}

// The executor is serial at any pool width: a LIMIT over a lone scan
// pulls exactly LIMIT rows out of the cursor, with no decode-ahead, even
// on a compacted range far larger than one index block.
void ExpectScanPullsExactlyLimitRows(int threads) {
  kgnet::testing::ThreadCountGuard guard;
  common::ThreadPool::SetNumThreads(threads);
  rdf::TripleStore store;
  for (int s = 0; s < 300; ++s)
    for (int o = 0; o < 30; ++o)
      store.InsertIris("s" + std::to_string(s), "p",
                       "o" + std::to_string((s * 7 + o) % 97));
  store.Compact();
  ASSERT_GT(store.size(), 4096u);

  QueryEngine engine(&store);
  auto q = ParseQuery("SELECT * WHERE { ?s <p> ?o } LIMIT 5");
  ASSERT_TRUE(q.ok()) << q.status();
  ExecInfo info;
  auto r = engine.Execute(*q, &info);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->NumRows(), 5u);
  EXPECT_EQ(info.rows_scanned, 5u);
}

TEST(PlanLimitTest, ScanPullsExactlyLimitRowsOnOneThread) {
  ExpectScanPullsExactlyLimitRows(1);
}

TEST(PlanLimitTest, ScanPullsExactlyLimitRowsOnFourThreads) {
  ExpectScanPullsExactlyLimitRows(4);
}

// LIMIT through a hash join stops *both* inputs at any pool width. The
// classic trio lacks a cheap scan ordered on a subject-position join
// variable under a bound predicate, so `?o <p2> ?b` forces the planner
// off the merge join and onto the hash join.
TEST(PlanLimitTest, HashJoinStopsBothScansUnderLimitAtAnyPoolWidth) {
  kgnet::testing::ThreadCountGuard guard;
  rdf::TripleStore::Options sopts;
  sopts.index_set = rdf::TripleStore::Options::IndexSet::kClassicTrio;
  rdf::TripleStore store(sopts);
  for (int i = 0; i < 2000; ++i) {
    store.InsertIris("a" + std::to_string(i), "p1",
                     "o" + std::to_string(i % 50));
    store.InsertIris("o" + std::to_string(i % 50), "p2",
                     "b" + std::to_string(i));
  }
  store.Compact();
  const size_t total = store.size();

  QueryEngine engine(&store);
  const std::string query =
      "SELECT * WHERE { ?a <p1> ?o . ?o <p2> ?b . } LIMIT 4";
  auto plan = engine.ExplainString(query);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_NE(plan->find("HashJoin"), std::string::npos) << *plan;
  auto q = ParseQuery(query);
  ASSERT_TRUE(q.ok()) << q.status();
  for (int threads : {1, 4}) {
    common::ThreadPool::SetNumThreads(threads);
    ExecInfo info;
    auto r = engine.Execute(*q, &info);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->NumRows(), 4u) << threads << " threads";
    EXPECT_LT(info.rows_scanned, total / 4) << threads << " threads";
  }
}

}  // namespace
}  // namespace kgnet::sparql
