// serve-rw: plain reads and updates against one store over loopback.
//
// Reads are Zipf-skewed point lookups on base papers (single pattern),
// venue-bound star3 joins and affiliation-bound chain2 joins; updates
// alternate an INSERT DATA of a fresh batch of new papers with a DELETE of
// the oldest live batch, so the store keeps its size while the delta log
// grows toward the compaction trigger, max(4096, generation/4); the traced
// replay's update drive carries it across.
#include <algorithm>
#include <atomic>
#include <functional>
#include <cstdio>
#include <mutex>
#include <unordered_map>

#include "rdf/term.h"
#include "serve.h"
#include "serving/protocol.h"
#include "serving/server.h"
#include "sparql/parser.h"
#include "workloads.h"

namespace kgbench {
namespace {

using kgnet::core::KgNet;
using kgnet::serving::KgClient;
using kgnet::serving::KgServer;
using kgnet::sparql::QueryResult;

// Inserts and deletes are classes of their own: their latencies differ,
// and one median over a half-and-half mix of the two lands on the
// boundary between them.
enum RwClass { kPoint, kStar3, kChain2, kInsert, kDelete };
const std::vector<std::string> kRwClasses = {"point", "star3", "chain2",
                                             "insert", "delete"};
bool IsUpdate(int cls) { return cls == kInsert || cls == kDelete; }
const char* const kPointPreds[] = {"publishedIn", "authoredBy", "cites",
                                   "title", "yearOfPublication"};
constexpr uint32_t kNumPointPreds = 5;
const char* const kClientSpan[] = {"client.point", "client.star3",
                                   "client.chain2", "client.insert",
                                   "client.delete"};
const char* const kReplaySpan[] = {"replay.point", "replay.star3",
                                   "replay.chain2", "replay.insert",
                                   "replay.delete"};
const char* const kExecSpan[] = {"sparql.Execute.point",
                                 "sparql.Execute.star3",
                                 "sparql.Execute.chain2"};

// The workload's frozen parameters (perfbench/README.md gives the reasons).
constexpr size_t kPapers = 20000;
constexpr size_t kSetupReps = 5;  // setup_s is the median
constexpr double kZipfS = 0.99;
// The reference mix: two open-loop streams. Reads at a rate that gives
// every class median hundreds of samples; updates at a rate the write
// path sustains at a full log (about 10/s), alternating insert and delete.
constexpr double kReadRate = 400;
constexpr double kUpdateRate = 4;
// Shares of the reads; the rest are chain2.
constexpr double kSharePoint = 0.75;
constexpr double kShareStar3 = 0.125;
constexpr size_t kLimit = 200;        // join LIMIT
constexpr size_t kBatchPapers = 100;  // new papers per update batch
constexpr size_t kBatchTriples = kBatchPapers * 5;
constexpr size_t kWindow = 8;         // live batches
constexpr size_t kSatOps = 24000;     // reads of the saturation phase
// Updates the traced replay sends closed loop after the reference
// operations: enough to carry the log across the compaction trigger.
constexpr size_t kDriveUpdates = 320;

struct Shape {
  size_t papers = 0, authors = 0, venues = 0, affiliations = 0;
  uint64_t seed = 0;
};

std::string Iri(const char* kind, size_t i) {
  return "<https://dblp.org/rdf/" + std::string(kind) + "/" +
         std::to_string(i) + ">";
}
std::string Pred(const char* name) {
  return "<https://dblp.org/rdf/" + std::string(name) + ">";
}

std::string ReadText(const Op& op) {
  switch (op.cls) {
    case kPoint:
      return "SELECT ?o WHERE { " +
             Iri("publication", op.arg / kNumPointPreds) + " " +
             Pred(kPointPreds[op.arg % kNumPointPreds]) + " ?o . }";
    case kStar3:
      return "SELECT ?p ?a ?t WHERE { ?p " + Pred("publishedIn") + " " +
             Iri("venue", op.arg) + " . ?p " + Pred("authoredBy") +
             " ?a . ?p " + Pred("title") + " ?t . } LIMIT " +
             std::to_string(kLimit);
    default:
      return "SELECT ?p ?a WHERE { ?a " + Pred("primaryAffiliation") + " " +
             Iri("affiliation", op.arg) + " . ?p " + Pred("authoredBy") +
             " ?a . } LIMIT " + std::to_string(kLimit);
  }
}

/// The ground triples of update batch `k`: kBatchPapers new papers, each
/// typed, placed in a venue, authored by and citing existing nodes.
std::string BatchTriples(const Shape& s, size_t k) {
  Rng rng(SubSeed(s.seed, "batch-" + std::to_string(k)));
  std::string out;
  const std::string type = "<" + std::string(kgnet::rdf::kRdfType) + ">";
  for (size_t j = 0; j < kBatchPapers; ++j) {
    const std::string p = "<https://dblp.org/rdf/publication/new-" +
                          std::to_string(k) + "-" + std::to_string(j) + ">";
    out += p + " " + type + " " + Pred("Publication") + " .\n";
    out += p + " " + Pred("publishedIn") + " " +
           Iri("venue", rng.Below(s.venues)) + " .\n";
    out += p + " " + Pred("authoredBy") + " " +
           Iri("person", rng.Below(s.authors)) + " .\n";
    out += p + " " + Pred("cites") + " " +
           Iri("publication", rng.Below(s.papers)) + " .\n";
    out += p + " " + Pred("title") + " \"New paper " + std::to_string(k) +
           "-" + std::to_string(j) + "\" .\n";
  }
  return out;
}

std::string UpdateText(const Shape& s, uint32_t arg) {
  const size_t k = arg >> 1;
  if (arg & 1) return "DELETE { " + BatchTriples(s, k) + "} WHERE { }";
  return "INSERT DATA { " + BatchTriples(s, k) + "}";
}

/// Expected answers, computed on the local engine before any request.
struct Expected {
  std::unordered_map<uint32_t, QueryResult> point;
  // (class, arg) -> rows the pre-run answer had (capped at LIMIT).
  std::map<std::pair<int, uint32_t>, size_t> join_rows;
  std::vector<std::string> star3_cols = {"p", "a", "t"};
  std::vector<std::string> chain2_cols = {"p", "a"};
};

void ComputeExpected(KgNet* kg,
                     const std::vector<const std::vector<Op>*>& schedules,
                     Expected* exp) {
  auto& engine = kg->service().engine();
  const kgnet::rdf::Snapshot snap = kg->store().OpenSnapshot();
  for (const std::vector<Op>* sched : schedules)
    for (const Op& op : *sched) {
      if (IsUpdate(op.cls)) continue;
      if (op.cls == kPoint && exp->point.count(op.arg)) continue;
      if (op.cls != kPoint && exp->join_rows.count({op.cls, op.arg})) continue;
      auto q = kgnet::sparql::ParseQuery(ReadText(op));
      auto r = q.ok() ? engine.Execute(*q, snap)
                      : kgnet::Result<QueryResult>(q.status());
      if (!r.ok()) {
        std::fprintf(stderr, "kgbench: local read failed: %s\n",
                     r.status().ToString().c_str());
        std::exit(1);
      }
      if (op.cls == kPoint)
        exp->point.emplace(op.arg, std::move(*r));
      else
        exp->join_rows[{op.cls, op.arg}] = r->rows.size();
    }
}

/// Shared state of one loopback run.
struct RwState {
  const Shape* shape = nullptr;
  const Expected* expected = nullptr;
  std::vector<std::unique_ptr<KgClient>> clients;
  std::vector<ThreadSpans*> spans;  // per client thread; empty = untraced
  std::unique_ptr<std::atomic<uint8_t>[]> inserted;  // per batch: acked
  size_t num_batches = 0;
  std::atomic<uint64_t> acked_inserts{0};
  std::atomic<uint64_t> acked_deletes{0};
  std::atomic<uint64_t> wrong{0};
  std::mutex miss_mu;
  std::string first_miss;

  OpStatus Miss(const std::string& why) {
    ++wrong;
    std::lock_guard<std::mutex> lock(miss_mu);
    if (first_miss.empty()) first_miss = why;
    return OpStatus::kWrong;
  }
};

OpStatus ExecLoopback(RwState* st, int t, const Op& op, int64_t rid) {
  const Shape& s = *st->shape;
  KgClient& client = *st->clients[static_cast<size_t>(t)];
  ScopedSpan span(st->spans.empty() ? nullptr : st->spans[t],
                  kClientSpan[op.cls], "loopback", rid);
  if (IsUpdate(op.cls)) {
    const size_t k = op.arg >> 1;
    const bool del = op.arg & 1;
    const bool insert_acked = k < st->num_batches && st->inserted[k].load();
    auto r = client.Query(UpdateText(s, op.arg));
    if (!r.ok())
      return IsRefusal(r.status()) ? OpStatus::kRefused : OpStatus::kFailed;
    const size_t batch = kBatchTriples;
    if (!del) {
      st->acked_inserts += r->result.num_inserted;
      if (k < st->num_batches) st->inserted[k].store(1);
      if (r->result.num_inserted != batch)
        return st->Miss("insert of batch " + std::to_string(k) + " added " +
                        std::to_string(r->result.num_inserted));
    } else {
      st->acked_deletes += r->result.num_deleted;
      if (insert_acked && r->result.num_deleted != batch)
        return st->Miss("delete of batch " + std::to_string(k) +
                        " removed " + std::to_string(r->result.num_deleted));
    }
    return OpStatus::kOk;
  }
  auto r = client.Query(ReadText(op));
  if (!r.ok())
    return IsRefusal(r.status()) ? OpStatus::kRefused : OpStatus::kFailed;
  const QueryResult& got = r->result;
  if (op.cls == kPoint) {
    const QueryResult& want = st->expected->point.at(op.arg);
    if (got.columns != want.columns || got.rows != want.rows)
      return st->Miss("point lookup " + std::to_string(op.arg) +
                      " differs from the pre-run answer");
    return OpStatus::kOk;
  }
  const auto& cols =
      op.cls == kStar3 ? st->expected->star3_cols : st->expected->chain2_cols;
  const size_t want = st->expected->join_rows.at({op.cls, op.arg});
  const bool rows_ok = want >= kLimit ? got.rows.size() == kLimit
                                      : got.rows.size() >= want &&
                                            got.rows.size() <= kLimit;
  if (got.columns != cols || !rows_ok)
    return st->Miss(kRwClasses[op.cls] + " " + std::to_string(op.arg) +
                    " returned " + std::to_string(got.rows.size()) +
                    " rows / wrong columns");
  return OpStatus::kOk;
}

/// Per-thread accumulators of the in-process replay.
struct ReplayAcc {
  int64_t parse_ns = 0, snapshot_ns = 0, encode_ns = 0, decode_ns = 0;
  uint64_t reads = 0, response_bytes = 0, rows_out = 0, rows_scanned = 0,
           delta = 0;
  int64_t exec_ns[3] = {0, 0, 0};
  uint64_t exec_n[3] = {0, 0, 0};
  int64_t update_ns = 0;
  std::vector<int64_t> update_durations;
  uint64_t failures = 0;
};

/// The replay: the traced reference sequence, same order, same threads,
/// same pacing, calling the layers' public functions the way
/// src/serving/server.cc does, against a freshly loaded store.
struct Replay {
  const Shape* shape = nullptr;
  KgNet* kg = nullptr;
  std::mutex service_mu;  // the server's serialized-path mutex
  std::vector<ThreadSpans*> spans;
  std::vector<ReplayAcc> acc;
  /// Warm-up ops are replayed unrecorded; the reference ops are traced;
  /// the update drive only feeds the compaction facts.
  enum class Mode { kWarmup, kReference, kUpdateDrive };
  Mode mode = Mode::kWarmup;
  std::vector<ReplayAcc> warm_acc, drive_acc;

  OpStatus Exec(int t, const Op& op, int64_t rid) {
    const bool traced = mode == Mode::kReference;
    ThreadSpans* sp = traced ? spans[static_cast<size_t>(t)] : nullptr;
    std::vector<ReplayAcc>& accs = traced ? acc
                                   : mode == Mode::kUpdateDrive ? drive_acc
                                                               : warm_acc;
    ReplayAcc& a = accs[static_cast<size_t>(t)];
    const std::string text = IsUpdate(op.cls) ? UpdateText(*shape, op.arg)
                                               : ReadText(op);
    ScopedSpan root(sp, kReplaySpan[op.cls], "bench", rid);
    if (IsUpdate(op.cls)) {
      std::unique_lock<std::mutex> lock(service_mu, std::defer_lock);
      {
        // Waiting on the benchmark's own mutex: not layer time.
        ScopedSpan s(sp, "bench.serialized_path_wait", "bench", rid);
        lock.lock();
      }
      const int64_t t0 = NowNs();
      kgnet::core::ExecutionStats stats;
      kgnet::Result<QueryResult> r = kgnet::Status::Internal("pending");
      {
        ScopedSpan s(sp, "core.SparqlMlService.Execute", "core", rid);
        kgnet::common::CancelSource source;
        r = kg->service().Execute(text, &stats, source.token());
      }
      const int64_t dt = NowNs() - t0;
      if (!r.ok()) ++a.failures;
      a.update_ns += dt;
      a.update_durations.push_back(dt);
      return r.ok() ? OpStatus::kOk : OpStatus::kFailed;
    }
    int64_t t0 = NowNs();
    kgnet::Result<kgnet::sparql::Query> parsed = kgnet::Status::Internal("");
    {
      ScopedSpan s(sp, "sparql.ParseQuery", "sparql", rid);
      parsed = kgnet::sparql::ParseQuery(text);
    }
    a.parse_ns += NowNs() - t0;
    if (!parsed.ok()) {
      ++a.failures;
      return OpStatus::kFailed;
    }
    {
      ScopedSpan s(sp, "serving.RoutesToService", "serving", rid);
      if (KgServer::RoutesToService(*parsed, text)) {
        ++a.failures;  // a plain read must take the concurrent path
        return OpStatus::kFailed;
      }
    }
    t0 = NowNs();
    kgnet::rdf::Snapshot snapshot;
    {
      ScopedSpan s(sp, "rdf.OpenSnapshot", "rdf", rid);
      snapshot = kg->service().engine().store()->OpenSnapshot();
    }
    a.snapshot_ns += NowNs() - t0;
    kgnet::sparql::ExecInfo info;
    t0 = NowNs();
    kgnet::Result<QueryResult> r = kgnet::Status::Internal("pending");
    {
      ScopedSpan s(sp, kExecSpan[op.cls], "sparql", rid);
      kgnet::common::CancelSource source;
      r = kg->service().engine().Execute(*parsed, snapshot, &info,
                                         source.token());
    }
    a.exec_ns[op.cls] += NowNs() - t0;
    ++a.exec_n[op.cls];
    if (!r.ok()) {
      ++a.failures;
      return OpStatus::kFailed;
    }
    t0 = NowNs();
    std::string body;
    {
      ScopedSpan s(sp, "serving.BuildQueryResponse+EncodeFrame", "serving",
                   rid);
      body = kgnet::serving::BuildQueryResponse(rid, *r, &info);
      const std::string frame = kgnet::serving::EncodeFrame(body);
      a.response_bytes += frame.size();
    }
    a.encode_ns += NowNs() - t0;
    t0 = NowNs();
    {
      ScopedSpan s(sp, "serving.ParseQueryResponse", "serving", rid);
      if (!kgnet::serving::ParseQueryResponse(body).ok()) ++a.failures;
    }
    a.decode_ns += NowNs() - t0;
    ++a.reads;
    a.rows_out += r->rows.size();
    a.rows_scanned += info.rows_scanned;
    a.delta += info.snapshot_delta;
    return OpStatus::kOk;
  }
};

void PreInsertWindow(const Shape& s, KgNet* kg) {
  for (size_t k = 0; k < kWindow; ++k) {
    auto r =
        kg->service().Execute(UpdateText(s, static_cast<uint32_t>(k << 1)));
    if (!r.ok() || r->num_inserted != kBatchTriples) {
      std::fprintf(stderr, "kgbench: pre-inserting batch %zu failed\n", k);
      std::exit(1);
    }
  }
}

}  // namespace

void RunServeRw(const Params& params, const HostFacts& host,
                Report* report) {
  Shape s;
  s.papers = kPapers;
  s.seed = params.seed;
  const kgnet::workload::DblpOptions gen =
      DblpAt(s.papers, SubSeed(params.seed, "graph"));
  s.authors = gen.num_authors;
  s.venues = gen.num_venues;
  s.affiliations = gen.num_affiliations;
  LayerValues layer;
  AddHostFacts(host, params.trace ? &layer : nullptr, report);

  // ---- set-up: generate + serialize (untimed), then load + compact ----
  const std::string doc = GenerateNTriples(gen);
  std::vector<double> setup, load, compact;
  std::unique_ptr<KgNet> kg;
  for (size_t i = 0; i < kSetupReps; ++i) {
    kg.reset();
    double l = 0, c = 0;
    kg = LoadPlatform(doc, &l, &c);
    load.push_back(l);
    compact.push_back(c);
    setup.push_back(l + c);
  }
  {
    const auto st = kg->store().GetStats();
    report->Info("triples", std::to_string(st.num_triples));
    report->Info("ntriples_bytes", std::to_string(doc.size()));
    report->Info("run_bytes", std::to_string(st.total_run_bytes));
    layer["rdf.load_s"] = Median(load);
    layer["rdf.setup_compact_s"] = Median(compact);
    layer["rdf.bytes_per_triple"] =
        st.num_triples ? static_cast<double>(st.total_run_bytes) /
                             st.num_triples
                       : 0.0;
    layer["rdf.dict_terms"] = kg->store().dict().num_terms();
  }
  PreInsertWindow(s, kg.get());
  const size_t base_size = kg->store().size();

  // ---- schedules (all drawn before the first request) ----
  Rng rng(SubSeed(params.seed, "serve-rw-ops"));
  const Zipf paper_z(s.papers, kZipfS, SubSeed(params.seed, "z-paper"));
  // Join anchors are uniform: with 20 venues and 60 affiliations a Zipf
  // sends a fifth to a quarter of a join class to the one anchor the seed
  // made hottest, and on the same graph one seed's hot set read 2500/s and
  // another's 3600/s. Uniform, every run averages over all anchors.
  auto read_pick = [&](Op* op) {
    const double u = rng.Uniform();
    if (u < kSharePoint) {
      op->cls = kPoint;
      op->arg = static_cast<uint32_t>(paper_z.Sample(&rng) * kNumPointPreds +
                                      rng.Below(kNumPointPreds));
    } else if (u < kSharePoint + kShareStar3) {
      op->cls = kStar3;
      op->arg = static_cast<uint32_t>(rng.Below(s.venues));
    } else {
      op->cls = kChain2;
      op->arg = static_cast<uint32_t>(rng.Below(s.affiliations));
    }
  };
  uint64_t updates = 0;
  uint32_t next_new = static_cast<uint32_t>(kWindow), next_old = 0;
  auto update_pick = [&](Op* op) {
    const bool insert = updates++ % 2 == 0;
    op->cls = insert ? kInsert : kDelete;
    op->arg = insert ? (next_new++ << 1) : ((next_old++ << 1) | 1u);
  };
  ServePlan plan;
  plan.class_names = kRwClasses;
  plan.streams = {{kReadRate, read_pick}, {kUpdateRate, update_pick}};
  plan.ref_s = params.seconds;
  plan.sat_ops = kSatOps;
  // The saturation phase sends reads only: with updates in a closed loop
  // every client convoys behind the store mutex (delta-view rebuilds,
  // compaction) and the rate swung from 55 to 168 ops/s across ten
  // seeds. The write path's cost shows in p50_ms (the update class) and
  // in the per-layer rdf metrics instead.
  plan.sat_pick = read_pick;
  const ServeSchedules sched = MakeSchedules(plan, &rng);
  std::vector<Op> update_drive(kDriveUpdates);
  for (Op& op : update_drive) update_pick(&op);
  Expected expected;
  {
    ComputeExpected(kg.get(),
                    {&sched.warmup, &sched.reference, &sched.saturation},
                    &expected);
  }

  // ---- the loopback run ----
  KgServer server(&kg->service(), kgnet::serving::ServerOptions());
  if (!server.Start().ok()) {
    std::fprintf(stderr, "kgbench: server start failed\n");
    std::exit(1);
  }
  RwState st;
  st.shape = &s;
  st.expected = &expected;
  st.num_batches = next_new;
  st.inserted.reset(new std::atomic<uint8_t>[next_new]);
  for (size_t k = 0; k < next_new; ++k) st.inserted[k].store(k < kWindow);
  if (!ConnectClients(server.port(), kClientThreads, &st.clients)) std::exit(1);
  report->Info("placement", JsonString(SplitPlacement()));
  const Executor exec = [&](int t, const Op& op, int64_t rid) {
    return ExecLoopback(&st, t, op, rid);
  };
  const uint64_t compactions0 = kg->store().GetStats().compactions;

  if (!params.trace) {
    const auto stats0 = server.stats();
    const ServeOutcome out = RunServe(plan, sched, exec);
    CheckFailureAccounting(out.phases(), stats0, server.stats(), report);
    ReportServe(plan, out, report);
    report->Metric("setup_s", Median(setup), "s");
    report->Metric("rss_peak_mb", PeakRssMb(), "MB");
  } else {
    // The reference load with a span around every client call; per-class
    // latency, the loadgen facts and the failure cross-check come from it.
    const size_t nc = kRwClasses.size();
    const auto stats_warm = server.stats();
    const PhaseStats warm =
        RunPhase("warmup", plan.rate(), kWarmupS, sched.warmup, nc,
                 kClientThreads, exec, kAbandonLateS);
    Tracer loop_tracer;
    for (int t = 0; t < kClientThreads; ++t)
      st.spans.push_back(loop_tracer.NewThread());
    const auto stats0 = server.stats();
    std::vector<OpResult> traced_results;
    const PhaseStats traced =
        RunPhase("reference", plan.rate(), plan.ref_s, sched.reference, nc,
                 kClientThreads, exec, kAbandonLateS, &traced_results);
    const auto stats1 = server.stats();
    st.spans.clear();
    report->Info("phases", "[" + PhaseJson(warm, kRwClasses) + "," +
                               PhaseJson(traced, kRwClasses) + "]");
    CountPhase(warm, report);
    CountPhase(traced, report);
    layer["serving.error_responses"] =
        static_cast<double>(stats1.error_responses - stats0.error_responses);
    layer["serving.overload_rejects"] =
        static_cast<double>(stats1.overload_rejects - stats0.overload_rejects);
    layer["serving.rid_replays"] =
        static_cast<double>(stats1.rid_replays - stats0.rid_replays);
    CheckFailureAccounting({&warm, &traced}, stats_warm, stats1, report);
    layer["serving.ping_us"] = PingUs(st.clients[0].get(), 200);
    std::vector<double> reads;
    for (int c : {kPoint, kStar3, kChain2})
      reads.insert(reads.end(), traced.classes[c].latency_ms.begin(),
                   traced.classes[c].latency_ms.end());
    layer["read_p50_ms"] = Percentile(reads, 0.5);
    layer["read_p99_ms"] = Percentile(reads, 0.99);
    std::vector<double> updates_ms;
    for (int c : {kInsert, kDelete})
      updates_ms.insert(updates_ms.end(),
                        traced.classes[c].latency_ms.begin(),
                        traced.classes[c].latency_ms.end());
    layer["update_p50_ms"] = Percentile(updates_ms, 0.5);
    layer["update_p99_ms"] = Percentile(updates_ms, 0.99);
    layer["p99_ms"] = Percentile(traced.all.latency_ms, 0.99);
    layer["loadgen.late_ms_p99"] = traced.late_ms_p99;
    layer["loadgen.backlog_slope"] = traced.backlog_slope;
    int64_t service_ns = 0;
    for (const OpResult& r : traced_results)
      if (r.status != OpStatus::kUnsent) service_ns += r.done_ns - r.send_ns;
    layer["trace.overhead"] =
        service_ns ? SpanCostNs() * loop_tracer.num_spans() / service_ns
                   : 0.0;

    // ---- in-process replay against a freshly loaded store ----
    double l = 0, c = 0;
    std::unique_ptr<KgNet> fresh = LoadPlatform(doc, &l, &c);
    PreInsertWindow(s, fresh.get());
    Replay replay;
    replay.shape = &s;
    replay.kg = fresh.get();
    Tracer replay_tracer;
    for (int t = 0; t < kClientThreads; ++t)
      replay.spans.push_back(replay_tracer.NewThread());
    replay.acc.resize(static_cast<size_t>(kClientThreads));
    replay.warm_acc.resize(static_cast<size_t>(kClientThreads));
    replay.drive_acc.resize(static_cast<size_t>(kClientThreads));
    // Warm-up ops first, unrecorded, so the store walks the same delta /
    // compaction trajectory as the loopback run did.
    const Executor replay_exec = [&](int t, const Op& op, int64_t rid) {
      return replay.Exec(t, op, rid);
    };
    CheckSent(RunPhase("replay-warmup", plan.rate(), kWarmupS,
                       sched.warmup, nc, kClientThreads, replay_exec,
                       kAbandonLateS),
              report);
    replay.mode = Replay::Mode::kReference;
    const uint64_t rc0 = fresh->store().GetStats().compactions;
    CheckSent(RunPhase("replay", plan.rate(), plan.ref_s, sched.reference, nc,
                       kClientThreads, replay_exec, kAbandonLateS),
              report);
    // Updates, closed loop, drive the log across the compaction trigger
    // for the compaction facts.
    replay.mode = Replay::Mode::kUpdateDrive;
    RunClosedPhase("replay-update-drive", update_drive, nc, kClientThreads,
                   replay_exec);
    ReplayAcc sum;
    for (const ReplayAcc& a : replay.acc) {
      sum.parse_ns += a.parse_ns;
      sum.snapshot_ns += a.snapshot_ns;
      sum.encode_ns += a.encode_ns;
      sum.decode_ns += a.decode_ns;
      sum.reads += a.reads;
      sum.response_bytes += a.response_bytes;
      sum.rows_out += a.rows_out;
      sum.rows_scanned += a.rows_scanned;
      sum.delta += a.delta;
      for (int i = 0; i < 3; ++i) {
        sum.exec_ns[i] += a.exec_ns[i];
        sum.exec_n[i] += a.exec_n[i];
      }
      sum.update_ns += a.update_ns;
      sum.update_durations.insert(sum.update_durations.end(),
                                  a.update_durations.begin(),
                                  a.update_durations.end());
      sum.failures += a.failures;
    }
    auto per = [](int64_t ns, uint64_t n, double unit_ns) {
      return n ? ns / unit_ns / n : 0.0;
    };
    layer["sparql.parse_us"] = per(sum.parse_ns, sum.reads, 1e3);
    layer["rdf.open_snapshot_us"] = per(sum.snapshot_ns, sum.reads, 1e3);
    layer["serving.encode_us"] = per(sum.encode_ns, sum.reads, 1e3);
    layer["serving.decode_us"] = per(sum.decode_ns, sum.reads, 1e3);
    layer["serving.response_bytes"] =
        sum.reads ? static_cast<double>(sum.response_bytes) / sum.reads : 0.0;
    layer["sparql.exec_us.point"] = per(sum.exec_ns[0], sum.exec_n[0], 1e3);
    layer["sparql.exec_us.star3"] = per(sum.exec_ns[1], sum.exec_n[1], 1e3);
    layer["sparql.exec_us.chain2"] = per(sum.exec_ns[2], sum.exec_n[2], 1e3);
    layer["sparql.rows_out"] =
        sum.reads ? static_cast<double>(sum.rows_out) / sum.reads : 0.0;
    layer["sparql.rows_scanned_per_row"] =
        sum.rows_out ? static_cast<double>(sum.rows_scanned) / sum.rows_out
                     : 0.0;
    layer["rdf.snapshot_delta"] =
        sum.reads ? static_cast<double>(sum.delta) / sum.reads : 0.0;
    layer["rdf.update_us"] =
        per(sum.update_ns, sum.update_durations.size(), 1e3);
    for (const ReplayAcc& a : replay.warm_acc) sum.failures += a.failures;
    for (const ReplayAcc& a : replay.drive_acc) {
      sum.failures += a.failures;
      sum.update_durations.insert(sum.update_durations.end(),
                                  a.update_durations.begin(),
                                  a.update_durations.end());
    }
    if (sum.failures > 0)
      report->Fail(std::to_string(sum.failures) + " replayed calls failed");
    // The writer compacts inside the update that crosses the trigger. The
    // store has no cheap compaction probe (GetStats builds the delta view,
    // which would change what the next read pays), so the stall is
    // estimated as the mean of the K slowest updates, K = compactions
    // during the replayed reference and saturation phases.
    const uint64_t k = fresh->store().GetStats().compactions - rc0;
    layer["rdf.compactions"] = static_cast<double>(k);
    std::vector<int64_t>& d = sum.update_durations;
    std::sort(d.begin(), d.end(), std::greater<int64_t>());
    int64_t stall_ns = 0;
    for (size_t i = 0; i < k && i < d.size(); ++i) stall_ns += d[i];
    layer["rdf.compact_stall_ms"] =
        per(stall_ns, std::min<size_t>(k, d.size()), 1e6);

    // Self time per layer and coverage of the loopback service time.
    const size_t ops = sched.reference.size();
    for (const auto& [lay, ns] : replay_tracer.SelfNsByLayer())
      layer["trace.self_us." + lay] = ops ? ns / 1e3 / ops : 0.0;
    int64_t replay_layers_ns = 0;
    for (const auto& [lay, ns] : replay_tracer.SelfNsByLayer())
      if (lay != "bench") replay_layers_ns += ns;
    layer["trace.coverage"] =
        service_ns ? static_cast<double>(replay_layers_ns) / service_ns : 0.0;
    if (!params.trace_out.empty()) {
      const bool ok = loop_tracer.Write(params.trace_out + ".loopback.jsonl") &&
                      replay_tracer.Write(params.trace_out + ".replay.jsonl");
      if (!ok) std::fprintf(stderr, "kgbench: could not write spans\n");
    }
    report->Info("spans", std::to_string(loop_tracer.num_spans() +
                                         replay_tracer.num_spans()));
    fresh.reset();
    EmitPerLayer(layer, report);
  }

  // ---- correctness: every acknowledged write landed exactly once ----
  const uint64_t compactions =
      kg->store().GetStats().compactions - compactions0;
  report->Info("compactions_during_run", std::to_string(compactions));
  for (auto& c : st.clients) c->Close();
  server.Stop();
  if (st.wrong > 0)
    report->Fail(std::to_string(st.wrong.load()) +
                 " wrong answers; first: " + st.first_miss);
  const size_t final_size = kg->store().size();
  const int64_t want = static_cast<int64_t>(base_size) +
                       static_cast<int64_t>(st.acked_inserts.load()) -
                       static_cast<int64_t>(st.acked_deletes.load());
  report->Info("triple_count",
               "{\"base\":" + std::to_string(base_size) +
                   ",\"acked_inserts\":" +
                   std::to_string(st.acked_inserts.load()) +
                   ",\"acked_deletes\":" +
                   std::to_string(st.acked_deletes.load()) +
                   ",\"final\":" + std::to_string(final_size) + "}");
  if (static_cast<int64_t>(final_size) != want)
    report->Fail("final triple count " + std::to_string(final_size) +
                 " != base + acked inserts - acked deletes = " +
                 std::to_string(want));
}

}  // namespace kgbench
