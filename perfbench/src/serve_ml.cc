// serve-ml: SPARQL-ML inference over loopback, read-only.
//
// Set-up trains one node-classification and one link-prediction model
// with TrainTask at fixed epochs. The load is infer_class / infer_links /
// infer_similar requests on Zipf-skewed papers and persons (a pool several
// times the server's 256-row EmbedRowCache) plus SPARQL-ML SELECTs: a
// venue-bound NC query the optimizer answers with the dictionary plan and
// an author-bound LP query it answers per instance. Nothing writes, so the
// storage write path does no work here.
#include <atomic>
#include <cstdio>
#include <mutex>

#include "serve.h"
#include "serving/server.h"
#include "sparql/parser.h"
#include "workloads.h"

namespace kgbench {
namespace {

using kgnet::core::KgNet;
using kgnet::serving::KgClient;
using kgnet::serving::KgServer;
using kgnet::sparql::QueryResult;

enum MlClass { kClass, kLinks, kSimilar, kSparqlNc, kSparqlLp };
const std::vector<std::string> kMlClasses = {
    "infer_class", "infer_links", "infer_similar", "sparqlml_nc",
    "sparqlml_lp"};
const char* const kClientSpan[] = {"client.infer_class", "client.infer_links",
                                   "client.infer_similar",
                                   "client.sparqlml_nc", "client.sparqlml_lp"};
const char* const kReplaySpan[] = {"replay.infer_class", "replay.infer_links",
                                   "replay.infer_similar",
                                   "replay.sparqlml_nc", "replay.sparqlml_lp"};

constexpr char kPrefixes[] =
    "PREFIX dblp: <https://dblp.org/rdf/>\n"
    "PREFIX kgnet: <https://www.kgnet.com/>\n";

// The workload's frozen parameters (perfbench/README.md gives the reasons).
constexpr size_t kPapers = 4000;
constexpr size_t kSetupReps = 3;  // setup_s is the median
constexpr size_t kNcEpochs = 6;
constexpr size_t kLpEpochs = 6;
constexpr double kZipfS = 0.99;
constexpr size_t kTopK = 10;      // infer_links / infer_similar top-k
constexpr size_t kNcLimit = 50;   // LIMIT of the NC SPARQL-ML query
constexpr double kRefRate = 300;  // requests/s of the reference phase
constexpr size_t kSatOps = 12000;
// Shares of the mix, in MlClass order.
constexpr double kShares[5] = {0.35, 0.25, 0.3, 0.05, 0.05};

struct Shape {
  size_t papers = 0, authors = 0, venues = 0;
  std::string nc_model, lp_model;
};

std::string PaperIri(size_t i) {
  return "https://dblp.org/rdf/publication/" + std::to_string(i);
}
std::string PersonIri(size_t i) {
  return "https://dblp.org/rdf/person/" + std::to_string(i);
}

std::string SparqlMlText(const Op& op) {
  if (op.cls == kSparqlNc)
    return std::string(kPrefixes) +
           "SELECT ?paper ?venue WHERE {\n"
           "  ?paper dblp:publishedIn <https://dblp.org/rdf/venue/" +
           std::to_string(op.arg) +
           "> .\n"
           "  ?paper ?NodeClassifier ?venue .\n"
           "  ?NodeClassifier a kgnet:NodeClassifier .\n"
           "  ?NodeClassifier kgnet:TargetNode dblp:Publication .\n"
           "  ?NodeClassifier kgnet:NodeLabel dblp:publishedIn .\n"
           "} LIMIT " +
           std::to_string(kNcLimit);
  return std::string(kPrefixes) +
         "SELECT ?author ?affiliation WHERE {\n"
         "  ?author dblp:name \"Author " +
         std::to_string(op.arg) +
         "\" .\n"
         "  ?author ?LinkPredictor ?affiliation .\n"
         "  ?LinkPredictor a kgnet:LinkPredictor .\n"
         "  ?LinkPredictor kgnet:SourceNode dblp:Person .\n"
         "  ?LinkPredictor kgnet:DestinationNode dblp:Affiliation .\n"
         "  ?LinkPredictor kgnet:TopK-Links 1 .\n"
         "}";
}

/// Answers computed before the run: direct InferenceManager calls and a
/// local SparqlMlService::Execute per distinct request.
struct Expected {
  std::map<uint32_t, std::string> cls;
  std::map<uint32_t, std::vector<std::string>> links, similar;
  std::map<std::pair<int, uint32_t>, QueryResult> sparqlml;
};

struct MlState {
  const Shape* shape = nullptr;
  const Expected* expected = nullptr;
  std::vector<std::unique_ptr<KgClient>> clients;
  std::vector<ThreadSpans*> spans;
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

template <typename T>
OpStatus Check(MlState* st, const kgnet::Result<T>& got, const T& want,
               const std::string& what) {
  if (!got.ok())
    return IsRefusal(got.status()) ? OpStatus::kRefused : OpStatus::kFailed;
  if (!(*got == want))
    return st->Miss(what + " differs from the direct answer");
  return OpStatus::kOk;
}

OpStatus ExecLoopback(MlState* st, int t, const Op& op, int64_t rid) {
  const Shape& s = *st->shape;
  const Expected& e = *st->expected;
  KgClient& client = *st->clients[static_cast<size_t>(t)];
  ScopedSpan span(st->spans.empty() ? nullptr : st->spans[t],
                  kClientSpan[op.cls], "loopback", rid);
  switch (op.cls) {
    case kClass:
      return Check(st, client.NodeClass(s.nc_model, PaperIri(op.arg)),
                   e.cls.at(op.arg), "infer_class " + std::to_string(op.arg));
    case kLinks:
      return Check(st, client.TopKLinks(s.lp_model, PersonIri(op.arg), kTopK),
                   e.links.at(op.arg),
                   "infer_links " + std::to_string(op.arg));
    case kSimilar:
      return Check(st,
                   client.SimilarEntities(s.lp_model, PersonIri(op.arg), kTopK),
                   e.similar.at(op.arg),
                   "infer_similar " + std::to_string(op.arg));
    default: {
      auto r = client.Query(SparqlMlText(op));
      if (!r.ok())
        return IsRefusal(r.status()) ? OpStatus::kRefused : OpStatus::kFailed;
      const QueryResult& want = e.sparqlml.at({op.cls, op.arg});
      if (r->result.columns != want.columns || r->result.rows != want.rows)
        return st->Miss(kMlClasses[op.cls] + " " + std::to_string(op.arg) +
                        " differs from the local answer");
      return OpStatus::kOk;
    }
  }
}

/// Per-thread accumulators of the replay.
struct ReplayAcc {
  int64_t analyze_ns = 0, select_ns = 0, rewrite_ns = 0;
  double optimizer_s = 0, execution_s = 0;
  uint64_t sparqlml = 0, calls = 0, failures = 0;
};

/// The replay: the reference sequence through the same calls the server
/// makes (InferBatcher, EmbedRowCache, InferenceManager, the serialized
/// SparqlMlService::Execute), with fresh batcher and cache state.
struct Replay {
  const Shape* shape = nullptr;
  KgNet* kg = nullptr;
  kgnet::serving::InferBatcher* batcher = nullptr;
  kgnet::serving::EmbedRowCache* cache = nullptr;
  std::mutex service_mu;
  std::vector<ThreadSpans*> spans;
  std::vector<ReplayAcc> acc;
  bool recording = false;
  std::vector<ReplayAcc> warm_acc;

  OpStatus Exec(int t, const Op& op, int64_t rid) {
    ThreadSpans* sp = recording ? spans[static_cast<size_t>(t)] : nullptr;
    ReplayAcc& a = (recording ? acc : warm_acc)[static_cast<size_t>(t)];
    const Shape& s = *shape;
    kgnet::core::InferenceManager& im = kg->service().inference_manager();
    if (op.cls == kSparqlNc || op.cls == kSparqlLp) {
      const std::string text = SparqlMlText(op);
      std::unique_lock<std::mutex> lock(service_mu, std::defer_lock);
      {
        // Waiting on the benchmark's own mutex: not layer time.
        ScopedSpan x(sp, "bench.serialized_path_wait", "bench", rid);
        lock.lock();
      }
      // The optimizer's stages, called one by one for their timings
      // (outside the request span: Execute below repeats them).
      auto parsed = kgnet::sparql::ParseQuery(text);
      if (!parsed.ok()) {
        ++a.failures;
        return OpStatus::kFailed;
      }
      auto& svc = kg->service();
      int64_t t0 = NowNs();
      auto analysis = svc.Analyze(*parsed);
      a.analyze_ns += NowNs() - t0;
      if (!analysis.ok() || !analysis->is_sparql_ml()) {
        ++a.failures;
        return OpStatus::kFailed;
      }
      const auto& udp = analysis->udps.front();
      t0 = NowNs();
      auto model = svc.SelectModel(udp);
      a.select_ns += NowNs() - t0;
      if (!model.ok()) {
        ++a.failures;
        return OpStatus::kFailed;
      }
      t0 = NowNs();
      const auto plan = svc.ChoosePlan(*analysis, udp, *model);
      auto rewritten = svc.Rewrite(*analysis, udp, *model, plan);
      a.rewrite_ns += NowNs() - t0;
      if (!rewritten.ok()) ++a.failures;
      ScopedSpan root(sp, kReplaySpan[op.cls], "bench", rid);
      kgnet::core::ExecutionStats stats;
      kgnet::Result<QueryResult> r = kgnet::Status::Internal("pending");
      {
        ScopedSpan x(sp, "core.SparqlMlService.Execute", "core", rid);
        kgnet::common::CancelSource source;
        r = svc.Execute(text, &stats, source.token());
      }
      {
        ScopedSpan x(sp, "serving.BuildQueryResponse", "serving", rid);
        if (r.ok()) (void)kgnet::serving::BuildQueryResponse(rid, *r, nullptr);
      }
      if (!r.ok()) ++a.failures;
      a.optimizer_s += stats.optimizer_seconds;
      a.execution_s += stats.execution_seconds;
      a.calls += stats.http_calls;
      ++a.sparqlml;
      return r.ok() ? OpStatus::kOk : OpStatus::kFailed;
    }
    ScopedSpan root(sp, kReplaySpan[op.cls], "bench", rid);
    bool ok = true;
    if (op.cls == kClass) {
      ScopedSpan x(sp, "serving.InferBatcher.NodeClass", "serving", rid);
      ok = batcher->NodeClass(s.nc_model, PaperIri(op.arg)).ok();
    } else if (op.cls == kLinks) {
      ScopedSpan x(sp, "serving.InferBatcher.TopKLinks", "serving", rid);
      ok = batcher->TopKLinks(s.lp_model, PersonIri(op.arg), kTopK).ok();
    } else {
      const std::string node = PersonIri(op.arg);
      std::optional<std::vector<float>> row;
      {
        ScopedSpan x(sp, "serving.EmbedRowCache.Get", "serving", rid);
        row = cache->Get(s.lp_model, node);
      }
      if (!row.has_value()) {
        kgnet::Result<std::vector<float>> fetched = kgnet::Status::Internal("");
        {
          ScopedSpan x(sp, "core.GetEmbeddingRow", "core", rid);
          fetched = im.GetEmbeddingRow(s.lp_model, node);
        }
        if (fetched.ok()) {
          ScopedSpan x(sp, "serving.EmbedRowCache.Put", "serving", rid);
          cache->Put(s.lp_model, node, *fetched);
          row = std::move(*fetched);
        }
      }
      ScopedSpan x(sp, "core.GetSimilarByRow", "core", rid);
      ok = row.has_value() &&
           im.GetSimilarByRow(s.lp_model, node, *row, kTopK).ok();
    }
    if (!ok) ++a.failures;
    return ok ? OpStatus::kOk : OpStatus::kFailed;
  }
};

}  // namespace

kgnet::core::TrainTaskSpec MakeNcSpec(size_t epochs, uint64_t seed) {
  kgnet::core::TrainTaskSpec spec;
  spec.task = kgnet::gml::TaskType::kNodeClassification;
  spec.target_type_iri = kgnet::workload::DblpSchema::Publication();
  spec.label_predicate_iri = kgnet::workload::DblpSchema::PublishedIn();
  spec.config.epochs = epochs;
  spec.config.patience = 0;
  spec.config.seed = seed;
  spec.model_name = "bench-nc";
  return spec;
}

kgnet::core::TrainTaskSpec MakeLpSpec(size_t epochs, uint64_t seed) {
  kgnet::core::TrainTaskSpec spec;
  spec.task = kgnet::gml::TaskType::kLinkPrediction;
  spec.target_type_iri = kgnet::workload::DblpSchema::Person();
  spec.destination_type_iri = kgnet::workload::DblpSchema::Affiliation();
  spec.task_predicate_iri = kgnet::workload::DblpSchema::PrimaryAffiliation();
  spec.config.epochs = epochs;
  spec.config.patience = 0;
  spec.config.seed = seed;
  spec.model_name = "bench-lp";
  return spec;
}

void RunServeMl(const Params& params, const HostFacts& host,
                Report* report) {
  Shape s;
  s.papers = kPapers;
  const kgnet::workload::DblpOptions gen =
      DblpAt(s.papers, SubSeed(params.seed, "graph"));
  s.authors = gen.num_authors;
  s.venues = gen.num_venues;
  LayerValues layer;
  AddHostFacts(host, params.trace ? &layer : nullptr, report);

  // ---- set-up, kSetupReps times on a fresh platform each: load +
  // compact, then train NC and LP; the last platform serves ----
  const std::string doc = GenerateNTriples(gen);
  const uint64_t train_seed = SubSeed(params.seed, "train") % 1000003;
  std::vector<double> setup, load, compact;
  std::unique_ptr<KgNet> kg;
  kgnet::Result<kgnet::core::TrainOutcome> nc = kgnet::Status::Internal("");
  kgnet::Result<kgnet::core::TrainOutcome> lp = kgnet::Status::Internal("");
  double nc_wall = 0, lp_wall = 0;
  for (size_t i = 0; i < kSetupReps; ++i) {
    kg.reset();
    double l = 0, c = 0;
    kg = LoadPlatform(doc, &l, &c);
    load.push_back(l);
    compact.push_back(c);
    int64_t t0 = NowNs();
    nc = kg->TrainTask(MakeNcSpec(kNcEpochs, train_seed));
    nc_wall = (NowNs() - t0) / 1e9;
    t0 = NowNs();
    lp = kg->TrainTask(MakeLpSpec(kLpEpochs, train_seed));
    lp_wall = (NowNs() - t0) / 1e9;
    if (!nc.ok() || !lp.ok()) {
      report->Fail("set-up training failed: " +
                   (nc.ok() ? lp.status() : nc.status()).ToString());
      return;
    }
    setup.push_back(l + c + nc_wall + lp_wall);
  }
  const auto store_stats = kg->store().GetStats();
  report->Info("triples", std::to_string(store_stats.num_triples));
  s.nc_model = nc->model_uri;
  s.lp_model = lp->model_uri;
  report->Info("models", "{\"nc\":" + JsonString(nc->report.method) +
                             ",\"lp\":" + JsonString(lp->report.method) + "}");

  // ---- schedules ----
  Rng rng(SubSeed(params.seed, "serve-ml-ops"));
  const Zipf paper_z(s.papers, kZipfS, SubSeed(params.seed, "z-paper"));
  const Zipf person_z(s.authors, kZipfS, SubSeed(params.seed, "z-person"));
  auto pick = [&](Op* op) {
    double u = rng.Uniform();
    int c = 0;
    while (c < 4 && u >= kShares[c]) u -= kShares[c++];
    op->cls = c;
    if (c == kClass)
      op->arg = static_cast<uint32_t>(paper_z.Sample(&rng));
    else if (c == kSparqlNc)
      op->arg = static_cast<uint32_t>(rng.Below(s.venues));  // see serve-rw
    else
      op->arg = static_cast<uint32_t>(person_z.Sample(&rng));
  };
  ServePlan plan;
  plan.class_names = kMlClasses;
  plan.streams = {{kRefRate, pick}};
  plan.ref_s = params.seconds;
  plan.sat_ops = kSatOps;
  plan.sat_pick = pick;
  const ServeSchedules sched = MakeSchedules(plan, &rng);

  // ---- expected answers ----
  Expected expected;
  {
    kgnet::core::InferenceManager& im = kg->service().inference_manager();
    const std::vector<Op>* all[] = {&sched.warmup, &sched.reference,
                                    &sched.saturation};
    bool ok = true;
    for (const auto* sc : all)
      for (const Op& op : *sc) {
        if (op.cls == kClass && !expected.cls.count(op.arg)) {
          auto r = im.GetNodeClass(s.nc_model, PaperIri(op.arg));
          ok = ok && r.ok();
          expected.cls[op.arg] = r.value_or("");
        } else if (op.cls == kLinks && !expected.links.count(op.arg)) {
          auto r = im.GetTopKLinks(s.lp_model, PersonIri(op.arg), kTopK);
          ok = ok && r.ok();
          expected.links[op.arg] = r.value_or({});
        } else if (op.cls == kSimilar && !expected.similar.count(op.arg)) {
          auto r = im.GetSimilarEntities(s.lp_model, PersonIri(op.arg), kTopK);
          ok = ok && r.ok();
          expected.similar[op.arg] = r.value_or({});
        } else if ((op.cls == kSparqlNc || op.cls == kSparqlLp) &&
                   !expected.sparqlml.count({op.cls, op.arg})) {
          auto r = kg->service().Execute(SparqlMlText(op));
          ok = ok && r.ok();
          expected.sparqlml[{op.cls, op.arg}] =
              r.ok() ? std::move(*r) : QueryResult();
        }
      }
    if (!ok) {
      report->Fail("a direct answer computed in set-up failed");
      return;
    }
    std::string plans = "{";
    for (int c : {kSparqlNc, kSparqlLp}) {
      Op op;
      op.cls = c;
      auto ex = kg->service().Explain(SparqlMlText(op));
      if (c == kSparqlLp) plans += ",";
      plans += JsonString(kMlClasses[c]) + ":" +
               JsonString(!ex.ok() ? "error"
                          : ex->plan == kgnet::core::RewritePlan::kDictionary
                              ? "dictionary"
                              : "per_instance");
    }
    report->Info("sparqlml_plans", plans + "}");
  }

  // ---- the loopback run ----
  KgServer server(&kg->service(), kgnet::serving::ServerOptions());
  if (!server.Start().ok()) {
    std::fprintf(stderr, "kgbench: server start failed\n");
    std::exit(1);
  }
  MlState st;
  st.shape = &s;
  st.expected = &expected;
  if (!ConnectClients(server.port(), kClientThreads, &st.clients)) std::exit(1);
  report->Info("placement", JsonString(SplitPlacement()));
  const Executor exec = [&](int t, const Op& op, int64_t rid) {
    return ExecLoopback(&st, t, op, rid);
  };

  if (!params.trace) {
    const auto stats0 = server.stats();
    const ServeOutcome out = RunServe(plan, sched, exec);
    CheckFailureAccounting(out.phases(), stats0, server.stats(), report);
    ReportServe(plan, out, report);
    report->Metric("setup_s", Median(setup), "s");
    report->Metric("rss_peak_mb", PeakRssMb(), "MB");
  } else {
    const size_t ncls = kMlClasses.size();
    const auto stats_warm = server.stats();
    const PhaseStats warm =
        RunPhase("warmup", plan.rate(), kWarmupS, sched.warmup, ncls,
                 kClientThreads, exec, kAbandonLateS);
    Tracer loop_tracer;
    for (int t = 0; t < kClientThreads; ++t)
      st.spans.push_back(loop_tracer.NewThread());
    kgnet::core::InferenceManager& im = kg->service().inference_manager();
    const auto stats0 = server.stats();
    const uint64_t calls0 = im.http_calls();
    const uint64_t batched0 = server.batcher().batched_calls();
    const uint64_t hits0 = server.embed_cache().hits();
    const uint64_t misses0 = server.embed_cache().misses();
    std::vector<OpResult> traced_results;
    const PhaseStats traced =
        RunPhase("reference", plan.rate(), plan.ref_s, sched.reference,
                 ncls, kClientThreads, exec, kAbandonLateS,
                 &traced_results);
    const auto stats1 = server.stats();
    st.spans.clear();
    report->Info("phases", "[" + PhaseJson(warm, kMlClasses) + "," +
                               PhaseJson(traced, kMlClasses) + "]");
    CountPhase(warm, report);
    CountPhase(traced, report);
    layer["serving.error_responses"] =
        static_cast<double>(stats1.error_responses - stats0.error_responses);
    layer["serving.overload_rejects"] =
        static_cast<double>(stats1.overload_rejects - stats0.overload_rejects);
    layer["serving.rid_replays"] =
        static_cast<double>(stats1.rid_replays - stats0.rid_replays);
    CheckFailureAccounting({&warm, &traced}, stats_warm, stats1, report);
    const uint64_t batched =
        server.batcher().batched_calls() - batched0;
    const uint64_t via_batcher =
        traced.classes[kClass].sent + traced.classes[kLinks].sent;
    layer["serving.batcher.requests_per_call"] =
        batched ? static_cast<double>(via_batcher) / batched : 0.0;
    const uint64_t hits = server.embed_cache().hits() - hits0;
    const uint64_t misses = server.embed_cache().misses() - misses0;
    layer["serving.embed_cache.hit_ratio"] =
        hits + misses ? static_cast<double>(hits) / (hits + misses) : 0.0;
    layer["core.inference.calls"] =
        static_cast<double>(im.http_calls() - calls0);
    layer["serving.ping_us"] = PingUs(st.clients[0].get(), 200);
    std::vector<double> infer, sparqlml;
    for (int c : {kClass, kLinks, kSimilar})
      infer.insert(infer.end(), traced.classes[c].latency_ms.begin(),
                   traced.classes[c].latency_ms.end());
    for (int c : {kSparqlNc, kSparqlLp})
      sparqlml.insert(sparqlml.end(), traced.classes[c].latency_ms.begin(),
                      traced.classes[c].latency_ms.end());
    layer["infer_p50_ms"] = Percentile(infer, 0.5);
    layer["infer_p99_ms"] = Percentile(infer, 0.99);
    layer["sparqlml_p50_ms"] = Percentile(sparqlml, 0.5);
    layer["sparqlml_p99_ms"] = Percentile(sparqlml, 0.99);
    layer["p99_ms"] = Percentile(traced.all.latency_ms, 0.99);
    layer["loadgen.late_ms_p99"] = traced.late_ms_p99;
    layer["loadgen.backlog_slope"] = traced.backlog_slope;
    int64_t service_ns = 0;
    for (const OpResult& r : traced_results)
      if (r.status != OpStatus::kUnsent) service_ns += r.done_ns - r.send_ns;
    layer["trace.overhead"] =
        service_ns ? SpanCostNs() * loop_tracer.num_spans() / service_ns
                   : 0.0;

    // ---- replay: read-only workload, so the same platform serves it,
    // with a fresh batcher and row cache ----
    for (auto& c : st.clients) c->Close();
    server.Stop();
    kgnet::serving::InferBatcher batcher(&im, kgnet::serving::BatcherOptions());
    kgnet::serving::EmbedRowCache cache(
        kgnet::serving::ServerOptions().embed_cache_rows);
    Replay replay;
    replay.shape = &s;
    replay.kg = kg.get();
    replay.batcher = &batcher;
    replay.cache = &cache;
    Tracer replay_tracer;
    for (int t = 0; t < kClientThreads; ++t)
      replay.spans.push_back(replay_tracer.NewThread());
    replay.acc.resize(static_cast<size_t>(kClientThreads));
    replay.warm_acc.resize(static_cast<size_t>(kClientThreads));
    const Executor replay_exec = [&](int t, const Op& op, int64_t rid) {
      return replay.Exec(t, op, rid);
    };
    CheckSent(RunPhase("replay-warmup", plan.rate(), kWarmupS,
                       sched.warmup, ncls, kClientThreads, replay_exec,
                       kAbandonLateS),
              report);
    replay.recording = true;
    CheckSent(RunPhase("replay", plan.rate(), plan.ref_s, sched.reference,
                       ncls, kClientThreads, replay_exec, kAbandonLateS),
              report);
    ReplayAcc sum;
    for (const ReplayAcc& a : replay.warm_acc) sum.failures += a.failures;
    for (const ReplayAcc& a : replay.acc) {
      sum.analyze_ns += a.analyze_ns;
      sum.select_ns += a.select_ns;
      sum.rewrite_ns += a.rewrite_ns;
      sum.optimizer_s += a.optimizer_s;
      sum.execution_s += a.execution_s;
      sum.sparqlml += a.sparqlml;
      sum.calls += a.calls;
      sum.failures += a.failures;
    }
    if (sum.failures > 0)
      report->Fail(std::to_string(sum.failures) + " replayed calls failed");
    const double n = sum.sparqlml ? static_cast<double>(sum.sparqlml) : 1.0;
    layer["core.sparqlml.analyze_us"] = sum.analyze_ns / 1e3 / n;
    layer["core.sparqlml.select_model_us"] = sum.select_ns / 1e3 / n;
    layer["core.sparqlml.rewrite_us"] = sum.rewrite_ns / 1e3 / n;
    layer["core.sparqlml.optimizer_ms"] = sum.optimizer_s * 1e3 / n;
    layer["core.sparqlml.execution_ms"] = sum.execution_s * 1e3 / n;
    layer["core.sparqlml.calls_per_query"] = sum.calls / n;

    // Direct InferenceManager calls, one thread, over the reference nodes.
    int64_t ns[3] = {0, 0, 0};
    uint64_t cnt[3] = {0, 0, 0};
    for (const Op& op : sched.reference) {
      if (op.cls > kSimilar) continue;
      const int64_t a = NowNs();
      if (op.cls == kClass)
        (void)im.GetNodeClass(s.nc_model, PaperIri(op.arg));
      else if (op.cls == kLinks)
        (void)im.GetTopKLinks(s.lp_model, PersonIri(op.arg), kTopK);
      else
        (void)im.GetSimilarEntities(s.lp_model, PersonIri(op.arg), kTopK);
      ns[op.cls] += NowNs() - a;
      ++cnt[op.cls];
    }
    layer["core.inference.class_us"] = cnt[0] ? ns[0] / 1e3 / cnt[0] : 0.0;
    layer["core.inference.links_us"] = cnt[1] ? ns[1] / 1e3 / cnt[1] : 0.0;
    layer["core.inference.similar_us"] = cnt[2] ? ns[2] / 1e3 / cnt[2] : 0.0;

    // Training facts of the set-up models (they feed setup_s here).
    layer["rdf.load_s"] = Median(load);
    layer["rdf.setup_compact_s"] = Median(compact);
    layer["rdf.bytes_per_triple"] =
        store_stats.num_triples
            ? static_cast<double>(store_stats.total_run_bytes) /
                  store_stats.num_triples
            : 0.0;
    layer["rdf.dict_terms"] = kg->store().dict().num_terms();
    auto per_epoch = [](const kgnet::gml::TrainReport& r) {
      return r.epochs_run ? r.train_seconds / r.epochs_run : 0.0;
    };
    layer["gml.epoch_s.nc"] = per_epoch(nc->report);
    layer["gml.epoch_s.lp"] = per_epoch(lp->report);
    layer["gml.peak_tensor_mb"] =
        std::max(nc->report.peak_memory_bytes, lp->report.peak_memory_bytes) /
        1048576.0;
    layer["gml.inference_us"] = nc->report.inference_us;
    layer["gml.nc_acc"] = nc->report.metric;
    layer["gml.lp_hits10"] = lp->report.metric;
    layer["core.training.overhead_s"] =
        0.5 * ((nc_wall - nc->report.train_seconds) +
               (lp_wall - lp->report.train_seconds));
    layer["core.meta_sampler.reduction_ratio"] =
        nc->sample_stats.reduction_ratio();

    const size_t ops = sched.reference.size();
    int64_t replay_layers_ns = 0;
    for (const auto& [lay, v] : replay_tracer.SelfNsByLayer()) {
      layer["trace.self_us." + lay] = ops ? v / 1e3 / ops : 0.0;
      if (lay != "bench") replay_layers_ns += v;
    }
    layer["trace.coverage"] =
        service_ns ? static_cast<double>(replay_layers_ns) / service_ns : 0.0;
    if (!params.trace_out.empty()) {
      const bool ok = loop_tracer.Write(params.trace_out + ".loopback.jsonl") &&
                      replay_tracer.Write(params.trace_out + ".replay.jsonl");
      if (!ok) std::fprintf(stderr, "kgbench: could not write spans\n");
    }
    EmitPerLayer(layer, report);
  }
  for (auto& c : st.clients) c->Close();
  server.Stop();
  if (st.wrong > 0)
    report->Fail(std::to_string(st.wrong.load()) +
                 " wrong answers; first: " + st.first_miss);
}

}  // namespace kgbench
