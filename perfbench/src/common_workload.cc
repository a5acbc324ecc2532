// Helpers shared by the workloads, and the catalogue of per-layer metrics.
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "workloads.h"

namespace kgbench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric of the benchmark, in BENCHMARK.json order. The
// comment after each group names the end-to-end metric it should move;
// perfbench/README.md has the full map with the flat predictions.
constexpr LayerMetric kPerLayer[] = {
    // serving -> p50_ms / p99_ms / throughput of serve-rw and serve-ml
    {"serving.ping_us", "us"},
    {"serving.encode_us", "us"},
    {"serving.decode_us", "us"},
    {"serving.response_bytes", "bytes"},
    {"serving.batcher.requests_per_call", "ratio"},
    {"serving.embed_cache.hit_ratio", "ratio"},
    {"serving.error_responses", "count"},
    {"serving.overload_rejects", "count"},
    {"serving.rid_replays", "count"},
    // sparql -> serve-rw read latency
    {"sparql.parse_us", "us"},
    {"sparql.exec_us.point", "us"},
    {"sparql.exec_us.star3", "us"},
    {"sparql.exec_us.chain2", "us"},
    {"sparql.rows_out", "count"},
    {"sparql.rows_scanned_per_row", "ratio"},
    // rdf -> serve-rw tails, setup_s, rss_peak_mb
    {"rdf.open_snapshot_us", "us"},
    {"rdf.snapshot_delta", "count"},
    {"rdf.update_us", "us"},
    {"rdf.compactions", "count"},
    {"rdf.compact_stall_ms", "ms"},
    {"rdf.load_s", "s"},
    {"rdf.setup_compact_s", "s"},
    {"rdf.bytes_per_triple", "bytes"},
    {"rdf.dict_terms", "count"},
    // core -> serve-ml latency, train times
    {"core.sparqlml.analyze_us", "us"},
    {"core.sparqlml.select_model_us", "us"},
    {"core.sparqlml.rewrite_us", "us"},
    {"core.sparqlml.optimizer_ms", "ms"},
    {"core.sparqlml.execution_ms", "ms"},
    {"core.sparqlml.calls_per_query", "ratio"},
    {"core.inference.class_us", "us"},
    {"core.inference.links_us", "us"},
    {"core.inference.similar_us", "us"},
    {"core.inference.calls", "count"},
    {"core.meta_sampler.extract_s", "s"},
    {"core.meta_sampler.reduction_ratio", "ratio"},
    {"core.training.overhead_s", "s"},
    // gml -> train times and quality, serve-ml setup_s
    {"gml.transform_s", "s"},
    {"gml.epoch_s.nc", "s"},
    {"gml.epoch_s.nc_full", "s"},
    {"gml.epoch_s.lp", "s"},
    {"gml.peak_tensor_mb", "MB"},
    {"gml.inference_us", "us"},
    {"gml.nc_acc", "ratio"},
    {"gml.nc_full_acc", "ratio"},
    {"gml.lp_hits10", "ratio"},
    // common: validity facts
    {"common.pool_threads", "count"},
    {"common.pool_cpus_used", "count"},
    // loadgen, at the reference rate
    {"loadgen.late_ms_p99", "ms"},
    {"loadgen.backlog_slope", "ratio"},
    // the tail at the reference rate (too noisy on a shared host to bound),
    // per-class latency (serve-rw / serve-ml) and per-task wall time
    // (train)
    {"p99_ms", "ms"},
    {"read_p50_ms", "ms"},
    {"read_p99_ms", "ms"},
    {"update_p50_ms", "ms"},
    {"update_p99_ms", "ms"},
    {"infer_p50_ms", "ms"},
    {"infer_p99_ms", "ms"},
    {"sparqlml_p50_ms", "ms"},
    {"sparqlml_p99_ms", "ms"},
    {"train_nc_s", "s"},
    {"train_nc_full_s", "s"},
    {"train_lp_s", "s"},
    // trace: self time per replayed operation by layer, coverage, overhead
    {"trace.self_us.serving", "us"},
    {"trace.self_us.sparql", "us"},
    {"trace.self_us.rdf", "us"},
    {"trace.self_us.core", "us"},
    {"trace.self_us.gml", "us"},
    {"trace.self_us.bench", "us"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

}  // namespace

void EmitPerLayer(const LayerValues& values, Report* report) {
  for (const LayerMetric& m : kPerLayer) {
    auto it = values.find(m.name);
    report->Metric(m.name, it == values.end() ? 0.0 : it->second, m.unit);
  }
  for (const auto& [name, value] : values) {
    const bool known = std::any_of(
        std::begin(kPerLayer), std::end(kPerLayer),
        [&](const LayerMetric& m) { return name == m.name; });
    if (!known)
      std::fprintf(stderr, "kgbench: internal: unlisted metric %s\n",
                   name.c_str());
  }
}

void AddHostFacts(const HostFacts& host, LayerValues* values,
                  Report* report) {
  report->Info("nproc", std::to_string(host.nproc));
  report->Info("pool_threads", std::to_string(host.pool_threads));
  report->Info("pool_threads_seen", std::to_string(host.pool_threads_seen));
  report->Info("pool_cpus_used", std::to_string(host.pool_cpus_used));
  report->Info("pool_cpus_unpinned",
               std::to_string(host.pool_cpus_unpinned));
  // A pool whose threads shared fewer CPUs than there were threads (the
  // stacked placement of a noisy VM, which pinning should prevent) makes
  // every parallel number of the run meaningless: the run is marked
  // invalid.
  report->Info("valid", host.placement_ok ? "true" : "false");
  if (!host.placement_ok)
    std::fprintf(stderr,
                 "kgbench: WARNING: %d pool threads ran on %d CPUs; this "
                 "run is marked invalid\n",
                 host.pool_threads_seen, host.pool_cpus_used);
  if (values) {
    (*values)["common.pool_threads"] = host.pool_threads;
    (*values)["common.pool_cpus_used"] = host.pool_cpus_used;
  }
}

kgnet::workload::DblpOptions DblpAt(size_t papers, uint64_t seed) {
  kgnet::workload::DblpOptions o;
  o.num_papers = papers;
  o.num_authors = std::max<size_t>(1, papers * 2 / 5);
  o.seed = seed;
  return o;
}

std::string GenerateNTriples(const kgnet::workload::DblpOptions& options) {
  kgnet::rdf::TripleStore store;
  const kgnet::Status st = kgnet::workload::GenerateDblp(options, &store);
  if (!st.ok()) {
    std::fprintf(stderr, "kgbench: generator failed: %s\n",
                 st.ToString().c_str());
    std::exit(1);
  }
  std::ostringstream os;
  const kgnet::Status wst = kgnet::rdf::WriteNTriples(store, os);
  if (!wst.ok()) {
    std::fprintf(stderr, "kgbench: WriteNTriples failed: %s\n",
                 wst.ToString().c_str());
    std::exit(1);
  }
  return os.str();
}

std::unique_ptr<kgnet::core::KgNet> LoadPlatform(const std::string& doc,
                                                  double* load_s,
                                                  double* compact_s) {
  auto kg = std::make_unique<kgnet::core::KgNet>();
  const int64_t t0 = NowNs();
  auto loaded = kg->LoadNTriples(doc);
  const int64_t t1 = NowNs();
  if (!loaded.ok()) {
    std::fprintf(stderr, "kgbench: LoadNTriples failed: %s\n",
                 loaded.status().ToString().c_str());
    std::exit(1);
  }
  kg->store().Compact();
  const int64_t t2 = NowNs();
  *load_s = (t1 - t0) / 1e9;
  *compact_s = (t2 - t1) / 1e9;
  return kg;
}

bool IsRefusal(const kgnet::Status& status) {
  return status.code() == kgnet::StatusCode::kResourceExhausted ||
         status.code() == kgnet::StatusCode::kUnavailable;
}

bool ConnectClients(
    int port, int n,
    std::vector<std::unique_ptr<kgnet::serving::KgClient>>* clients) {
  for (int i = 0; i < n; ++i) {
    auto c = std::make_unique<kgnet::serving::KgClient>();
    const kgnet::Status st = c->Connect("127.0.0.1", port);
    if (!st.ok()) {
      std::fprintf(stderr, "kgbench: connect failed: %s\n",
                   st.ToString().c_str());
      return false;
    }
    clients->push_back(std::move(c));
  }
  return true;
}

double PingUs(kgnet::serving::KgClient* client, int count) {
  std::vector<double> us;
  for (int i = 0; i < count; ++i) {
    const int64_t t0 = NowNs();
    if (!client->Ping().ok()) return 0.0;
    us.push_back((NowNs() - t0) / 1e3);
  }
  return Median(us);
}

}  // namespace kgbench
