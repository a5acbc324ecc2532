// train: the TrainGML pipeline with no server. Three TrainTask calls at
// fixed epochs (no early stopping, no time budget, automatic method
// selection): NC on the meta-sampled KG' (d1h1), NC on the full KG (the
// paper's baseline, and the control for a meta-sampler change) and LP on
// KG' (d2h1). The trio repeats round(--seconds / kTrioS) times; every
// repeat is the same computation, so the repeats only re-measure it.
//
// The workload runs on a one-thread pool. At this size four pool threads
// trained no faster than one on the 4-vCPU development host, and their
// per-call barriers made each call's wall time swing by up to 2.3x within
// a run (one thread: about 1.2x); a run measures the pipeline's work, not
// how many of a shared host's CPUs it was given.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/thread_pool.h"
#include "core/meta_sampler.h"
#include "gml/graph_data.h"
#include "workloads.h"

namespace kgbench {
namespace {

enum Task { kNc, kNcFull, kLp };
const char* const kTaskNames[] = {"nc", "nc_full", "lp"};
const char* const kTaskSpans[] = {"core.TrainTask.nc", "core.TrainTask.nc_full",
                                  "core.TrainTask.lp"};

kgnet::core::TrainTaskSpec SpecFor(Task task, size_t epochs, uint64_t seed) {
  kgnet::core::TrainTaskSpec spec =
      task == kLp ? MakeLpSpec(epochs, seed) : MakeNcSpec(epochs, seed);
  if (task == kNcFull) {
    spec.use_meta_sampling = false;
    spec.model_name = "bench-nc-full";
  }
  return spec;
}

// The workload's frozen parameters (perfbench/README.md gives the reasons).
constexpr size_t kPapers = 2000;
constexpr int kPoolThreads = 1;
constexpr size_t kSetupReps = 9;  // setup_s is the median
constexpr size_t kEpochs = 5;
constexpr double kTrioS = 3.5;  // sets the repeats: round(--seconds / kTrioS)

struct TaskRun {
  double wall_s = 0;
  kgnet::core::TrainOutcome outcome;
};

}  // namespace

void RunTrain(const Params& params, const HostFacts& host, Report* report) {
  LayerValues layer;
  AddHostFacts(host, params.trace ? &layer : nullptr, report);
  // One thread, on whichever CPU the scheduler finds free (main pinned
  // every thread one per CPU for the placement check).
  kgnet::common::ThreadPool::SetNumThreads(kPoolThreads);
  PinAllThreads(AllowedCpus());
  report->Info("run_pool_threads", std::to_string(kPoolThreads));
  const kgnet::workload::DblpOptions gen =
      DblpAt(kPapers, SubSeed(params.seed, "graph"));
  const std::string doc = GenerateNTriples(gen);
  std::vector<double> setup, load, compact;
  std::unique_ptr<kgnet::core::KgNet> kg;
  for (size_t i = 0; i < kSetupReps; ++i) {
    kg.reset();
    double l = 0, c = 0;
    kg = LoadPlatform(doc, &l, &c);
    load.push_back(l);
    compact.push_back(c);
    setup.push_back(l + c);
  }
  const auto store_stats = kg->store().GetStats();
  report->Info("triples", std::to_string(store_stats.num_triples));
  const size_t epochs = kEpochs;
  const uint64_t seed = SubSeed(params.seed, "train") % 1000003;

  Tracer tracer;
  ThreadSpans* sp = params.trace ? tracer.NewThread() : nullptr;
  // The traced run first calls the pipeline's stages on their own, for
  // their timings: meta-sampling of both KG' and the transformation of
  // each training graph.
  if (params.trace) {
    kgnet::core::MetaSampler sampler(&kg->store());
    double extract_s = 0, transform_s = 0, reduction = 0;
    for (Task task : {kNc, kNcFull, kLp}) {
      const kgnet::core::TrainTaskSpec spec = SpecFor(task, epochs, seed);
      std::unique_ptr<kgnet::rdf::TripleStore> sub;
      if (spec.use_meta_sampling) {
        kgnet::core::MetaSampleSpec ms;
        ms.target_type_iri = spec.target_type_iri;
        ms.supervision_predicate_iris = {
            task == kLp ? spec.task_predicate_iri : spec.label_predicate_iri};
        ms.direction = task == kLp
                           ? kgnet::core::SampleDirection::kBidirectional
                           : kgnet::core::SampleDirection::kOutgoing;
        kgnet::core::MetaSampleStats stats;
        const int64_t t0 = NowNs();
        {
          ScopedSpan s(sp, "core.MetaSampler.Extract", "core", task);
          auto r = sampler.Extract(ms, &stats);
          if (!r.ok()) {
            report->Fail("MetaSampler::Extract failed: " +
                         r.status().ToString());
            return;
          }
          sub = std::move(*r);
        }
        extract_s += (NowNs() - t0) / 1e9;
        if (task == kNc) reduction = stats.reduction_ratio();
      }
      kgnet::gml::TransformOptions t;
      t.target_type_iri = spec.target_type_iri;
      t.label_predicate_iri = spec.label_predicate_iri;
      t.task_predicate_iri = spec.task_predicate_iri;
      t.destination_type_iri = spec.destination_type_iri;
      t.feature_dim = spec.config.embed_dim;
      t.seed = spec.config.seed;
      const int64_t t0 = NowNs();
      {
        ScopedSpan s(sp, "gml.BuildGraphData", "gml", task);
        if (!kgnet::gml::BuildGraphData(sub ? *sub : kg->store(), t).ok()) {
          report->Fail("BuildGraphData failed");
          return;
        }
      }
      transform_s += (NowNs() - t0) / 1e9;
    }
    layer["core.meta_sampler.extract_s"] = extract_s;
    layer["core.meta_sampler.reduction_ratio"] = reduction;
    layer["gml.transform_s"] = transform_s;
  }

  // ---- the measured work: the trio, repeated to fill --seconds ----
  // The repeat count is fixed from --seconds up front (not by a clock), so
  // a slow host runs the same work and registers the same models.
  const size_t trios = std::max<size_t>(
      1, static_cast<size_t>(
             std::lround(params.seconds / kTrioS)));
  std::vector<TaskRun> runs[3];
  for (size_t rep = 0; rep < trios; ++rep) {
    for (Task task : {kNc, kNcFull, kLp}) {
      TaskRun run;
      const int64_t t0 = NowNs();
      kgnet::Result<kgnet::core::TrainOutcome> r =
          kgnet::Status::Internal("pending");
      {
        ScopedSpan s(sp, kTaskSpans[task], "core", task);
        r = kg->TrainTask(SpecFor(task, epochs, seed));
      }
      run.wall_s = (NowNs() - t0) / 1e9;
      report->CountOps(1, r.ok() ? 0 : 1);
      if (!r.ok()) {
        report->Fail(std::string("TrainTask ") + kTaskNames[task] +
                     " failed: " + r.status().ToString());
        return;
      }
      if (!kg->service().model_store().Get(r->model_uri).ok())
        report->Fail(std::string("TrainTask ") + kTaskNames[task] +
                     " registered no model");
      run.outcome = std::move(*r);
      runs[task].push_back(std::move(run));
    }
  }

  std::vector<double> all_ms;
  double log_median_sum = 0;
  std::string tasks = "{";
  for (Task task : {kNc, kNcFull, kLp}) {
    std::vector<double> wall;
    std::string walls;
    for (const TaskRun& r : runs[task]) {
      walls += (walls.empty() ? "" : ",") + JsonNumber(r.wall_s);
      wall.push_back(r.wall_s);
      all_ms.push_back(r.wall_s * 1e3);
    }
    const kgnet::core::TrainOutcome& o = runs[task].front().outcome;
    if (task != kNc) tasks += ",";
    tasks += JsonString(kTaskNames[task]) + ":{\"method\":" +
             JsonString(o.report.method) +
             ",\"sampler\":" + JsonString(o.sampler_label) +
             ",\"metric\":" + JsonNumber(o.report.metric) +
             ",\"epochs\":" + std::to_string(o.report.epochs_run) +
             ",\"wall_s_median\":" + JsonNumber(Median(wall)) +
             ",\"wall_s\":[" + walls + "]}";
    const std::string name = kTaskNames[task];
    layer["train_" + name + "_s"] = Median(wall);
    log_median_sum += std::log(Median(wall) * 1e3);
    std::vector<double> per_epoch;
    for (const TaskRun& r : runs[task])
      per_epoch.push_back(r.outcome.report.epochs_run
                              ? r.outcome.report.train_seconds /
                                    r.outcome.report.epochs_run
                              : 0.0);
    layer["gml.epoch_s." + name] = Median(per_epoch);
  }
  report->Info("tasks", tasks + "}");
  // Training epochs per second of each trio; throughput is the median.
  std::vector<double> trio_rate;
  for (size_t rep = 0; rep < trios; ++rep) {
    double epochs = 0, wall = 0;
    for (Task task : {kNc, kNcFull, kLp}) {
      epochs += runs[task][rep].outcome.report.epochs_run;
      wall += runs[task][rep].wall_s;
    }
    trio_rate.push_back(wall > 0 ? epochs / wall : 0.0);
  }

  if (!params.trace) {
    report->Metric("setup_s", Median(setup), "s");
    report->Metric("rss_peak_mb", PeakRssMb(), "MB");
    report->Metric("p50_ms", std::exp(log_median_sum / 3), "ms");
    report->Metric("throughput", Median(trio_rate), "1/s");
    return;
  }
  layer["p99_ms"] = Percentile(all_ms, 0.99);
  const kgnet::core::TrainOutcome& nc = runs[kNc].front().outcome;
  layer["gml.nc_acc"] = nc.report.metric;
  layer["gml.nc_full_acc"] = runs[kNcFull].front().outcome.report.metric;
  layer["gml.lp_hits10"] = runs[kLp].front().outcome.report.metric;
  layer["gml.inference_us"] = nc.report.inference_us;
  size_t peak = 0;
  double overhead = 0, trained = 0, wall_sum = 0;
  size_t n = 0;
  for (Task task : {kNc, kNcFull, kLp})
    for (const TaskRun& r : runs[task]) {
      peak = std::max(peak, r.outcome.report.peak_memory_bytes);
      overhead += r.wall_s - r.outcome.report.train_seconds;
      trained += r.outcome.report.train_seconds;
      wall_sum += r.wall_s;
      ++n;
    }
  layer["gml.peak_tensor_mb"] = peak / 1048576.0;
  layer["core.training.overhead_s"] = n ? overhead / n : 0.0;
  layer["rdf.load_s"] = Median(load);
  layer["rdf.setup_compact_s"] = Median(compact);
  layer["rdf.bytes_per_triple"] =
      store_stats.num_triples
          ? static_cast<double>(store_stats.total_run_bytes) /
                store_stats.num_triples
          : 0.0;
  layer["rdf.dict_terms"] = kg->store().dict().num_terms();
  // Coverage: the share of TrainTask wall time its trainer reports as
  // training; the rest is meta-sampling, transformation, selection and
  // registration (core.training.overhead_s).
  layer["trace.coverage"] = wall_sum > 0 ? trained / wall_sum : 0.0;
  layer["trace.overhead"] =
      wall_sum > 0 ? SpanCostNs() * tracer.num_spans() / (wall_sum * 1e9)
                   : 0.0;
  const double ops = static_cast<double>(n);
  for (const auto& [lay, v] : tracer.SelfNsByLayer())
    layer["trace.self_us." + lay] = v / 1e3 / ops;
  if (!params.trace_out.empty() &&
      !tracer.Write(params.trace_out + ".train.jsonl"))
    std::fprintf(stderr, "kgbench: could not write spans\n");
  EmitPerLayer(layer, report);
}

}  // namespace kgbench
