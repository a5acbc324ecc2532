// The three workloads (perfbench/README.md explains why each exists).
// Each one runs its set-up, its measured work and its correctness checks,
// and fills `report` with the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run).
#ifndef KGBENCH_WORKLOADS_H_
#define KGBENCH_WORKLOADS_H_

#include <map>
#include <sstream>
#include <string>

#include "bench.h"
#include "core/kgnet.h"
#include "rdf/ntriples.h"
#include "serving/client.h"
#include "workload/dblp_gen.h"

namespace kgbench {

void RunServeRw(const Params& params, const HostFacts& host, Report* report);
void RunServeMl(const Params& params, const HostFacts& host, Report* report);
void RunTrain(const Params& params, const HostFacts& host, Report* report);

/// Per-layer values of a traced run, by metric name. EmitPerLayer prints
/// every per-layer metric of the benchmark: a layer the workload never
/// calls reads 0.
using LayerValues = std::map<std::string, double>;
void EmitPerLayer(const LayerValues& values, Report* report);

/// Host facts as per-layer values and as info-line facts.
void AddHostFacts(const HostFacts& host, LayerValues* values, Report* report);

// ---------------------------------------------------------------------------
// Helpers shared by the workloads.
// ---------------------------------------------------------------------------

/// The DBLP generator's default shape at `papers` papers: authors scale
/// with papers (0.4 per paper, the default ratio); everything else is the
/// default.
kgnet::workload::DblpOptions DblpAt(size_t papers, uint64_t seed);

/// Generates the graph and serializes it to N-Triples (untimed set-up).
std::string GenerateNTriples(const kgnet::workload::DblpOptions& options);

/// Loads `doc` into a fresh platform and compacts it; returns the load and
/// compact seconds through the out-parameters.
std::unique_ptr<kgnet::core::KgNet> LoadPlatform(const std::string& doc,
                                                  double* load_s,
                                                  double* compact_s);

/// Classifies a failed client call: overload / admission / draining
/// rejects are "refused", everything else "failed".
bool IsRefusal(const kgnet::Status& status);

/// Opens `n` loopback clients; returns false if any connect fails.
bool ConnectClients(int port, int n,
                    std::vector<std::unique_ptr<kgnet::serving::KgClient>>*
                        clients);

/// TrainTask specs shared by serve-ml's set-up and the train workload:
/// fixed epochs, no early stopping, no budget, automatic method choice.
kgnet::core::TrainTaskSpec MakeNcSpec(size_t epochs, uint64_t seed);
kgnet::core::TrainTaskSpec MakeLpSpec(size_t epochs, uint64_t seed);

/// Median KgClient::Ping round trip in microseconds on an idle server.
double PingUs(kgnet::serving::KgClient* client, int count);

}  // namespace kgbench

#endif  // KGBENCH_WORKLOADS_H_
