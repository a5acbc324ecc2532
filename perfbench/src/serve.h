// The serving harness shared by serve-rw and serve-ml: a warm-up, the
// reference phase (open loop at the workload's reference rate for
// --seconds; the latency metrics), then the saturation phase (a fixed
// number of operations sent closed loop by one client, back to back; the
// throughput metric). A fixed count rather than a fixed time keeps the
// work, and so the memory it leaves behind, the same on a slow host.
#ifndef KGBENCH_SERVE_H_
#define KGBENCH_SERVE_H_

#include <functional>
#include <string>
#include <vector>

#include "bench.h"
#include "loadgen.h"
#include "serving/server.h"

namespace kgbench {

// Shared by both serve workloads.
constexpr double kWarmupS = 0.5;
// An open-loop phase that falls this far behind its schedule stops
// sending (a correctness miss, see CheckSent).
constexpr double kAbandonLateS = 3;
// Client threads and loopback connections of the open-loop phases: nproc
// of the development host.
constexpr int kClientThreads = 4;
// The saturation phase: one closed-loop client, so the phase keeps about
// one CPU busy and measures the cost of an operation rather than how many
// of the host's shared CPUs the run was given (four clients saturating all
// four CPUs spread 0.28 to 0.56 across runs on a loaded host). It runs in
// this many rounds; throughput is the median round.
constexpr int kSatClients = 1;
constexpr size_t kSatRounds = 16;

/// One open-loop arrival stream: `rate` operations per second, each
/// drawn by `pick` in arrival order.
struct Stream {
  double rate = 0;
  std::function<void(Op*)> pick;
};

struct ServePlan {
  std::vector<std::string> class_names;
  std::vector<Stream> streams;  // the reference mix, merged by due time
  double ref_s = 0;             // = --seconds
  size_t sat_ops = 0;           // operations of the saturation phase
  std::function<void(Op*)> sat_pick;

  /// Offered rate of the open-loop phases: the streams' rates summed.
  double rate() const;
};

/// Pre-generated operations of one run: the same seed yields the same
/// operations whatever the server does.
struct ServeSchedules {
  std::vector<Op> warmup;
  std::vector<Op> reference;
  std::vector<Op> saturation;
};
ServeSchedules MakeSchedules(const ServePlan& plan, Rng* rng);

struct ServeOutcome {
  PhaseStats warmup;
  PhaseStats reference;
  std::vector<PhaseStats> saturation;  // one per round

  std::vector<const PhaseStats*> phases() const;
};

/// Client-seen failed and refused operations over `phases` must equal the
/// server's error_responses delta over the same span; a mismatch is a
/// correctness miss (a failure one side did not see).
void CheckFailureAccounting(const std::vector<const PhaseStats*>& phases,
                            const kgnet::serving::KgServer::Stats& before,
                            const kgnet::serving::KgServer::Stats& after,
                            Report* report);

ServeOutcome RunServe(const ServePlan& plan, const ServeSchedules& sched,
                      const Executor& exec);

/// A phase that fell more than kAbandonLateS behind stopped sending; the
/// load it never sent carries no latency (coordinated omission), so an
/// abandoned phase is a correctness miss.
void CheckSent(const PhaseStats& p, Report* report);

/// CheckSent, then counts the phase into the result line: every scheduled
/// operation is attempted, and a failed, refused, wrong or unsent one
/// failed.
void CountPhase(const PhaseStats& p, Report* report);

/// Adds the per-phase accounting (info line), the attempted / failed
/// counts and the end-to-end p50_ms and throughput metrics. Throughput is
/// the median over the saturation rounds, so a host stall that spans a
/// few rounds does not move it.
void ReportServe(const ServePlan& plan, const ServeOutcome& out,
                 Report* report);

}  // namespace kgbench

#endif  // KGBENCH_SERVE_H_
