// Open-loop load generation (Tene, "How NOT to Measure Latency"): every
// operation has a due time drawn from a seeded Poisson process, client
// threads send each one at (or, when all are busy, after) its due time,
// and latency is measured from the due time, so a stall is charged to
// every request it delays instead of silently thinning the load.
#ifndef KGBENCH_LOADGEN_H_
#define KGBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench.h"

namespace kgbench {

/// One scheduled operation. `cls` indexes the workload's class names;
/// `arg` is a workload-defined payload index.
struct Op {
  int cls = 0;
  int64_t due_ns = 0;  // offset from the phase start
  uint32_t arg = 0;
};

enum class OpStatus : uint8_t {
  kOk,
  kFailed,   // the server answered with an error, or the transport broke
  kRefused,  // overload / admission reject
  kWrong,    // answered, but not the expected answer
  kUnsent,   // the phase was abandoned before this operation's turn
};

struct OpResult {
  int64_t send_ns = 0;  // absolute
  int64_t done_ns = 0;  // absolute
  OpStatus status = OpStatus::kUnsent;
};

/// Runs one operation on client thread `thread`; `rid` is the
/// operation's index in the phase (its request id in the trace).
using Executor = std::function<OpStatus(int thread, const Op& op, int64_t rid)>;

/// Per-class accounting of one phase.
struct ClassStats {
  uint64_t sent = 0, ok = 0, failed = 0, refused = 0, wrong = 0, unsent = 0;
  std::vector<double> latency_ms;  // due -> done, sent operations only
  std::vector<double> service_ms;  // send -> done
};

struct PhaseStats {
  std::string name;
  double rate = 0;        // offered, ops/s
  double duration_s = 0;  // scheduled
  std::vector<ClassStats> classes;
  ClassStats all;
  double late_ms_p99 = 0;    // send - due
  double backlog_slope = 0;  // backlog growth, as a share of the rate
  double achieved_rps = 0;   // ok ops / (last completion - phase start)
  bool abandoned = false;
};

/// Splits the CPUs the process may use in two: every thread that exists
/// now (main, the shared pool, the server's acceptor and workers) and
/// every thread they start later is pinned to the upper half, and the
/// client threads of every later phase to the lower half, thread t on its
/// own CPU (t mod half). Unpinned, the loopback runs on the 4-vCPU
/// development host fell into two levels of closed-loop throughput about
/// 2x apart, each lasting a whole run: the process used about 4 or about
/// 2 CPUs depending on where the scheduler placed each client next to
/// its server worker. Returns a description of the placement for the
/// info line ("unpinned" if the process may use fewer than 2 CPUs).
std::string SplitPlacement();

/// The geometric mean over the phase's non-empty classes of each class's
/// median latency: every class counts once whatever its share, and no
/// class boundary can fall on the median, as it can for a pooled median
/// over classes whose latencies differ by 10x.
double ClassMedianGeoMeanMs(const PhaseStats& p);

/// Draws rate x duration_s arrivals at uniform random times over the
/// phase (Poisson arrivals conditioned on their count); `pick` assigns
/// each arrival its class and payload, in arrival order.
std::vector<Op> Schedule(double rate, double duration_s, Rng* rng,
                         const std::function<void(Op*)>& pick);

/// Sends `ops` open-loop from `threads` client threads. An operation due
/// more than `abandon_late_s` ago when a thread reaches it abandons the
/// rest of the phase (reported as unsent), which bounds a hopeless phase.
PhaseStats RunPhase(const std::string& name, double rate, double duration_s,
                    const std::vector<Op>& ops, size_t num_classes,
                    int threads, const Executor& exec, double abandon_late_s,
                    std::vector<OpResult>* results_out = nullptr);

/// Sends all of `ops` closed-loop: each thread sends its next operation as
/// soon as its previous one completes. The phase's achieved_rps (ops over
/// the time to complete them all) is the saturation throughput.
PhaseStats RunClosedPhase(const std::string& name, const std::vector<Op>& ops,
                          size_t num_classes, int threads,
                          const Executor& exec);

/// JSON object with the phase's accounting (for the info line).
std::string PhaseJson(const PhaseStats& p,
                      const std::vector<std::string>& class_names);

}  // namespace kgbench

#endif  // KGBENCH_LOADGEN_H_
