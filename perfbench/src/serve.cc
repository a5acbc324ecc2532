#include "serve.h"

#include <algorithm>

namespace kgbench {

double ServePlan::rate() const {
  double r = 0;
  for (const Stream& st : streams) r += st.rate;
  return r;
}

namespace {
std::vector<Op> OpenLoop(const ServePlan& plan, double duration_s, Rng* rng) {
  std::vector<Op> ops;
  for (const Stream& st : plan.streams) {
    const std::vector<Op> part = Schedule(st.rate, duration_s, rng, st.pick);
    ops.insert(ops.end(), part.begin(), part.end());
  }
  // Stable, so each stream keeps its own draw order (serve-rw's updates
  // alternate insert and delete in due order).
  std::stable_sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
    return a.due_ns < b.due_ns;
  });
  return ops;
}
}  // namespace

ServeSchedules MakeSchedules(const ServePlan& plan, Rng* rng) {
  ServeSchedules s;
  s.warmup = OpenLoop(plan, kWarmupS, rng);
  s.reference = OpenLoop(plan, plan.ref_s, rng);
  s.saturation.resize(plan.sat_ops);
  for (Op& op : s.saturation) plan.sat_pick(&op);
  return s;
}

ServeOutcome RunServe(const ServePlan& plan, const ServeSchedules& sched,
                      const Executor& exec) {
  ServeOutcome out;
  const size_t nc = plan.class_names.size();
  out.warmup = RunPhase("warmup", plan.rate(), kWarmupS, sched.warmup,
                        nc, kClientThreads, exec, kAbandonLateS);
  out.reference = RunPhase("reference", plan.rate(), plan.ref_s,
                           sched.reference, nc, kClientThreads, exec,
                           kAbandonLateS);
  const size_t rounds = kSatRounds;
  for (size_t r = 0; r < rounds; ++r) {
    const auto first = sched.saturation.begin();
    const std::vector<Op> part(first + sched.saturation.size() * r / rounds,
                               first + sched.saturation.size() * (r + 1) /
                                           rounds);
    out.saturation.push_back(
        RunClosedPhase("saturation-" + std::to_string(r + 1), part, nc,
                       kSatClients, exec));
  }
  return out;
}

std::vector<const PhaseStats*> ServeOutcome::phases() const {
  std::vector<const PhaseStats*> out = {&warmup, &reference};
  for (const PhaseStats& p : saturation) out.push_back(&p);
  return out;
}

void CheckFailureAccounting(const std::vector<const PhaseStats*>& phases,
                            const kgnet::serving::KgServer::Stats& before,
                            const kgnet::serving::KgServer::Stats& after,
                            Report* report) {
  uint64_t client = 0;
  for (const PhaseStats* p : phases) client += p->all.failed + p->all.refused;
  const uint64_t server = after.error_responses - before.error_responses;
  report->Info("failure_accounting",
               "{\"client_failed\":" + std::to_string(client) +
                   ",\"server_error_responses\":" + std::to_string(server) +
                   "}");
  if (client != server)
    report->Fail("client-seen failures (" + std::to_string(client) +
                 ") differ from the server's error_responses delta (" +
                 std::to_string(server) + ")");
}

void CheckSent(const PhaseStats& p, Report* report) {
  if (p.abandoned)
    report->Fail("phase " + p.name +
                 " fell behind past the abandon limit and left " +
                 std::to_string(p.all.unsent) + " operations unsent");
}

void CountPhase(const PhaseStats& p, Report* report) {
  CheckSent(p, report);
  report->CountOps(p.all.sent + p.all.unsent, p.all.failed + p.all.refused +
                                                  p.all.wrong + p.all.unsent);
}

void ReportServe(const ServePlan& plan, const ServeOutcome& out,
                 Report* report) {
  std::string phases;
  std::vector<double> rps;
  for (const PhaseStats* p : out.phases()) {
    phases += (phases.empty() ? "" : ",") + PhaseJson(*p, plan.class_names);
    CountPhase(*p, report);
  }
  for (const PhaseStats& p : out.saturation) rps.push_back(p.achieved_rps);
  report->Info("phases", "[" + phases + "]");
  report->Metric("p50_ms", ClassMedianGeoMeanMs(out.reference), "ms");
  report->Metric("throughput", Median(rps), "1/s");
}

}  // namespace kgbench
