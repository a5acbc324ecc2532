#include "loadgen.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

namespace kgbench {

std::vector<Op> Schedule(double rate, double duration_s, Rng* rng,
                         const std::function<void(Op*)>& pick) {
  // A Poisson process conditioned on its count: exactly rate x duration
  // arrivals at uniform random times. The arrival pattern keeps Poisson
  // burstiness, but every seed offers the same amount of work, so a
  // phase's throughput does not vary with the draw.
  const size_t n = static_cast<size_t>(std::llround(rate * duration_s));
  std::vector<int64_t> due(n);
  for (int64_t& d : due)
    d = static_cast<int64_t>(rng->Uniform() * duration_s * 1e9);
  std::sort(due.begin(), due.end());
  std::vector<Op> ops(n);
  for (size_t i = 0; i < n; ++i) {
    ops[i].due_ns = due[i];
    pick(&ops[i]);
  }
  return ops;
}

namespace {

void Account(const OpResult& r, int64_t due_abs, ClassStats* c) {
  switch (r.status) {
    case OpStatus::kUnsent:
      ++c->unsent;
      return;
    case OpStatus::kOk:
      ++c->ok;
      break;
    case OpStatus::kFailed:
      ++c->failed;
      break;
    case OpStatus::kRefused:
      ++c->refused;
      break;
    case OpStatus::kWrong:
      ++c->wrong;
      break;
  }
  ++c->sent;
  c->latency_ms.push_back((r.done_ns - due_abs) / 1e6);
  c->service_ms.push_back((r.done_ns - r.send_ns) / 1e6);
}

// Set by SplitPlacement before any phase; empty: clients are not pinned.
std::vector<int> g_client_cpus;

void PinSelf(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof(one), &one);
}

PhaseStats Run(const std::string& name, double rate, double duration_s,
               const std::vector<Op>& ops, size_t num_classes, int threads,
               const Executor& exec, double abandon_late_s, bool closed,
               std::vector<OpResult>* results_out) {
  std::vector<OpResult> results(ops.size());
  const std::vector<int> client_cpus = g_client_cpus;
  std::atomic<size_t> next{0};
  std::atomic<bool> abandoned{false};
  const int64_t abandon_ns = static_cast<int64_t>(abandon_late_s * 1e9);
  // An open phase starts slightly in the future so every thread is parked
  // before the first arrival is due.
  const int64_t start = NowNs() + (closed ? 0 : 2'000'000);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      if (!client_cpus.empty())
        PinSelf(client_cpus[static_cast<size_t>(t) % client_cpus.size()]);
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= ops.size() || abandoned.load()) return;
        const int64_t due = start + ops[i].due_ns;
        const int64_t now = NowNs();
        if (closed) {
          // No schedule: send at once.
        } else if (now < due) {
          std::this_thread::sleep_until(
              Clock::time_point(std::chrono::nanoseconds(due)));
        } else if (now - due > abandon_ns) {
          abandoned.store(true);
          return;
        }
        OpResult& r = results[i];
        r.send_ns = NowNs();
        r.status = exec(t, ops[i], static_cast<int64_t>(i));
        r.done_ns = NowNs();
      }
    });
  }
  for (std::thread& th : pool) th.join();

  PhaseStats p;
  p.name = name;
  p.rate = rate;
  p.duration_s = duration_s;
  p.abandoned = abandoned.load();
  p.classes.resize(num_classes);
  std::vector<double> late;
  int64_t last_done = start;
  for (size_t i = 0; i < ops.size(); ++i) {
    const int64_t due = start + ops[i].due_ns;
    Account(results[i], due, &p.classes[static_cast<size_t>(ops[i].cls)]);
    Account(results[i], due, &p.all);
    if (results[i].status != OpStatus::kUnsent) {
      late.push_back((results[i].send_ns - due) / 1e6);
      last_done = std::max(last_done, results[i].done_ns);
    }
  }
  p.late_ms_p99 = Percentile(late, 0.99);
  const double span_s = (last_done - start) / 1e9;
  p.achieved_rps = span_s > 0 ? p.all.ok / span_s : 0.0;

  // Backlog (due but not completed) sampled across the scheduled window;
  // its least-squares slope, as a share of the offered rate, says whether
  // the queue grew during the phase. Unsent operations count as never
  // completed.
  constexpr int kSamples = 40;
  std::vector<int64_t> done_sorted;
  for (const OpResult& r : results)
    if (r.status != OpStatus::kUnsent) done_sorted.push_back(r.done_ns);
  std::sort(done_sorted.begin(), done_sorted.end());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (int k = 1; k <= kSamples; ++k) {
    const double x = duration_s * k / kSamples;
    const int64_t t_abs = start + static_cast<int64_t>(x * 1e9);
    const size_t due_n = static_cast<size_t>(
        std::upper_bound(ops.begin(), ops.end(), t_abs - start,
                         [](int64_t v, const Op& o) { return v < o.due_ns; }) -
        ops.begin());
    const size_t done_n = static_cast<size_t>(
        std::upper_bound(done_sorted.begin(), done_sorted.end(), t_abs) -
        done_sorted.begin());
    const double y = static_cast<double>(due_n) - static_cast<double>(done_n);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double n = kSamples;
  const double denom = n * sxx - sx * sx;
  const double slope = denom > 0 ? (n * sxy - sx * sy) / denom : 0.0;
  p.backlog_slope = rate > 0 ? slope / rate : 0.0;
  if (results_out) *results_out = std::move(results);
  return p;
}

}  // namespace

PhaseStats RunPhase(const std::string& name, double rate, double duration_s,
                    const std::vector<Op>& ops, size_t num_classes,
                    int threads, const Executor& exec, double abandon_late_s,
                    std::vector<OpResult>* results_out) {
  return Run(name, rate, duration_s, ops, num_classes, threads, exec,
             abandon_late_s, false, results_out);
}

PhaseStats RunClosedPhase(const std::string& name, const std::vector<Op>& ops,
                          size_t num_classes, int threads,
                          const Executor& exec) {
  PhaseStats p =
      Run(name, 0, 0, ops, num_classes, threads, exec, 0, true, nullptr);
  p.rate = p.achieved_rps;
  p.backlog_slope = 0;  // no schedule to fall behind
  return p;
}

std::string SplitPlacement() {
  const std::vector<int> cpus = AllowedCpus();
  if (cpus.size() < 2) return "unpinned";
  const auto mid = cpus.begin() + static_cast<long>(cpus.size() / 2);
  PinAllThreads(std::vector<int>(mid, cpus.end()));
  g_client_cpus.assign(cpus.begin(), mid);
  auto list = [](std::vector<int>::const_iterator b,
                 std::vector<int>::const_iterator e) {
    std::string s;
    for (auto it = b; it != e; ++it)
      s += (s.empty() ? "" : ",") + std::to_string(*it);
    return s;
  };
  return "clients on " + list(cpus.begin(), mid) + ", the rest on " +
         list(mid, cpus.end());
}

double ClassMedianGeoMeanMs(const PhaseStats& p) {
  double log_sum = 0;
  int n = 0;
  for (const ClassStats& c : p.classes) {
    if (c.latency_ms.empty()) continue;
    log_sum += std::log(std::max(Percentile(c.latency_ms, 0.5), 1e-6));
    ++n;
  }
  return n ? std::exp(log_sum / n) : 0.0;
}

namespace {
std::string ClassJson(const ClassStats& c) {
  const double sent = static_cast<double>(c.sent);
  std::string s = "{\"sent\":" + std::to_string(c.sent) +
                  ",\"ok\":" + std::to_string(c.ok) +
                  ",\"failed\":" + std::to_string(c.failed) +
                  ",\"refused\":" + std::to_string(c.refused) +
                  ",\"wrong\":" + std::to_string(c.wrong) +
                  ",\"unsent\":" + std::to_string(c.unsent);
  s += ",\"failed_share\":" +
       JsonNumber(sent > 0 ? (c.failed + c.refused + c.wrong) / sent : 0.0);
  s += ",\"p50_ms\":" + JsonNumber(Percentile(c.latency_ms, 0.5));
  s += ",\"p99_ms\":" + JsonNumber(Percentile(c.latency_ms, 0.99));
  s += ",\"service_p50_ms\":" + JsonNumber(Percentile(c.service_ms, 0.5));
  return s + "}";
}
}  // namespace

std::string PhaseJson(const PhaseStats& p,
                      const std::vector<std::string>& class_names) {
  std::string s = "{\"phase\":" + JsonString(p.name) +
                  ",\"rate\":" + JsonNumber(p.rate) +
                  ",\"duration_s\":" + JsonNumber(p.duration_s) +
                  ",\"achieved_rps\":" + JsonNumber(p.achieved_rps) +
                  ",\"late_ms_p99\":" + JsonNumber(p.late_ms_p99) +
                  ",\"backlog_slope\":" + JsonNumber(p.backlog_slope) +
                  ",\"abandoned\":" + (p.abandoned ? "true" : "false") +
                  ",\"all\":" + ClassJson(p.all) + ",\"classes\":{";
  for (size_t i = 0; i < p.classes.size(); ++i) {
    if (i) s += ",";
    s += JsonString(class_names[i]) + ":" + ClassJson(p.classes[i]);
  }
  return s + "}}";
}

}  // namespace kgbench
