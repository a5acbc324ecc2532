#include "bench.h"

#include <dirent.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <thread>

#include "common/thread_pool.h"

namespace kgbench {

// ---------------------------------------------------------------------------
// Params

bool Params::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "kgbench: %s needs a value\n", arg.c_str());
      return false;
    }
    const std::string val = argv[++i];
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') {
        std::fprintf(stderr, "kgbench: bad --seed %s\n", val.c_str());
        return false;
      }
    } else if (arg == "--seconds") {
      seconds = std::atof(val.c_str());
    } else if (arg == "--trace") {
      trace = val == "1";
    } else if (arg == "--trace-out") {
      trace_out = val;
    } else {
      std::fprintf(stderr, "kgbench: unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  if (workload.empty() || !(seconds > 0)) {
    std::fprintf(stderr, "kgbench: --workload and --seconds are required\n");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Generation

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::Uniform() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }

uint64_t SubSeed(uint64_t seed, const std::string& tag) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a over the tag
  for (unsigned char c : tag) h = (h ^ c) * 1099511628211ULL;
  Rng r(seed ^ h);
  return r.Next();
}

Zipf::Zipf(size_t n, double s, uint64_t seed) : cdf_(n), perm_(n) {
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
  for (size_t i = 0; i < n; ++i) perm_[i] = i;
  Rng rng(seed);
  for (size_t i = n; i > 1; --i) std::swap(perm_[i - 1], perm_[rng.Below(i)]);
}

size_t Zipf::Sample(Rng* rng) const {
  const double u = rng->Uniform();
  size_t rank = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  if (rank >= perm_.size()) rank = perm_.size() - 1;
  return perm_[rank];
}

// ---------------------------------------------------------------------------
// Statistics

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  if (rank < 1) rank = 1;
  if (rank > v.size()) rank = v.size();
  return v[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Output

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Info(const std::string& key, const std::string& json_value) {
  info_.push_back({key, json_value});
}

void Report::Fail(const std::string& why) {
  std::fprintf(stderr, "kgbench: CORRECTNESS MISS: %s\n", why.c_str());
  misses_.push_back(why);
}

int Report::Print() const {
  std::string info = "{";
  for (size_t i = 0; i < info_.size(); ++i) {
    if (i) info += ",";
    info += JsonString(info_[i].first) + ":" + info_[i].second;
  }
  info += ",\"misses\":[";
  for (size_t i = 0; i < misses_.size(); ++i) {
    if (i) info += ",";
    info += JsonString(misses_[i]);
  }
  info += "]}";
  std::printf("info %s\n", info.c_str());

  std::string out = "{\"correct\":";
  out += correct() ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted_);
  out += ",\"failed\":" + std::to_string(failed_);
  out += ",\"metrics\":{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i) out += ",";
    out += JsonString(metrics_[i].first) + ":{\"value\":" +
           JsonNumber(metrics_[i].second.first) +
           ",\"unit\":" + JsonString(metrics_[i].second.second) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct() && attempted_ > 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Host facts

HostFacts ProbeHost() {
  HostFacts h;
  h.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  h.pool_threads = kgnet::common::ThreadPool::num_threads();
  // One chunk per pool thread, each spinning long enough that every
  // thread claims one; sched_getcpu is sampled throughout, so the CPU set
  // is where the pool's threads actually ran, not where they started.
  std::mutex mu;
  std::set<std::thread::id> threads;
  std::set<int> cpus;
  const size_t n = static_cast<size_t>(h.pool_threads);
  kgnet::common::ThreadPool::Instance().ParallelFor(
      0, n, 1, [&](size_t, size_t) {
        std::set<int> mine;
        const int64_t until = NowNs() + 100'000'000;  // 100 ms
        volatile uint64_t sink = 0;
        while (NowNs() < until) {
          for (int i = 0; i < 20000; ++i) sink = sink + i;
          mine.insert(sched_getcpu());
        }
        std::lock_guard<std::mutex> lock(mu);
        threads.insert(std::this_thread::get_id());
        cpus.insert(mine.begin(), mine.end());
      });
  h.pool_threads_seen = static_cast<int>(threads.size());
  h.pool_cpus_used = static_cast<int>(cpus.size());
  h.placement_ok = h.pool_cpus_used >= h.pool_threads_seen;
  return h;
}

const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0)
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &allowed)) out.push_back(cpu);
    return out;
  }();
  return cpus;
}

namespace {

std::vector<int> ThreadIds() {
  std::vector<int> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (const dirent* e = readdir(dir)) {
    const int tid = std::atoi(e->d_name);
    if (tid > 0) tids.push_back(tid);
  }
  closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

cpu_set_t CpuSet(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  return set;
}

}  // namespace

void SpreadThreads(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  size_t i = 0;
  for (int tid : ThreadIds()) {
    const cpu_set_t one = CpuSet({cpus[i++ % cpus.size()]});
    sched_setaffinity(tid, sizeof(one), &one);
  }
}

void PinAllThreads(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  const cpu_set_t set = CpuSet(cpus);
  for (int tid : ThreadIds()) sched_setaffinity(tid, sizeof(set), &set);
}

// ---------------------------------------------------------------------------
// Spans

int32_t ThreadSpans::Open(const char* name, const char* layer, int64_t rid) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.start_ns = NowNs();
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.thread = thread_;
  s.rid = rid;
  spans_.push_back(s);
  const int32_t idx = static_cast<int32_t>(spans_.size() - 1);
  stack_.push_back(idx);
  return idx;
}

void ThreadSpans::Close(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

ThreadSpans* Tracer::NewThread() {
  std::lock_guard<std::mutex> lock(mu_);
  threads_.push_back(
      std::make_unique<ThreadSpans>(static_cast<int>(threads_.size())));
  return threads_.back().get();
}

std::map<std::string, int64_t> Tracer::SelfNsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, int64_t> out;
  for (const auto& t : threads_) {
    const std::vector<Span>& spans = t->spans();
    // Children of one parent never overlap (one thread, nested scopes),
    // so the covered part of a parent is the sum of its children.
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans)
      if (s.parent >= 0)
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    for (size_t i = 0; i < spans.size(); ++i)
      out[spans[i].layer] +=
          (spans[i].end_ns - spans[i].start_ns) - child_ns[i];
  }
  return out;
}

double SpanCostNs() {
  constexpr int kSpans = 200000;
  ThreadSpans buf(0);
  const int64_t t0 = NowNs();
  for (int i = 0; i < kSpans; ++i) ScopedSpan s(&buf, "probe", "bench", i);
  return static_cast<double>(NowNs() - t0) / kSpans;
}

size_t Tracer::num_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& t : threads_) n += t->spans().size();
  return n;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  for (const auto& t : threads_)
    for (size_t i = 0; i < t->spans().size(); ++i) {
      const Span& s = t->spans()[i];
      out << "{\"thread\":" << s.thread << ",\"id\":" << i
          << ",\"parent\":" << s.parent << ",\"rid\":" << s.rid
          << ",\"name\":\"" << s.name << "\",\"layer\":\"" << s.layer
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << "}\n";
    }
  return static_cast<bool>(out);
}

}  // namespace kgbench
