// Shared pieces of the KGNet benchmark (see perfbench/README.md): the
// run's parameters, seeded input generation, latency statistics, the
// metric sink that prints the result line, host facts, and the span
// recorder the traced run uses.
#ifndef KGBENCH_BENCH_H_
#define KGBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace kgbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// The command line. A workload's other parameters are constants in its own
// source file (perfbench/README.md lists them).
// ---------------------------------------------------------------------------
struct Params {
  /// Parses argv; returns false (with a message on stderr) on bad input.
  bool Parse(int argc, char** argv);

  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;  // where the traced run writes its spans
};

// ---------------------------------------------------------------------------
// Seeded generation.
// ---------------------------------------------------------------------------

/// splitmix64: small, fast, and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Uniform in [0, n).
  size_t Below(size_t n) { return static_cast<size_t>(Uniform() * n); }

 private:
  uint64_t state_;
};

/// Derives an independent stream seed from the workload seed and a tag.
uint64_t SubSeed(uint64_t seed, const std::string& tag);

/// Zipf(s) over n items, with the popularity ranks assigned to items by a
/// seeded permutation (so the hot set differs between seeds).
class Zipf {
 public:
  Zipf(size_t n, double s, uint64_t seed);
  size_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<size_t> perm_;
};

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 if empty.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);

/// Peak resident set (VmHWM) of this process in MB.
double PeakRssMb();

// ---------------------------------------------------------------------------
// Output. The result line is the last line of stdout; everything else a run
// wants to report (host facts, per-phase accounting) goes into the "info"
// line printed just before it.
// ---------------------------------------------------------------------------
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Free-form facts for the info line (already-encoded JSON values).
  void Info(const std::string& key, const std::string& json_value);
  void Fail(const std::string& why);  // a correctness miss
  void CountOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const { return misses_.empty(); }
  /// Prints the info line and the result line; returns the exit code.
  int Print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> misses_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

std::string JsonString(const std::string& s);
std::string JsonNumber(double v);

// ---------------------------------------------------------------------------
// Host facts and the pool placement check.
// ---------------------------------------------------------------------------
struct HostFacts {
  int nproc = 0;
  int pool_threads = 0;
  int pool_threads_seen = 0;  // distinct threads that ran probe chunks
  int pool_cpus_used = 0;     // distinct CPUs those threads ran on
  int pool_cpus_unpinned = 0;  // the same, before SpreadThreads
  bool placement_ok = true;
};
HostFacts ProbeHost();

/// The CPUs this process may run on, ascending, as at the first call:
/// main makes it before it pins anything.
const std::vector<int>& AllowedCpus();

/// Pins every thread of the process, the i-th in thread-id order to
/// cpus[i % cpus.size()] alone. main calls it after the first ProbeHost,
/// so the shared pool's workers and main (which runs a share of every
/// ParallelFor) run one per CPU: left to the scheduler they sometimes
/// stayed stacked on fewer CPUs for a whole run, which slowed every
/// parallel section of that run, set-up and training included.
void SpreadThreads(const std::vector<int>& cpus);

/// Pins every thread of the process, the calling one included, to the
/// set `cpus`; threads they start later inherit it.
void PinAllThreads(const std::vector<int>& cpus);

// ---------------------------------------------------------------------------
// Spans (traced run only). Each thread records into its own buffer; the
// buffers are merged and written out when the run ends.
// ---------------------------------------------------------------------------
struct Span {
  const char* name = "";
  const char* layer = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the same thread's buffer
  int32_t thread = 0;
  int64_t rid = -1;     // request (operation) id; -1 outside requests
};

class ThreadSpans {
 public:
  explicit ThreadSpans(int thread) : thread_(thread) {}
  /// Opens a span and returns its index.
  int32_t Open(const char* name, const char* layer, int64_t rid);
  void Close(int32_t index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int thread_;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

/// RAII span; a null buffer makes it a no-op (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(ThreadSpans* buf, const char* name, const char* layer,
             int64_t rid)
      : buf_(buf), index_(buf ? buf->Open(name, layer, rid) : -1) {}
  ~ScopedSpan() {
    if (buf_) buf_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadSpans* buf_;
  int32_t index_;
};

/// Measured cost of recording one span (open + close), in ns; the traced
/// run's overhead is this times its span count over its service time.
double SpanCostNs();

/// Collects every thread's spans for the traced run.
class Tracer {
 public:
  ThreadSpans* NewThread();
  /// Self time (span duration minus the part its children cover) summed
  /// per layer, in ns.
  std::map<std::string, int64_t> SelfNsByLayer() const;
  /// Writes one JSON object per span to `path`; returns false on I/O error.
  bool Write(const std::string& path) const;
  size_t num_spans() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadSpans>> threads_;
};

}  // namespace kgbench

#endif  // KGBENCH_BENCH_H_
