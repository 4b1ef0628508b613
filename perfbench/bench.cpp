// Repository benchmark program: runs one workload closed-loop through the
// public MUTLS API and prints its metrics, ending with one JSON line.
//
//   perfbench --workload md-256|fft-2e16|serve-b128|serve-b512 --seed N
//             --seconds S --trace 0|1 [--tiny] [--trace-out FILE]
//             [--git-rev REV]
//
// One caller, the non-speculative thread of Runtime::run, drives every
// repetition, and each runtime gets kSpecCpus speculative virtual CPUs, so
// the process runs kSpecCpus + 1 threads. Every measured repetition runs
// the speculative solve and its sequential reference back to back (the
// order alternates) and compares their results; for serving, the final
// cache-index digests are compared too.
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports the
// per-layer metrics: it alternates untraced and traced repetitions, records
// spans around the benchmark's own calls on the traced ones (written as
// Chrome trace-event JSON to --trace-out) and takes the layer counters from
// the RunStats that Runtime::run returns. No span or counter lives inside
// the library.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mutls/mutls.h"
#include "serving/cache_index.h"
#include "serving/request_gen.h"
#include "serving/serve_batch.h"
#include "support/latency_histogram.h"
#include "workloads/fft.h"
#include "workloads/http_serving.h"
#include "workloads/md.h"

namespace {

using namespace mutls;

// Speculative virtual CPUs per runtime: with the calling thread, four
// threads, one per core of the 4-core reference host.
constexpr int kSpecCpus = 3;
constexpr int kReferenceCores = kSpecCpus + 1;

// Set-up warms up until one repetition makes no heap allocation; a runtime
// that never gets there stops after this many and the measured repetitions
// then report the allocations.
constexpr int kMaxWarmupReps = 64;

// ---------------------------------------------------------------- tracing

struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  uint32_t id;      // 1-based index into the span buffer
  uint32_t parent;  // 0 for a root span
  int64_t rep;      // repetition id; -1 during set-up
};

// Span buffer preallocated at start, so tracing allocates nothing while it
// measures; spans past its capacity are counted and dropped.
class Tracer {
 public:
  static constexpr uint32_t kOff = UINT32_MAX;

  explicit Tracer(size_t capacity) {
    spans_.reserve(capacity);
    open_.reserve(32);
  }

  // Only toggled between repetitions, when no span is open.
  void set_enabled(bool on) { enabled_ = on; }

  uint32_t open(const char* name, int64_t rep, uint64_t start_ns) {
    if (!enabled_) return kOff;
    uint32_t parent = open_.empty() ? 0 : open_.back();
    uint32_t id = 0;
    if (spans_.size() < spans_.capacity()) {
      id = static_cast<uint32_t>(spans_.size()) + 1;
      spans_.push_back(Span{name, start_ns, start_ns, id, parent, rep});
    } else {
      ++dropped_;
    }
    open_.push_back(id);
    return id;
  }

  void close(uint32_t id, uint64_t end_ns) {
    if (id == kOff) return;
    if (id != 0) spans_[id - 1].end_ns = end_ns;
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
  uint64_t dropped_ = 0;
};

// Times one benchmark-side call; with tracing on it is also a span, child
// of the innermost open scope.
class Scope {
 public:
  Scope(Tracer& tr, const char* name, int64_t rep)
      : tr_(tr), start_(now_ns()), id_(tr.open(name, rep, start_)) {}
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  // Ends the scope (once) and returns its duration in ns.
  uint64_t stop() {
    if (!stopped_) {
      end_ = now_ns();
      tr_.close(id_, end_);
      stopped_ = true;
    }
    return end_ - start_;
  }

 private:
  Tracer& tr_;
  uint64_t start_;
  uint32_t id_;
  uint64_t end_ = 0;
  bool stopped_ = false;
};

struct SelfTime {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

// Self time per span name: a span's duration minus what its direct
// children cover. Children of one parent never overlap, because one thread
// makes every benchmark-side call.
std::map<std::string, SelfTime> self_times(const std::vector<Span>& spans) {
  std::vector<uint64_t> child_ns(spans.size() + 1, 0);
  for (const Span& s : spans) child_ns[s.parent] += s.end_ns - s.start_ns;
  std::map<std::string, SelfTime> out;
  for (const Span& s : spans) {
    uint64_t dur = s.end_ns - s.start_ns;
    SelfTime& t = out[s.name];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - std::min(dur, child_ns[s.id]);
  }
  return out;
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::string& host_json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
    return;
  }
  uint64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ns\",\"otherData\":%s,\n"
               "\"traceEvents\":[",
               host_json.c_str());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                 "\"rep\":%lld}}",
                 i ? "," : "", s.name,
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                 s.parent, static_cast<long long>(s.rep));
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

// ------------------------------------------------------------- statistics

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The tail percentile: p90, or, with fewer than 10 * kBeyond samples, the
// highest percentile that still has kBeyond samples above it (the
// (kBeyond + 1)-th largest sample; the maximum when there are too few).
// Higher percentiles of the serving workloads' tens of thousands of samples
// measure how often the hypervisor deschedules a virtual CPU, not the
// program: on a shared 4-vCPU host their run-to-run spread was several
// times the median. The rule is continuous in the sample count, so a run
// that completes a few more repetitions does not jump to another
// percentile.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
};

Tail tail_of(std::vector<double> v) {
  constexpr size_t kBeyond = 10;
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  size_t k = v.size() > kBeyond ? v.size() - kBeyond - 1 : v.size() - 1;
  size_t p90 =
      static_cast<size_t>(std::ceil(0.9 * static_cast<double>(v.size()))) - 1;
  k = std::min(k, p90);
  t.value = v[k];
  t.percentile = 100.0 * static_cast<double>(k + 1) /
                 static_cast<double>(v.size());
  return t;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }
double ratio(uint64_t num, uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

// CPU time of the process or the calling thread: the scheduler accounting
// getrusage reports as user + system time, read at ns resolution because a
// serving repetition lasts only a few hundred microseconds.
double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

uint64_t alloc_events(const RunStats& s) {
  return s.critical.buffer.alloc_events + s.speculative.buffer.alloc_events;
}

// -------------------------------------------------------------- workloads

// One workload, driven one repetition at a time by the measuring loop.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* spec_span() const = 0;
  virtual const char* seq_span() const = 0;
  virtual const char* item_unit() const = 0;
  virtual uint64_t items_per_rep() const = 0;
  virtual bool fills() const { return false; }

  // Builds a fresh runtime (destroying the previous one) and warms it up
  // until a repetition runs with no heap allocation. Returns the Runtime
  // constructor's time in ns.
  virtual uint64_t setup(Tracer& tr) = 0;
  // Generates the next repetition's input (serving only).
  virtual void fill() {}
  // The speculative solve; returns a fingerprint of its result.
  virtual uint64_t spec(bool traced, RunStats* stats) = 0;
  // The sequential reference; returns the fingerprint spec() must match.
  virtual uint64_t seq() = 0;
  // End-of-run oracle over the accumulated state.
  virtual bool final_check() { return true; }
  // Fork-to-settle samples of traced repetitions, where the API exposes
  // the hook.
  virtual const LatencyHistogram* fork_latency() const { return nullptr; }

 protected:
  static Runtime::Options runtime_options() {
    Runtime::Options o;
    o.num_cpus = kSpecCpus;
    return o;
  }

  // Runs warm-up repetitions until one makes no heap allocation.
  template <typename RepFn>
  static void warm_up(Tracer& tr, const RepFn& rep) {
    Scope s(tr, "warmup", -1);
    for (int i = 0; i < kMaxWarmupReps; ++i) {
      if (rep() == 0) return;
    }
  }
};

// md and fft: one repetition is one run_spec, checked against run_seq's
// checksum.
template <typename Kernel>
class KernelWorkload final : public Workload {
 public:
  KernelWorkload(const char* spec_span, const char* seq_span,
                 const char* unit, typename Kernel::Params p, uint64_t items)
      : spec_span_(spec_span),
        seq_span_(seq_span),
        unit_(unit),
        p_(p),
        items_(items) {}

  const char* spec_span() const override { return spec_span_; }
  const char* seq_span() const override { return seq_span_; }
  const char* item_unit() const override { return unit_; }
  uint64_t items_per_rep() const override { return items_; }

  uint64_t setup(Tracer& tr) override {
    rt_.reset();
    uint64_t ctor_ns;
    {
      Scope s(tr, "Runtime::Runtime", -1);
      rt_ = std::make_unique<Runtime>(runtime_options());
      ctor_ns = s.stop();
    }
    warm_up(tr, [&] {
      RunStats st;
      spec(false, &st);
      return alloc_events(st);
    });
    return ctor_ns;
  }

  uint64_t spec(bool, RunStats* stats) override {
    workloads::SpecRun r = Kernel::run_spec(*rt_, p_, ForkModel::kMixed);
    *stats = r.stats;
    return r.checksum;
  }

  uint64_t seq() override { return Kernel::run_seq(p_).checksum; }

 private:
  const char* spec_span_;
  const char* seq_span_;
  const char* unit_;
  typename Kernel::Params p_;
  uint64_t items_;
  std::unique_ptr<Runtime> rt_;
};

uint64_t fingerprint(const serving::BatchCounters& c) {
  uint64_t h = workloads::hash_begin();
  for (uint64_t v : {c.requests, c.malformed, c.route_misses, c.health,
                     c.get_hits, c.get_misses, c.puts, c.evictions}) {
    h = workloads::hash_mix(h, v);
  }
  return h;
}

// Serving: one repetition is one Server::serve_batch inside its own
// Runtime::run, checked against Server::serve_batch_seq on a sequential
// mirror of the cache index fed the identical batch and epoch.
class ServeWorkload final : public Workload {
 public:
  static constexpr int kChunks = 16;
  static constexpr size_t kIndexLog2 = 10;
  static constexpr int kStormBatches = 12;

  ServeWorkload(size_t batch, int chunks, uint64_t seed)
      : batch_size_(batch), seed_(seed), batch_(batch),
        fork_ns_scratch_(static_cast<size_t>(chunks)) {
    traced_opts_.chunks = plain_opts_.chunks = chunks;
    traced_opts_.fork_latency = &latency_;
    traced_opts_.fork_ns_scratch = fork_ns_scratch_.data();
  }

  const char* spec_span() const override { return "Server::serve_batch"; }
  const char* seq_span() const override { return "Server::serve_batch_seq"; }
  const char* item_unit() const override { return "requests"; }
  uint64_t items_per_rep() const override { return batch_size_; }
  bool fills() const override { return true; }

  uint64_t setup(Tracer& tr) override {
    // Users of the runtime go before it.
    server_.reset();
    index_.reset();
    rt_.reset();
    uint64_t ctor_ns;
    {
      Scope s(tr, "Runtime::Runtime", -1);
      rt_ = std::make_unique<Runtime>(runtime_options());
      ctor_ns = s.stop();
    }
    index_ = std::make_unique<serving::CacheIndex>(*rt_, kIndexLog2);
    server_ = std::make_unique<serving::Server>(*rt_, *index_, batch_size_);
    seq_index_ = std::make_unique<serving::CacheIndex>(kIndexLog2);
    gen_ = std::make_unique<serving::RequestGen>(traffic());
    epoch_ = 0;

    // PUT storm: all-PUT traffic over a key range far larger than the
    // index drives every slot's buffer and arena to the insert/evict
    // footprint, the largest one a request has.
    {
      Scope s(tr, "put_storm", -1);
      serving::TrafficConfig storm = traffic();
      storm.zipf_s = 0.0;
      storm.put_ratio = 1.0;
      storm.malformed_ratio = 0.0;
      storm.num_keys = uint64_t{1} << 20;
      storm.seed = seed_ ^ 0x9e3779b97f4a7c15ull;
      serving::RequestGen storm_gen(storm);
      for (int b = 0; b < kStormBatches; ++b) {
        storm_gen.fill(batch_);
        ++epoch_;
        rt_->run([&](Ctx& ctx) {
          server_->serve_batch(ctx, batch_, epoch_, plain_opts_);
        });
        serving::Server::serve_batch_seq(*seq_index_, batch_, epoch_);
      }
    }
    // Quiescence: the measured traffic until one batch allocates nothing.
    warm_up(tr, [&] {
      fill();
      RunStats st;
      spec(false, &st);
      seq();
      return alloc_events(st);
    });
    spec_totals_ = seq_totals_ = serving::BatchCounters{};
    latency_.clear();
    return ctor_ns;
  }

  void fill() override {
    gen_->fill(batch_);
    ++epoch_;
  }

  uint64_t spec(bool traced, RunStats* stats) override {
    serving::BatchCounters c;
    *stats = rt_->run([&](Ctx& ctx) {
      c = server_->serve_batch(ctx, batch_, epoch_,
                               traced ? traced_opts_ : plain_opts_);
    });
    spec_totals_ += c;
    return fingerprint(c);
  }

  uint64_t seq() override {
    serving::BatchCounters c =
        serving::Server::serve_batch_seq(*seq_index_, batch_, epoch_);
    seq_totals_ += c;
    return fingerprint(c);
  }

  bool final_check() override {
    return workloads::HttpServing::digest(*index_, spec_totals_) ==
           workloads::HttpServing::digest(*seq_index_, seq_totals_);
  }

  const LatencyHistogram* fork_latency() const override { return &latency_; }

 private:
  serving::TrafficConfig traffic() const {
    serving::TrafficConfig t;
    t.num_keys = 4096;
    t.zipf_s = 1.1;
    t.put_ratio = 0.125;
    t.malformed_ratio = 0.02;
    t.seed = seed_;
    return t;
  }

  size_t batch_size_;
  uint64_t seed_;
  serving::RequestBatch batch_;
  std::vector<uint64_t> fork_ns_scratch_;
  LatencyHistogram latency_;
  serving::ServeOpts plain_opts_;
  serving::ServeOpts traced_opts_;
  // Declaration order is destruction order in reverse: users of the
  // runtime are declared after it.
  std::unique_ptr<Runtime> rt_;
  std::unique_ptr<serving::CacheIndex> index_;
  std::unique_ptr<serving::Server> server_;
  std::unique_ptr<serving::CacheIndex> seq_index_;
  std::unique_ptr<serving::RequestGen> gen_;
  uint64_t epoch_ = 0;
  serving::BatchCounters spec_totals_;
  serving::BatchCounters seq_totals_;
};

// The four workloads; --tiny shrinks each to a smoke-test size.
std::unique_ptr<Workload> make_workload(const std::string& name, uint64_t seed,
                                        bool tiny) {
  if (name == "md-256") {
    workloads::MolecularDynamics::Params p;
    p.n = tiny ? 32 : 256;
    p.steps = tiny ? 2 : 20;
    p.chunks = tiny ? 4 : 16;
    p.seed = seed;
    return std::make_unique<KernelWorkload<workloads::MolecularDynamics>>(
        "MolecularDynamics::run_spec", "MolecularDynamics::run_seq",
        "particle-steps", p, static_cast<uint64_t>(p.n) * p.steps);
  }
  if (name == "fft-2e16") {
    workloads::Fft::Params p;
    p.log2_n = tiny ? 10 : 16;
    p.fork_levels = tiny ? 3 : 5;
    p.seed = seed;
    return std::make_unique<KernelWorkload<workloads::Fft>>(
        "Fft::run_spec", "Fft::run_seq", "points", p, uint64_t{1} << p.log2_n);
  }
  if (name == "serve-b128" || name == "serve-b512") {
    size_t batch = name == "serve-b128" ? 128 : 512;
    return std::make_unique<ServeWorkload>(tiny ? batch / 8 : batch,
                                           tiny ? 4 : ServeWorkload::kChunks,
                                           seed);
  }
  return nullptr;
}

// ------------------------------------------------------------ host record

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = line.find_first_not_of(' ', colon + 1);
        return b == std::string::npos ? "" : line.substr(b);
      }
    }
  }
  return "unknown";
}

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

// Machine-wide CPU ticks from /proc/stat: total and stolen by the
// hypervisor. A shared virtual machine loses time to its neighbours; the
// stolen share over the measured window is reported beside the figures so
// a slow run can be told apart from a slow program.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuTicks cpu_ticks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return t;
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

// --------------------------------------------------------------- the run

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
  std::string git_rev = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--tiny] [--trace-out FILE] "
               "[--git-rev REV]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else if (k == "--git-rev") {
      a.git_rev = v;
    } else {
      usage("unknown option");
    }
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

class MetricsJson {
 public:
  void add(const char* name, double value, const char* unit) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  body_.empty() ? "" : ", ", name, value, unit);
    body_ += buf;
  }
  const std::string& body() const { return body_; }

 private:
  std::string body_;
};

int run(const Args& a) {
  std::unique_ptr<Workload> w = make_workload(a.workload, a.seed, a.tiny);
  if (!w) usage("unknown workload");

  int nproc = affinity_cpus();
  unsigned hw = std::thread::hardware_concurrency();
  bool under = nproc < kReferenceCores || hw < kReferenceCores;
  char host[1024];
  std::snprintf(
      host, sizeof(host),
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"tiny\": %d, \"nproc\": %d, \"hardware_concurrency\": %u, "
      "\"threads\": %d, \"under_provisioned\": %s, \"cpu_model\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"git_rev\": \"%s\"}",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace ? 1 : 0, a.tiny ? 1 : 0, nproc, hw, kReferenceCores,
      under ? "true" : "false", json_escape(cpu_model()).c_str(),
      json_escape(PERFBENCH_COMPILER).c_str(), PERFBENCH_BUILD_TYPE,
      json_escape(a.git_rev).c_str());
  std::printf("HOST %s\n", host);
  if (under) {
    std::printf(
        "WARNING under-provisioned host: %d hardware threads for %d benchmark "
        "threads; these figures are NOT a %d-core measurement\n",
        std::min<int>(nproc, static_cast<int>(hw)), kReferenceCores,
        kReferenceCores);
  }

  Tracer tr(size_t{1} << 18);

  // Set-up, repeated up to kMaxSetups times so its median is steady; the
  // last one is measured. Slow set-ups (fft's) stop repeating after
  // kSetupBudgetNs once kMinSetups are done, which bounds the run's length.
  // A --tiny run sets up once.
  constexpr int kMinSetups = 5;
  constexpr int kMaxSetups = 11;
  constexpr uint64_t kSetupBudgetNs = 2'000'000'000ull;
  const int setups = a.tiny ? 1 : kMaxSetups;
  std::vector<double> setup_s, ctor_ms;
  tr.set_enabled(a.trace);
  const uint64_t setup_start = now_ns();
  for (int k = 0; k < setups && (k < kMinSetups ||
                                 now_ns() - setup_start < kSetupBudgetNs);
       ++k) {
    Scope s(tr, "setup", -1);
    uint64_t ctor_ns = w->setup(tr);
    setup_s.push_back(static_cast<double>(s.stop()) * 1e-9);
    ctor_ms.push_back(static_cast<double>(ctor_ns) * 1e-6);
  }

  std::vector<double> solve_ms, traced_solve_ms, seq_ms, fill_us, proc_cpu,
      seq_cpu;
  RunStats total;
  uint64_t attempted = 0, failed = 0, mismatched = 0, alloc_reps = 0;
  const CpuTicks ticks0 = cpu_ticks();
  const uint64_t deadline =
      now_ns() + static_cast<uint64_t>(a.seconds * 1e9);
  for (int64_t rep = 0; rep == 0 || now_ns() < deadline; ++rep) {
    const bool traced = a.trace && rep % 2 == 1;
    tr.set_enabled(traced);
    Scope rs(tr, "rep", rep);
    ++attempted;
    bool ok = true;
    RunStats st;
    try {
      if (w->fills()) {
        Scope s(tr, "RequestGen::fill", rep);
        w->fill();
        fill_us.push_back(static_cast<double>(s.stop()) * 1e-3);
      }
      uint64_t spec_fp = 0, seq_fp = 0;
      auto do_spec = [&] {
        double c0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
        Scope s(tr, w->spec_span(), rep);
        spec_fp = w->spec(traced, &st);
        double ms = static_cast<double>(s.stop()) * 1e-6;
        proc_cpu.push_back(cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - c0);
        (traced ? traced_solve_ms : solve_ms).push_back(ms);
      };
      auto do_seq = [&] {
        double c0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
        Scope s(tr, w->seq_span(), rep);
        seq_fp = w->seq();
        seq_ms.push_back(static_cast<double>(s.stop()) * 1e-6);
        seq_cpu.push_back(cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - c0);
      };
      // Alternate the order in pairs, so that with tracing (odd reps) both
      // orders are traced too.
      if ((rep / 2) % 2 == 0) {
        do_spec();
        do_seq();
      } else {
        do_seq();
        do_spec();
      }
      if (spec_fp != seq_fp) {
        ok = false;
        ++mismatched;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: repetition %lld threw: %s\n",
                   static_cast<long long>(rep), e.what());
      ok = false;
      ++mismatched;
    }
    total.critical += st.critical;
    total.speculative += st.speculative;
    if (alloc_events(st) != 0) {
      ok = false;
      ++alloc_reps;
    }
    if (!ok) ++failed;
  }
  tr.set_enabled(false);
  const CpuTicks ticks1 = cpu_ticks();
  const double steal_frac =
      ratio(ticks1.steal - ticks0.steal, ticks1.total - ticks0.total);
  const bool final_ok = w->final_check();
  if (!final_ok) {
    // The end state diverged, so no repetition's result can be trusted.
    mismatched = failed = attempted;
  }
  const bool correct = mismatched == 0 && final_ok;
  const double reps = static_cast<double>(attempted);
  const double fail_frac = ratio(static_cast<double>(failed), reps);
  const uint64_t post_warmup_allocs = alloc_events(total);

  // ---- human-readable report: correctness, shape, tail, self times.
  const ThreadStats& cr = total.critical;
  const ThreadStats& sp = total.speculative;
  const uint64_t granted = cr.forks + sp.forks;
  const uint64_t denied = cr.fork_denied + sp.fork_denied;
  const uint64_t settles = sp.commits + sp.rollbacks;
  std::printf(
      "CHECK attempted=%llu failed=%llu oracle_mismatches=%llu "
      "final_check=%s fail_frac=%.4f post_warmup_alloc_events=%llu "
      "allocating_reps=%llu host_steal_frac=%.4f\n",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(mismatched), final_ok ? "ok" : "FAILED",
      fail_frac, static_cast<unsigned long long>(post_warmup_allocs),
      static_cast<unsigned long long>(alloc_reps), steal_frac);
  if (steal_frac > 0.02) {
    std::printf(
        "WARNING contended host: the hypervisor took %.1f%% of the CPU time "
        "during the measured window\n",
        steal_frac * 100.0);
  }
  std::printf(
      "SHAPE spec_accesses_per_rep=%.0f forks_granted_per_rep=%.2f "
      "forks_denied_per_rep=%.2f doom_rate=%.4f %s_per_rep=%llu\n",
      static_cast<double>(sp.loads + sp.stores) / reps,
      static_cast<double>(granted) / reps, static_cast<double>(denied) / reps,
      ratio(sp.rollbacks, settles), w->item_unit(),
      static_cast<unsigned long long>(w->items_per_rep()));
  std::printf("SHAPE ledger_share_of_speculative_time");
  for (int c = 0; c < kTimeCatCount; ++c) {
    std::printf(" %s=%.4f", time_cat_name(static_cast<TimeCat>(c)),
                ratio(sp.ledger.get(static_cast<TimeCat>(c)), sp.runtime_ns));
  }
  std::printf("\n");
  Tail tail = tail_of(solve_ms);
  std::printf("TAIL solve_ms_tail percentile=%.2f samples=%zu value_ms=%.4f\n",
              tail.percentile, tail.samples, tail.value);

  MetricsJson m;
  if (!a.trace) {
    const double p50 = median(solve_ms);
    m.add("setup_s", median(setup_s), "s");
    m.add("solve_ms_p50", p50, "ms");
    m.add("solve_ms_tail", tail.value, "ms");
    // Ratios of sums over the interleaved pairs, not of medians: fft's
    // solve times are bimodal (the tree of granted forks differs from
    // repetition to repetition), which makes a median ratio jump between
    // runs while the mean ratio holds.
    m.add("speedup", ratio(sum(seq_ms), sum(solve_ms)), "x");
    m.add("items_per_s",
          ratio(static_cast<double>(w->items_per_rep() * solve_ms.size()),
                sum(solve_ms) * 1e-3),
          "1/s");
    m.add("cpu_efficiency", ratio(sum(seq_cpu), sum(proc_cpu)), "ratio");
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    m.add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
    m.add("pass_frac", 1.0 - fail_frac, "ratio");
  } else {
    for (const auto& [name, t] : self_times(tr.spans())) {
      std::printf("SELF span=%s count=%llu total_ms=%.3f self_ms=%.3f\n",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  static_cast<double>(t.total_ns) * 1e-6,
                  static_cast<double>(t.self_ns) * 1e-6);
    }
    if (tr.dropped()) {
      std::printf("SELF dropped_spans=%llu\n",
                  static_cast<unsigned long long>(tr.dropped()));
    }
    const LatencyHistogram* lat = w->fork_latency();
    auto ledger = [](const ThreadStats& t, TimeCat c) {
      return static_cast<double>(t.ledger.get(c));
    };
    const double forks = static_cast<double>(granted);
    const double attempts = static_cast<double>(granted + denied);
    const double settled = static_cast<double>(settles);
    m.add("workloads.seq_ms_p50", median(seq_ms), "ms");
    m.add("api.runtime_ctor_ms", median(ctor_ms), "ms");
    m.add("api.fork_settle_us_p50",
          lat ? static_cast<double>(lat->percentile(0.5)) * 1e-3 : 0.0, "us");
    m.add("api.fork_settle_us_p99",
          lat ? static_cast<double>(lat->percentile(0.99)) * 1e-3 : 0.0, "us");
    m.add("thread_manager.find_cpu_ns_per_fork",
          ratio(ledger(cr, TimeCat::kFindCpu) + ledger(sp, TimeCat::kFindCpu),
                attempts),
          "ns");
    m.add("thread_manager.arm_ns_per_fork",
          ratio(ledger(cr, TimeCat::kFork) + ledger(sp, TimeCat::kFork), forks),
          "ns");
    m.add("thread_manager.handoff_ns_per_fork",
          ratio(ledger(cr, TimeCat::kForkHandoff) +
                    ledger(sp, TimeCat::kForkHandoff),
                forks),
          "ns");
    m.add("thread_manager.forks_per_rep", forks / reps, "count");
    m.add("thread_manager.fork_grant_ratio", ratio(forks, attempts), "ratio");
    m.add("thread_manager.critical_idle_frac",
          ratio(cr.ledger.get(TimeCat::kIdle), cr.runtime_ns), "ratio");
    m.add("thread_manager.critical_join_frac",
          ratio(cr.ledger.get(TimeCat::kJoin), cr.runtime_ns), "ratio");
    m.add("thread_manager.spec_idle_frac",
          ratio(sp.ledger.get(TimeCat::kIdle), sp.runtime_ns), "ratio");
    m.add("spec_buffer.accesses_per_rep",
          static_cast<double>(sp.loads + sp.stores) / reps, "count");
    m.add("spec_buffer.work_inflation",
          ratio(ledger(cr, TimeCat::kWork) + ledger(sp, TimeCat::kWork),
                sum(seq_ms) * 1e6),
          "ratio");
    m.add("spec_buffer.mru_hit_ratio",
          ratio(sp.buffer.mru_hits, sp.buffer.mru_hits + sp.buffer.mru_misses),
          "ratio");
    m.add("spec_buffer.probe_len",
          ratio(sp.buffer.probe_steps, sp.buffer.probe_ops), "steps");
    m.add("spec_buffer.validation_ns_per_settle",
          ratio(ledger(sp, TimeCat::kValidation), settled), "ns");
    m.add("spec_buffer.validated_words_per_settle",
          ratio(static_cast<double>(sp.buffer.validated_words), settled),
          "count");
    m.add("spec_buffer.commit_ns_per_settle",
          ratio(ledger(sp, TimeCat::kCommit), settled), "ns");
    m.add("spec_buffer.finalize_ns_per_settle",
          ratio(ledger(sp, TimeCat::kFinalize), settled), "ns");
    m.add("spec_buffer.commit_ratio", ratio(sp.commits, settles), "ratio");
    m.add("spec_buffer.wasted_frac",
          ratio(sp.ledger.get(TimeCat::kWastedWork), sp.runtime_ns), "ratio");
    m.add("spec_buffer.overflow_events",
          static_cast<double>(cr.buffer.overflow_events +
                              sp.buffer.overflow_events),
          "count");
    m.add("spec_buffer.alloc_events", static_cast<double>(post_warmup_allocs),
          "count");
    m.add("serving.seq_batch_us_p50", w->fills() ? median(seq_ms) * 1e3 : 0.0,
          "us");
    m.add("serving.fill_us_p50", median(fill_us), "us");
    m.add("oracle.fail_frac", fail_frac, "ratio");
    m.add("trace.overhead_frac",
          ratio(median(traced_solve_ms), median(solve_ms)) - 1.0, "ratio");
    if (!a.trace_out.empty()) write_chrome_trace(a.trace_out, tr.spans(), host);
  }

  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), m.body().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(parse(argc, argv)); }
