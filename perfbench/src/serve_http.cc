// serve_http: the request path users see. Set-up trains RCBT on the ALL
// profile and serves it with PredictionService::Start on loopback. A
// forked generator process sends single-row POST /v1/predict requests
// (all 7,129 genes, ~70 KB of JSON, so each body crosses the server's
// 64 KiB read chunk) in an open loop from at most 4 client threads, one
// connection each at a time. Latency is timed from each request's
// scheduled send time. First a reference rate, then a fixed rate ladder
// for the highest rate whose p99 stays under the limit with no backlog.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "topkrgs/topkrgs.h"

namespace perfbench {

using namespace topkrgs;

namespace {

constexpr uint32_t kK = 10;
constexpr uint32_t kNl = 20;
constexpr double kMinsupFrac = 0.7;
constexpr int kSetups = 3;
constexpr int kClientThreads = 4;
/// p99 latency limit of the ladder, and the deadline each request carries.
/// Loose for a ~1 ms request on purpose: background load on a shared host
/// alone pushes a step's p99 past 20 ms, while saturation pushes it into
/// the hundreds of milliseconds.
constexpr double kP99LimitMs = 50.0;
constexpr double kDeadlineMs = 4 * kP99LimitMs;
/// Reference rate for latency_p50/p99, and the rate ladder (requests/s).
constexpr double kReferenceRate = 250;
constexpr double kLadder[] = {400, 800, 1200, 1600};
/// Share of --seconds spent at the reference rate, in one segment before
/// each ladder step and one after the last; the ladder steps split the
/// rest evenly.
constexpr double kReferenceShare = 0.4;
/// A step is void when the generator itself ran this late (p99 of send
/// time after the later of schedule and client-thread availability).
constexpr double kMaxLagShareOfLimit = 0.5;
constexpr int kMaxMisses = 3;
constexpr int kMaxStepTries = 5;
constexpr int kInprocReps = 20;

// ---- generator process ---------------------------------------------------

/// One request as the generator saw it. Times are Now() seconds.
struct Sample {
  double scheduled = 0;
  double claimed = 0;  // when a client thread took the request
  double sent = 0;
  double done = 0;
  int32_t http_code = 0;  // -1: transport failure
  int32_t label = -1;     // -1: no label in the response
};

struct StepCommand {
  double rate = 0;  // 0 = quit
  double seconds = 0;
};

bool WriteAll(int fd, const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = write(fd, p, size);
    if (n <= 0) return false;
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, void* data, size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = read(fd, p, size);
    if (n <= 0) return false;
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

/// Sends one request on a fresh connection (the server answers one request
/// per connection) and fills the response fields of `sample`.
void SendRequest(uint16_t port, const std::string& request, Sample* sample) {
  sample->http_code = -1;
  auto fd = ConnectTcp(port);
  if (!fd.ok()) return;
  std::string response;
  if (SendAll(fd.value(), request).ok() &&
      RecvAll(fd.value(), &response).ok() && response.size() > 12 &&
      response.compare(0, 9, "HTTP/1.1 ") == 0) {
    sample->http_code = std::atoi(response.c_str() + 9);
    const size_t at = response.find("\"label\":");
    if (at != std::string::npos) {
      sample->label = std::atoi(response.c_str() + at + 8);
    }
  }
  CloseSocket(fd.value());
}

std::vector<Sample> RunStep(uint16_t port,
                            const std::vector<std::string>& requests,
                            const StepCommand& step) {
  const auto n = static_cast<size_t>(
      std::max<long long>(1, std::llround(step.rate * step.seconds)));
  std::vector<Sample> samples(n);
  std::atomic<size_t> next{0};
  const double t0 = Now() + 0.002;
  const auto clock_origin = std::chrono::steady_clock::now();
  const double now_origin = Now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClientThreads; ++c) {
    clients.emplace_back([&] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= n) return;
        Sample& s = samples[i];
        s.scheduled = t0 + static_cast<double>(i) / step.rate;
        s.claimed = Now();
        if (s.claimed < s.scheduled) {
          std::this_thread::sleep_until(
              clock_origin + std::chrono::duration_cast<
                                 std::chrono::steady_clock::duration>(
                                 std::chrono::duration<double>(
                                     s.scheduled - now_origin)));
        }
        s.sent = Now();
        SendRequest(port, requests[i % requests.size()], &s);
        s.done = Now();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  return samples;
}

/// The forked generator: reads the port, then runs steps until told to
/// quit (or the parent goes away), writing each step's samples back.
[[noreturn]] void GeneratorMain(int cmd_fd, int result_fd,
                                const std::vector<std::string>& requests) {
  uint16_t port = 0;
  if (!ReadAll(cmd_fd, &port, sizeof(port))) _exit(1);
  for (;;) {
    StepCommand step;
    if (!ReadAll(cmd_fd, &step, sizeof(step)) || step.rate <= 0) _exit(0);
    const std::vector<Sample> samples = RunStep(port, requests, step);
    const uint64_t count = samples.size();
    if (!WriteAll(result_fd, &count, sizeof(count)) ||
        !WriteAll(result_fd, samples.data(), count * sizeof(Sample))) {
      _exit(1);
    }
  }
}

// ---- server side -----------------------------------------------------------

struct Model {
  std::shared_ptr<const ServableModel> servable;
  RcbtClassifier rcbt;  // the same classifier, for in-process timing
};

StatusOr<Model> TrainModel(const GeneratedData& data) {
  EntropyDiscretizer discretizer;
  Discretization disc = discretizer.Fit(data.train);
  const DiscreteDataset train = disc.Apply(data.train);
  RcbtOptions options;
  options.k = kK;
  options.nl = kNl;
  options.min_support_frac = kMinsupFrac;
  options.item_scores = ItemScores(data.train, disc);
  Model model;
  model.rcbt = RcbtClassifier::Train(train, options);
  const uint32_t items = disc.num_items();
  auto servable = ServableModel::Create("default", "v1", std::move(disc),
                                        model.rcbt, std::nullopt, items);
  if (!servable.ok()) return servable.status();
  model.servable = std::move(servable).value();
  return model;
}

std::string RequestBody(const ContinuousDataset& test, RowId row) {
  std::string body = "{\"rows\":[[";
  char buf[32];
  for (GeneId g = 0; g < test.num_genes(); ++g) {
    std::snprintf(buf, sizeof(buf), "%s%.9g", g == 0 ? "" : ",",
                  test.value(row, g));
    body += buf;
  }
  std::snprintf(buf, sizeof(buf), "]],\"deadline_ms\":%g}", kDeadlineMs);
  body += buf;
  return body;
}

std::string HttpRequestFor(const std::string& body) {
  return "POST /v1/predict HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// One open-loop step as both ends saw it: the generator's samples (their
/// labels already checked) and the server's metric deltas.
struct StepData {
  std::vector<Sample> samples;
  size_t ok = 0;
  size_t wrong_label = 0;
  size_t shed = 0;
  size_t deadline = 0;
  size_t errors = 0;
  double lag_p99_ms = 0;
  bool backlog_grows = false;
  LatencyHistogram::Snapshot executor;  // delta over the step
  int64_t max_queue_depth = 0;
  uint64_t server_shed = 0;
  uint64_t server_deadline = 0;
  uint64_t server_errors = 0;
};

/// One or more steps at one rate, pooled.
struct StepResult {
  double rate = 0;
  size_t attempted = 0;
  size_t ok = 0;
  size_t wrong_label = 0;
  size_t shed = 0;
  size_t deadline = 0;
  size_t errors = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double client_p50_us = 0;  // send to response, schedule wait excluded
  double lag_p99_ms = 0;
  double achieved_rate = 0;
  bool backlog_grows = false;
  double executor_p50_us = 0;
  double executor_p99_us = 0;
  int64_t max_queue_depth = 0;
  uint64_t server_shed = 0;
  uint64_t server_deadline = 0;
  uint64_t server_errors = 0;

  bool Meets() const {
    return ok == attempted && p99_ms <= kP99LimitMs && !backlog_grows;
  }
};

StepResult Summarize(double rate, const std::vector<StepData>& steps) {
  StepResult r;
  r.rate = rate;
  std::vector<double> latency_ms, client_us;
  double busy_s = 0;
  LatencyHistogram::Snapshot executor;
  for (const StepData& d : steps) {
    double last = 0;
    for (const Sample& s : d.samples) {
      latency_ms.push_back((s.done - s.scheduled) * 1e3);
      client_us.push_back((s.done - s.sent) * 1e6);
      last = std::max(last, s.done);
    }
    busy_s += last - d.samples.front().scheduled;
    r.attempted += d.samples.size();
    r.ok += d.ok;
    r.wrong_label += d.wrong_label;
    r.shed += d.shed;
    r.deadline += d.deadline;
    r.errors += d.errors;
    r.lag_p99_ms = std::max(r.lag_p99_ms, d.lag_p99_ms);
    r.backlog_grows = r.backlog_grows || d.backlog_grows;
    for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
      executor.counts[i] += d.executor.counts[i];
      executor.total += d.executor.counts[i];
    }
    r.max_queue_depth = std::max(r.max_queue_depth, d.max_queue_depth);
    r.server_shed += d.server_shed;
    r.server_deadline += d.server_deadline;
    r.server_errors += d.server_errors;
  }
  r.p50_ms = Quantile(latency_ms, 0.5);
  r.p99_ms = Quantile(latency_ms, 0.99);
  r.client_p50_us = Quantile(client_us, 0.5);
  r.achieved_rate = static_cast<double>(r.ok) / busy_s;
  r.executor_p50_us = static_cast<double>(executor.PercentileMicros(50));
  r.executor_p99_us = static_cast<double>(executor.PercentileMicros(99));
  return r;
}

class Server {
 public:
  Server(PredictionService* service, int cmd_fd, int result_fd)
      : service_(service), cmd_fd_(cmd_fd), result_fd_(result_fd) {}

  /// Has the generator run one step and collects both ends' view of it.
  bool Step(double rate, double seconds, const std::vector<int>& expected,
            StepData* out) {
    ServeMetrics& m = service_->metrics();
    const auto hist_before = m.request_latency.Snap();
    const uint64_t shed0 = m.shed_total.load();
    const uint64_t deadline0 = m.deadline_exceeded_total.load();
    const uint64_t errors0 = m.errors_total.load();
    std::atomic<bool> running{true};
    std::atomic<int64_t> max_depth{0};
    std::thread sampler([&] {
      while (running.load()) {
        const int64_t depth = m.queue_depth.load(std::memory_order_relaxed);
        if (depth > max_depth.load()) max_depth.store(depth);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
    const StepCommand cmd{rate, seconds};
    uint64_t count = 0;
    StepData d;
    bool io_ok = WriteAll(cmd_fd_, &cmd, sizeof(cmd)) &&
                 ReadAll(result_fd_, &count, sizeof(count));
    if (io_ok) {
      d.samples.resize(count);
      io_ok = ReadAll(result_fd_, d.samples.data(), count * sizeof(Sample));
    }
    running.store(false);
    sampler.join();
    if (!io_ok || d.samples.empty()) return false;

    std::vector<double> lag_ms;
    for (size_t i = 0; i < d.samples.size(); ++i) {
      const Sample& s = d.samples[i];
      lag_ms.push_back((s.sent - std::max(s.scheduled, s.claimed)) * 1e3);
      if (s.http_code == 200) {
        // The generator sends request i with body i mod #rows.
        if (s.label == expected[i % expected.size()]) {
          ++d.ok;
        } else {
          ++d.wrong_label;
        }
      } else if (s.http_code == 429) {
        ++d.shed;
      } else if (s.http_code == 504) {
        ++d.deadline;
      } else {
        ++d.errors;
      }
    }
    d.lag_p99_ms = Quantile(lag_ms, 0.99);
    // Growing backlog: requests wait for a free client thread longer at
    // the end of the step than at its start.
    const size_t quarter = d.samples.size() / 4;
    if (quarter > 0) {
      std::vector<double> head, tail;
      for (size_t i = 0; i < quarter; ++i) {
        head.push_back(d.samples[i].claimed - d.samples[i].scheduled);
        const Sample& t = d.samples[d.samples.size() - 1 - i];
        tail.push_back(t.claimed - t.scheduled);
      }
      d.backlog_grows =
          Median(tail) * 1e3 > Median(head) * 1e3 + kP99LimitMs / 2;
    }
    const auto hist_after = m.request_latency.Snap();
    for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
      d.executor.counts[i] = hist_after.counts[i] - hist_before.counts[i];
      d.executor.total += d.executor.counts[i];
    }
    d.max_queue_depth = max_depth.load();
    d.server_shed = m.shed_total.load() - shed0;
    d.server_deadline = m.deadline_exceeded_total.load() - deadline0;
    d.server_errors = m.errors_total.load() - errors0;
    *out = std::move(d);
    return true;
  }

 private:
  PredictionService* service_;
  int cmd_fd_;
  int result_fd_;
};

void PrintStep(const char* what, const StepResult& r) {
  std::printf(
      "%-9s rate %6.0f/s  sent %5zu  ok %5zu  p50 %7.3f ms  p99 %7.3f ms  "
      "achieved %7.1f/s  lag_p99 %6.3f ms  queue_max %3lld  backlog %s  %s\n",
      what, r.rate, r.attempted, r.ok, r.p50_ms, r.p99_ms, r.achieved_rate,
      r.lag_p99_ms, static_cast<long long>(r.max_queue_depth),
      r.backlog_grows ? "grows" : "flat", r.Meets() ? "meets" : "misses");
}

}  // namespace

int RunServeHttp(const Args& args, Report* report) {
  const DatasetProfile profile = DatasetProfile::ALL();

  std::vector<double> setup_s;
  GeneratedData data;
  Model model;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = Now();
    data = PermutedProfileData(profile, args.seed);
    auto trained = TrainModel(data);
    setup_s.push_back(Now() - t0);
    if (!trained.ok()) {
      std::fprintf(stderr, "model: %s\n", trained.status().ToString().c_str());
      return 1;
    }
    model = std::move(trained).value();
  }

  // Request bodies, and the label in-process Predict gives each row as the
  // server will parse it: every response must carry exactly that label.
  std::vector<std::string> bodies, requests;
  std::vector<int> expected;
  uint32_t correct = 0;
  for (RowId r = 0; r < data.test.num_rows(); ++r) {
    bodies.push_back(RequestBody(data.test, r));
    requests.push_back(HttpRequestFor(bodies.back()));
    auto parsed = ParsePredictRequest(bodies.back());
    auto predicted =
        parsed.ok() ? model.servable->Predict(parsed.value().rows[0])
                    : StatusOr<ServableModel::RowResult>(parsed.status());
    if (!predicted.ok()) {
      std::fprintf(stderr, "in-process predict: %s\n",
                   predicted.status().ToString().c_str());
      return 1;
    }
    expected.push_back(predicted.value().label);
    correct += predicted.value().label == data.test.label(r) ? 1 : 0;
  }

  // Fork the generator before any server thread exists.
  int cmd_pipe[2];
  int result_pipe[2];
  if (pipe(cmd_pipe) != 0 || pipe(result_pipe) != 0) {
    std::perror("pipe");
    return 1;
  }
  std::fflush(stdout);
  const pid_t child = fork();
  if (child < 0) {
    std::perror("fork");
    return 1;
  }
  if (child == 0) {
    close(cmd_pipe[1]);
    close(result_pipe[0]);
    GeneratorMain(cmd_pipe[0], result_pipe[1], requests);
  }
  close(cmd_pipe[0]);
  close(result_pipe[1]);
  const int cmd_fd = cmd_pipe[1];
  const int result_fd = result_pipe[0];
  auto stop_generator = [&] {
    const StepCommand quit;
    (void)WriteAll(cmd_fd, &quit, sizeof(quit));
    close(cmd_fd);
    close(result_fd);
    int status = 0;
    waitpid(child, &status, 0);
  };

  PredictionService service{PredictionService::Options()};
  Status started = service.registry().Insert(model.servable);
  if (started.ok()) started = service.Start(0);
  const uint16_t port = service.port();
  if (!started.ok() || !WriteAll(cmd_fd, &port, sizeof(port))) {
    std::fprintf(stderr, "server start: %s\n", started.ToString().c_str());
    stop_generator();
    return 1;
  }

  Server server(&service, cmd_fd, result_fd);
  std::vector<double> peak_mb;
  bool rss_reset_ok = true;
  // Runs one step, again when the generator ran late (void) and, when
  // `retry_miss`, up to twice more when it misses the limit: a transient
  // stall on a shared machine must not end the climb, while a real
  // capacity limit misses every time.
  auto run_step = [&](const char* what, double rate, double seconds,
                      bool retry_miss, StepData* out) {
    int misses = 0;
    for (int attempt = 0; attempt < kMaxStepTries; ++attempt) {
      rss_reset_ok = ResetPeakRss() && rss_reset_ok;
      if (!server.Step(rate, seconds, expected, out)) return false;
      peak_mb.push_back(PeakRssMb());
      const StepResult r = Summarize(rate, {*out});
      PrintStep(what, r);
      if (out->lag_p99_ms > kMaxLagShareOfLimit * kP99LimitMs) {
        std::printf("  void: generator lag %.3f ms, trying again\n",
                    out->lag_p99_ms);
        continue;
      }
      if (!retry_miss || r.Meets() || ++misses == kMaxMisses) return true;
      std::printf("  missed, trying again\n");
    }
    return false;
  };

  // The reference rate runs in segments before, between and after the
  // ladder steps, so its latency pools samples from across the run rather
  // than from one stretch of a shared machine's background load.
  const double segment_seconds =
      args.seconds * kReferenceShare / (std::size(kLadder) + 1);
  const double ladder_seconds =
      args.seconds * (1 - kReferenceShare) / std::size(kLadder);
  std::vector<StepData> reference_segments;
  std::vector<StepResult> ladder;
  bool generator_ok = true;
  bool climbing = true;
  StepResult best;
  for (size_t i = 0; i <= std::size(kLadder) && generator_ok; ++i) {
    StepData segment;
    generator_ok = run_step("reference", kReferenceRate, segment_seconds,
                            false, &segment);
    reference_segments.push_back(std::move(segment));
    if (i == std::size(kLadder) || !climbing || !generator_ok) continue;
    StepData step;
    generator_ok = run_step("ladder", kLadder[i], ladder_seconds, true, &step);
    ladder.push_back(Summarize(kLadder[i], {step}));
    climbing = ladder.back().Meets();
    if (climbing) best = ladder.back();
  }
  const StepResult reference = Summarize(kReferenceRate, reference_segments);
  PrintStep("pooled", reference);
  stop_generator();
  if (!generator_ok) {
    report->Fail("a step stayed void or the generator failed");
  }

  // Counting, over each step's final try: every request sent is attempted.
  // Wrong labels and transport or server errors fail anywhere; shed and
  // deadline misses fail at the reference rate and on ladder steps that
  // meet the limit, while on the step that ends the climb they are the
  // capacity probe doing its job and show in serve.shed and
  // serve.deadline_exceeded.
  uint64_t shed = 0, deadline = 0, errors = 0;
  int64_t max_depth = 0;
  std::vector<StepResult> steps = ladder;
  steps.insert(steps.begin(), reference);
  for (size_t i = 0; i < steps.size(); ++i) {
    const StepResult& s = steps[i];
    const bool probe_overload = i > 0 && !s.Meets();
    const size_t failed =
        s.wrong_label + s.errors + (probe_overload ? 0 : s.shed + s.deadline);
    for (size_t k = 0; k < s.attempted; ++k) report->Attempt(k >= failed);
    shed += s.server_shed;
    deadline += s.server_deadline;
    errors += s.server_errors;
    max_depth = std::max(max_depth, s.max_queue_depth);
  }
  if (!reference.Meets()) report->Fail("reference rate misses the p99 limit");
  const double accuracy =
      static_cast<double>(correct) / static_cast<double>(expected.size());

  report->Add("setup_s", Median(setup_s), "s");
  report->Add("run_s", reference.p50_ms / 1e3, "s");
  report->Add("peak_rss_mb", Median(peak_mb), "MB");
  report->Add("throughput_per_s", best.achieved_rate, "1/s");
  report->Add("quality", accuracy, "frac");
  report->Add("latency_p50_ms", reference.p50_ms, "ms");
  report->Add("latency_p99_ms", reference.p99_ms, "ms");
  report->Add("latency_samples", static_cast<double>(reference.attempted),
              "count");
  report->Add("max_rps_within_slo", best.rate, "1/s");
  report->Add("test_accuracy", accuracy, "frac");
  report->Add("serve.generator_lag_ms", reference.lag_p99_ms, "ms");
  report->Add("rss.reset_ok", rss_reset_ok ? 1 : 0, "bool");

  if (args.trace) {
    // The server's internals are opaque from outside, so the per-stage
    // split comes from calling the same public functions in-process on
    // the same bodies, alternating untraced and traced passes.
    Tracer tracer;
    const Discretization& disc = model.servable->discretization();
    std::vector<double> untraced_s, traced_s;
    uint32_t op = 0;
    for (int rep = 0; rep < kInprocReps; ++rep) {
      for (const std::string& body : bodies) {
        const bool traced = (op % 2) == 1;
        tracer.set_op(op++);
        tracer.set_enabled(traced);
        const double t0 = Now();
        {
          ScopedSpan root(tracer, "serve.inproc_request");
          const auto parsed = [&] {
            ScopedSpan span(tracer, "serve.parse");
            return ParsePredictRequest(body);
          }();
          const std::vector<double>& row = parsed.value().rows[0];
          Bitset items(disc.num_items());
          {
            ScopedSpan span(tracer, "serve.discretize_row");
            for (ItemId item : disc.DiscretizeRow(row)) items.Set(item);
          }
          {
            ScopedSpan span(tracer, "rcbt.predict");
            (void)model.rcbt.Predict(items).label;
          }
          const auto result = [&] {
            ScopedSpan span(tracer, "serve.predict");
            return model.servable->Predict(row);
          }();
          ScopedSpan span(tracer, "serve.serialize");
          (void)RowResultToJson(result.value()).size();
        }
        (traced ? traced_s : untraced_s).push_back(Now() - t0);
      }
    }
    tracer.set_enabled(false);
    const double parse_us = Median(tracer.PerOp("serve.parse")) * 1e6;
    double bytes = 0;
    for (const std::string& body : bodies) bytes += body.size();
    report->Add("rcbt.predict_us", Median(tracer.PerOp("rcbt.predict")) * 1e6,
                "us");
    report->Add("serve.parse_us", parse_us, "us");
    report->Add("serve.discretize_row_us",
                Median(tracer.PerOp("serve.discretize_row")) * 1e6, "us");
    report->Add("serve.predict_us",
                Median(tracer.PerOp("serve.predict")) * 1e6, "us");
    report->Add("serve.serialize_us",
                Median(tracer.PerOp("serve.serialize")) * 1e6, "us");
    report->Add("serve.http_self_us",
                reference.client_p50_us - reference.executor_p50_us - parse_us,
                "us");
    report->Add("serve.request_bytes", bytes / bodies.size(), "bytes");
    report->Add("serve.executor_p50_us", reference.executor_p50_us, "us");
    report->Add("serve.executor_p99_us", reference.executor_p99_us, "us");
    report->Add("serve.max_queue_depth", static_cast<double>(max_depth),
                "count");
    report->Add("serve.shed", static_cast<double>(shed), "count");
    report->Add("serve.deadline_exceeded", static_cast<double>(deadline),
                "count");
    report->Add("serve.errors", static_cast<double>(errors), "count");
    report->Add("trace.overhead_s", Median(traced_s) - Median(untraced_s), "s");
    ReportTrace(tracer, args);
  }
  return 0;
}

}  // namespace perfbench
