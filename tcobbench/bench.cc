#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <iostream>

namespace tcobbench {

void RunResult::Wrong(const std::string& what) {
  correct = false;
  if (reported_++ < 5) std::cerr << "WRONG ANSWER: " << what << "\n";
}

void RunResult::Failed(const std::string& what) {
  ++failed;
  if (reported_++ < 5) std::cerr << "FAILED OPERATION: " << what << "\n";
}

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double MicrosSince(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t).count();
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t DirBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

uint64_t CounterDelta(const tcob::MetricsSnapshot& before,
                      const tcob::MetricsSnapshot& after,
                      const std::string& name) {
  const uint64_t a = before.CounterOr(name);
  const uint64_t b = after.CounterOr(name);
  return b >= a ? b - a : 0;
}

std::pair<uint64_t, uint64_t> HistogramDelta(
    const tcob::MetricsSnapshot& before, const tcob::MetricsSnapshot& after,
    const std::string& name) {
  auto b = before.histograms.find(name);
  auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return {0, 0};
  uint64_t count = a->second.count;
  uint64_t sum = a->second.sum;
  if (b != before.histograms.end()) {
    count -= b->second.count;
    sum -= b->second.sum;
  }
  return {count, sum};
}

double Ratio(double a, double b) { return b != 0 ? a / b : 0; }

// ---- spans ----

namespace {

std::atomic<uint64_t> g_next_span_id{1};

}  // namespace

SpanRecorder::Lane* SpanRecorder::NewLane() {
  std::lock_guard<std::mutex> lk(mu_);
  auto lane = std::make_unique<Lane>();
  lane->tid = static_cast<int>(lanes_.size()) + 1;
  lane->events.reserve(1 << 14);
  lanes_.push_back(std::move(lane));
  return lanes_.back().get();
}

Span::Span(SpanRecorder::Lane* lane, const char* name, uint64_t op)
    : lane_(lane), name_(name) {
  if (lane_ == nullptr) return;
  const uint64_t id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  const uint64_t parent = lane_->open.empty() ? 0 : lane_->open.back();
  lane_->events.push_back(SpanRecorder::Event{name, 'B', Clock::now(), id, parent, op});
  lane_->open.push_back(id);
}

Span::~Span() {
  if (lane_ == nullptr) return;
  const uint64_t id = lane_->open.back();
  lane_->open.pop_back();
  lane_->events.push_back(SpanRecorder::Event{name_, 'E', Clock::now(), id, 0, 0});
}

tcob::Status SpanRecorder::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  struct Ref {
    const Lane* lane;
    const Event* ev;
  };
  std::vector<Ref> all;
  for (const auto& lane : lanes_) {
    for (const Event& ev : lane->events) all.push_back(Ref{lane.get(), &ev});
  }
  // Each lane is already in time order; a stable sort by time keeps the
  // per-lane begin/end nesting intact.
  std::stable_sort(all.begin(), all.end(), [](const Ref& a, const Ref& b) {
    return a.ev->at < b.ev->at;
  });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return tcob::Status::IOError("cannot write " + path);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"args\":{\"name\":\"tcobbench\"}}");
  for (const Ref& r : all) {
    const double ts =
        std::chrono::duration<double, std::micro>(r.ev->at - epoch_).count();
    if (r.ev->ph == 'B') {
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"ph\":\"B\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"args\":{\"span\":%llu,\"parent\":%llu,"
                   "\"op\":%llu}}",
                   r.ev->name, r.lane->tid, ts,
                   static_cast<unsigned long long>(r.ev->span),
                   static_cast<unsigned long long>(r.ev->parent),
                   static_cast<unsigned long long>(r.ev->op));
    } else {
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"ph\":\"E\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"args\":{\"span\":%llu}}",
                   r.ev->name, r.lane->tid, ts,
                   static_cast<unsigned long long>(r.ev->span));
    }
  }
  std::fprintf(f, "\n]}\n");
  const bool ok = std::fclose(f) == 0;
  return ok ? tcob::Status::OK() : tcob::Status::IOError("write " + path);
}

}  // namespace tcobbench
