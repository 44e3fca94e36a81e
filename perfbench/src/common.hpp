// Clocks, the reference-kernel reading and a minimal JSON writer shared by
// the benchmark host's workloads.
#pragma once

#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}
inline std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
inline std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
inline std::int64_t wall_ns() { return clock_ns(CLOCK_MONOTONIC); }

/// One reading of the reference kernel: CPU and wall seconds per kernel
/// run, averaged over the threads it ran on.
struct RefReading {
  double cpu_s = 0.0;
  double wall_s = 0.0;
};

/// Run the reference kernel once on each of `threads` threads at the same
/// time (1 = on the calling thread) and return the per-thread average.
RefReading measure_ref(int threads);

/// The mean of several readings, e.g. those taken just before and just
/// after a timed pass.
inline RefReading mean_of(const std::vector<RefReading>& v) {
  RefReading m;
  for (const auto& r : v) {
    m.cpu_s += r.cpu_s / static_cast<double>(v.size());
    m.wall_s += r.wall_s / static_cast<double>(v.size());
  }
  return m;
}

/// Append-only JSON text builder; the caller keeps the structure balanced.
class Json {
 public:
  Json& open(const char* key = nullptr) { return start(key, "{"); }
  Json& close() { return end('}'); }
  Json& open_list(const char* key = nullptr) { return start(key, "["); }
  Json& close_list() { return end(']'); }
  Json& num(const char* key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Json& num(const char* key, std::int64_t v) { return raw(key, std::to_string(v)); }
  Json& num(const char* key, std::size_t v) { return raw(key, std::to_string(v)); }
  Json& boolean(const char* key, bool v) { return raw(key, v ? "true" : "false"); }
  Json& str(const char* key, const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (c == '\n' || c == '\t') ? ' ' : c;
    }
    q += '"';
    return raw(key, q);
  }
  template <typename T>
  Json& list(const char* key, const std::vector<T>& v) {
    open_list(key);
    for (const T& x : v) num(nullptr, x);
    return close_list();
  }
  [[nodiscard]] const std::string& text() const { return out_; }

 private:
  Json& start(const char* key, const char* bracket) {
    raw(key, bracket);
    first_ = true;
    return *this;
  }
  Json& end(char bracket) {
    out_ += bracket;
    first_ = false;
    return *this;
  }
  Json& raw(const char* key, const std::string& value) {
    if (!first_) out_ += ',';
    first_ = false;
    if (key != nullptr) {
      out_ += '"';
      out_ += key;
      out_ += "\":";
    }
    out_ += value;
    return *this;
  }

  std::string out_;
  bool first_ = true;
};

}  // namespace perfbench
