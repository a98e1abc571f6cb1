#include "harness.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

int Spans::begin(const char* name) {
  Record r;
  r.name = name;
  r.start_us =
      std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
  r.parent = open_.empty() ? -1 : open_.back();
  r.op = op_;
  records_.push_back(std::move(r));
  const int id = static_cast<int>(records_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Spans::end(int id) {
  records_[static_cast<std::size_t>(id)].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
  // Spans close in LIFO order (RAII); tolerate a stray close anyway.
  const auto it = std::find(open_.rbegin(), open_.rend(), id);
  if (it != open_.rend()) open_.erase(std::next(it).base(), open_.end());
}

std::vector<double> Spans::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Record& r : records_) {
    if (r.name == name) out.push_back((r.end_us - r.start_us) / 1e3);
  }
  return out;
}

std::string Spans::chrome_json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (i != 0) os << ",";
    os << "{\"name\":\"" << r.name << "\",\"cat\":\""
       << r.name.substr(0, r.name.find('.')) << "\",\"ph\":\"X\",\"ts\":"
       << r.start_us << ",\"dur\":" << (r.end_us - r.start_us)
       << ",\"pid\":1,\"tid\":1,\"args\":{\"span\":" << i
       << ",\"parent\":" << r.parent << ",\"op\":" << r.op << "}}";
  }
  os << "]}\n";
  return os.str();
}

std::string Spans::rollup_json() const {
  struct Roll {
    std::size_t count = 0;
    double total_ms = 0.0;
    double child_ms = 0.0;
  };
  std::map<std::string, Roll> roll;
  for (const Record& r : records_) {
    const double d = (r.end_us - r.start_us) / 1e3;
    Roll& me = roll[r.name];
    ++me.count;
    me.total_ms += d;
    if (r.parent >= 0) {
      roll[records_[static_cast<std::size_t>(r.parent)].name].child_ms += d;
    }
  }
  std::ostringstream os;
  os.precision(17);
  os << "{\"layers\":{";
  bool first = true;
  for (const auto& [name, r] : roll) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":{\"count\":" << r.count
       << ",\"total_ms\":" << r.total_ms
       << ",\"self_ms\":" << (r.total_ms - r.child_ms) << "}";
  }
  os << "}}\n";
  return os.str();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(t.n)));
    if (rank >= 1 && t.n - rank >= 10) {
      t.value = v[rank - 1];
      t.percentile = p;
      t.rule_met = true;
      return t;
    }
  }
  t.value = v.back();
  return t;
}

std::uint64_t nearest_rank(std::vector<std::uint64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

Digest& Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
  return *this;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

void pin_to_cpu(int i) {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<std::size_t>(i) % cpus.size()], &one);
  sched_setaffinity(0, sizeof one, &one);  // 0: the calling thread
}

bool reset_peak_rss() {
  // Hand freed set-up memory back first, so the reset level is what the
  // operations keep alive rather than what set-up left in the heap.
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";  // 5: reset the peak-RSS high-water mark (proc(5))
  f.close();
  return static_cast<bool>(f);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // KiB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 finalizer over (seed, stream): distinct streams of one
  // seed, and the same stream of distinct seeds, never collide in practice.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
