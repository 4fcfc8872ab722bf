#include "util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>

#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double TailLatency(std::vector<double> v, double* percentile_used) {
  if (v.empty()) {
    *percentile_used = 0;
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n < 11) {  // no sample has 10 beyond it: report the maximum
    *percentile_used = 100;
    return v.back();
  }
  // Nearest-rank 99th percentile, pulled down until 10 samples remain
  // above the reported one.
  size_t k = static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n)));
  k = k > 0 ? k - 1 : 0;
  k = std::min(k, n - 11);
  *percentile_used = 100.0 * static_cast<double>(k + 1) /
                     static_cast<double>(n);
  return v[k];
}

uint64_t Rng::Next() {
  uint64_t x = (state_ += 0x9E3779B97F4A7C15ull);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(Rng* rng) const {
  double u = rng->Unit();
  size_t i = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(i, cdf_.size() - 1);
}

std::string CanonicalAnswer(const std::vector<jpar::Item>& items) {
  std::vector<std::string> lines;
  lines.reserve(items.size());
  for (const jpar::Item& item : items) lines.push_back(item.ToJsonString());
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void WriteFileAtomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".delivery";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) Die("cannot write " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) Die("cannot rename " + tmp + ": " + ec.message());
}

void Redeliver(const std::string& path, const std::string& bytes) {
  std::error_code ec;
  const auto before = std::filesystem::last_write_time(path, ec);
  WriteFileAtomic(path, bytes);
  if (!ec && std::filesystem::last_write_time(path) == before) {
    std::filesystem::last_write_time(path,
                                     before + std::chrono::milliseconds(1));
  }
}

ScratchDir::ScratchDir(std::string path) : path_(std::move(path)) {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  std::filesystem::create_directories(path_, ec);
  if (ec) Die("cannot create " + path_ + ": " + ec.message());
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

std::vector<std::string> RunInChild(
    const std::string& scratch_file,
    const std::function<std::vector<std::string>()>& fn) {
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    std::vector<std::string> out = fn();
    std::ofstream f(scratch_file, std::ios::binary | std::ios::trunc);
    for (const std::string& s : out) {
      const uint64_t n = s.size();
      f.write(reinterpret_cast<const char*>(&n), sizeof(n));
      f.write(s.data(), static_cast<std::streamsize>(n));
    }
    f.close();
    _exit(f ? 0 : 1);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    Die("reference computation failed");
  }
  std::ifstream f(scratch_file, std::ios::binary);
  std::vector<std::string> out;
  uint64_t n = 0;
  while (f.read(reinterpret_cast<char*>(&n), sizeof(n))) {
    std::string s(n, '\0');
    if (!f.read(s.data(), static_cast<std::streamsize>(n))) {
      Die("truncated reference file");
    }
    out.push_back(std::move(s));
  }
  std::filesystem::remove(scratch_file);
  return out;
}

std::vector<double> TimeSetUps(int repeats, const std::string& scratch_file,
                               const std::function<void(int)>& set_up,
                               const std::function<void()>& tear_down) {
  auto timed = [&set_up](int i) {
    const auto t0 = Clock::now();
    set_up(i);
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  std::vector<double> seconds;
  for (int i = 0; i + 1 < repeats; ++i) {
    std::vector<std::string> out = RunInChild(scratch_file, [&, i] {
      const double s = timed(i);
      tear_down();
      return std::vector<std::string>{
          std::string(reinterpret_cast<const char*>(&s), sizeof(s))};
    });
    double s = 0;
    if (out.size() != 1 || out[0].size() != sizeof(s)) {
      Die("set-up child failed");
    }
    std::memcpy(&s, out[0].data(), sizeof(s));
    seconds.push_back(s);
  }
  seconds.push_back(timed(repeats - 1));
  return seconds;
}

void Die(const std::string& what) {
  std::cerr << "perfbench: " << what << std::endl;
  std::exit(2);
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

}  // namespace perfbench
