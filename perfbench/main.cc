// perfbench — the xarch end-to-end benchmark.
//
//   perfbench --workload xmark-serve|sprot-ingest|xmark-sharded
//             --seed N --seconds S --trace 0|1 --dir DIR [--spans FILE]
//
// Untraced runs (--trace 0) print every end-to-end metric; traced runs
// (--trace 1) print the per-layer metrics and a self-time report. A
// human-readable table goes to stderr; the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}. Any failed
// correctness check exits 1 without printing a result.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include "harness.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --dir DIR [--spans FILE]\n",
               why);
  std::exit(2);
}

bool PinTo(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return pthread_setaffinity_np(pthread_self(), sizeof one, &one) == 0;
}

/// Median round trip, in microseconds, of one byte bounced between this
/// thread and an echo thread over two pipes, both on `cpu`; infinity when
/// the probe cannot run there.
double HandOffMicros(int cpu) {
  constexpr int kRounds = 2000;
  if (!PinTo(cpu)) return HUGE_VAL;
  int to_echo[2], from_echo[2];
  if (::pipe(to_echo) != 0) return HUGE_VAL;
  if (::pipe(from_echo) != 0) {
    ::close(to_echo[0]);
    ::close(to_echo[1]);
    return HUGE_VAL;
  }
  // Created while this thread is pinned, so the echo thread shares `cpu`.
  std::thread echo([&] {
    char byte = 0;
    for (int i = 0; i < kRounds; ++i) {
      if (::read(to_echo[0], &byte, 1) != 1 ||
          ::write(from_echo[1], &byte, 1) != 1) {
        return;
      }
    }
  });
  std::vector<double> us;
  char byte = 'x';
  for (int i = 0; i < kRounds; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    if (::write(to_echo[1], &byte, 1) != 1 ||
        ::read(from_echo[0], &byte, 1) != 1) {
      break;
    }
    us.push_back(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  ::close(to_echo[1]);  // ends the echo loop if the probe broke off early
  echo.join();
  for (int fd : {to_echo[0], from_echo[0], from_echo[1]}) ::close(fd);
  if (us.size() < kRounds) return HUGE_VAL;
  std::nth_element(us.begin(), us.begin() + us.size() / 2, us.end());
  return us[us.size() / 2];
}

/// Pins the calling thread, and so every thread it creates later, to the
/// CPU on which a thread-to-thread hand-off is currently fastest; returns
/// that CPU, or -1 when affinity cannot be read or set.
int PinToQuietestCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int best = -1;
  double best_us = HUGE_VAL;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    const double us = HandOffMicros(cpu);
    if (best < 0 || us < best_us) {
      best = cpu;
      best_us = us;
    }
  }
  return best >= 0 && PinTo(best) ? best : -1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--dir") {
      options.dir = value;
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || options.dir.empty() || options.seconds <= 0) {
    Usage("--workload, --dir and a positive --seconds are required");
  }

  using Runner = perfbench::RunOutput (*)(const perfbench::Options&);
  Runner run = nullptr;
  if (options.workload == "xmark-serve") run = perfbench::RunXMarkServe;
  if (options.workload == "xmark-sharded") run = perfbench::RunXMarkSharded;
  if (options.workload == "sprot-ingest") run = perfbench::RunSprotIngest;
  if (run == nullptr) Usage(("unknown workload " + options.workload).c_str());

  // The whole process runs on one CPU: the client, the server's threads
  // and the shared worker pool. Cross-CPU wake-ups between them have a
  // latency that swings from run to run on a virtual machine (on a 4-vCPU
  // VM, sharded p99 moved by half between runs unpinned and by 3% pinned,
  // at equal throughput). The CPU is the one where a hand-off is fastest
  // right now: the vCPUs of such a VM are not equally quiet, and which is
  // quietest changes over minutes. Pinned before any workload thread
  // exists, so all inherit it.
  const int pinned_cpu = PinToQuietestCpu();
  // One malloc arena: with a per-thread arena for each server thread, peak
  // RSS depended more on how allocations happened to spread over arenas
  // than on what the program holds (it moved by 10% between seeds).
  mallopt(M_ARENA_MAX, 1);

  options.dir += "/run-" + std::to_string(::getpid());
  std::filesystem::remove_all(options.dir);
  std::filesystem::create_directories(options.dir);
  std::fprintf(stderr,
               "perfbench: workload=%s seed=%llu seconds=%g trace=%d "
               "hardware_concurrency=%u nproc=%ld pinned_cpu=%d fsync=%s\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed), options.seconds,
               options.trace ? 1 : 0, std::thread::hardware_concurrency(),
               ::sysconf(_SC_NPROCESSORS_ONLN), pinned_cpu,
               options.workload == "xmark-sharded" ? "manifest-only"
                                                   : "every-record");

  perfbench::RunOutput out = run(options);
  std::filesystem::remove_all(options.dir);

  out.metrics.PrintTable();
  out.metrics.PrintJson(/*correct=*/true, out.attempted, out.failed);
  return 0;
}
