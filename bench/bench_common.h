// Shared plumbing for the reproduction benches: each binary regenerates
// one table/figure of the paper, printing the paper's reported values
// next to the values measured from the simulated grid.
//
// Environment knobs:
//   GRID3_JOB_SCALE  scale workload volumes (default 1.0 = the paper's
//                    291k-job accounting sample; smaller = faster)
//   GRID3_CPU_SCALE  scale site sizes (default 1.0 = ~2800 CPUs)
//   GRID3_SEED       scenario seed (default 20031025)
//   GRID3_BENCH_QUICK  any non-empty value = CI smoke mode: reduced
//                    horizons/workload so each ablation finishes in
//                    seconds while its acceptance verdict stays valid
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "util/table.h"
#include "workload/catalog.h"

namespace grid3::bench {

/// Reject a malformed knob: name the variable and its value, then exit
/// non-zero rather than run a scenario nobody asked for.
[[noreturn]] inline void bad_env(const char* name, const char* value,
                                 const char* expected) {
  std::cerr << "error: " << name << "=\"" << value << "\" is not "
            << expected << "\n";
  std::exit(2);
}

/// A scale knob: a finite number > 0, the whole string parsed.
inline double env_scale(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) return 1.0;
  char* end = nullptr;
  errno = 0;
  const double d = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE || !std::isfinite(d) ||
      d <= 0.0) {
    bad_env(name, v, "a number > 0");
  }
  return d;
}

inline double job_scale() { return env_scale("GRID3_JOB_SCALE"); }
inline double cpu_scale() { return env_scale("GRID3_CPU_SCALE"); }
inline std::uint64_t seed() {
  const char* v = std::getenv("GRID3_SEED");
  if (v == nullptr) return workload::ScenarioOptions{}.seed;
  char* end = nullptr;
  errno = 0;
  // strtoull accepts a sign and negates "-5" into 2^64-5; only digits
  // are a seed.
  const unsigned long long n = std::strtoull(v, &end, 10);
  if (*v < '0' || *v > '9' || *end != '\0' || errno == ERANGE) {
    bad_env("GRID3_SEED", v, "an unsigned 64-bit integer");
  }
  return n;
}

/// CI smoke mode: reduced horizons, same acceptance semantics.
inline bool quick() {
  const char* v = std::getenv("GRID3_BENCH_QUICK");
  return v != nullptr && *v != '\0';
}

/// Pick the full-run or quick-run value of a bench knob.
template <typename T>
inline T quick_or(T full, T reduced) {
  return quick() ? reduced : full;
}

/// Run `months` of Grid2003 operations at the configured scales: the
/// catalog's table1-7month entry, cut to `months`, under the paper's
/// status-quo stack.
inline std::unique_ptr<workload::CatalogRun> run_scenario(int months) {
  workload::ScenarioSpec spec =
      workload::ScenarioCatalog::get("table1-7month", seed());
  spec.base.months = months;
  spec.base.job_scale = job_scale();
  spec.base.cpu_scale = cpu_scale();
  const workload::ScenarioOptions& opts = spec.base;
  std::cout << "[scenario] months=" << months
            << " job_scale=" << opts.job_scale
            << " cpu_scale=" << opts.cpu_scale << " seed=" << opts.seed
            << " ... " << std::flush;
  auto run = std::make_unique<workload::CatalogRun>(
      spec, /*quick=*/false, workload::legacy_stack());
  run->run();
  std::cout << "done (" << run->sim().executed() << " events, "
            << run->scenario().grid().igoc().job_db().size()
            << " job records)\n\n";
  return run;
}

inline void header(const std::string& title, const std::string& paper_ref) {
  std::cout << "==================================================\n"
            << title << "\n"
            << "reproduces: " << paper_ref << "\n"
            << "==================================================\n";
}

/// Footnote reminding readers how to compare against the paper when the
/// run is scaled down.
inline void scale_note() {
  if (job_scale() != 1.0) {
    std::cout << "\nnote: job_scale=" << job_scale()
              << "; compare paper job counts against measured / "
              << job_scale() << "\n";
  }
}

}  // namespace grid3::bench
