// Shared helpers for the figure/table reproduction harnesses.

#ifndef ECODB_BENCH_BENCH_UTIL_H_
#define ECODB_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "ecodb/ecodb.h"
#include "ecodb/util/strings.h"

namespace ecodb::bench {

using ecodb::StrFormat;

/// Parses "--sf=<double>" from argv; returns `fallback` if absent.
/// Benches default to a small scale factor so the whole suite runs in
/// seconds; ratios are scale-invariant (absolute simulated times scale
/// linearly with SF and are reported alongside the SF-1.0 equivalents).
inline double ScaleFactorArg(int argc, char** argv, double fallback) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--sf=", 5) == 0) {
      double v = std::atof(argv[i] + 5);
      if (v > 0) return v;
    }
  }
  return fallback;
}

inline std::unique_ptr<Database> MakeDb(const EngineProfile& profile,
                                        double sf) {
  DatabaseOptions opt;
  opt.profile = profile;
  auto db = std::make_unique<Database>(opt);
  tpch::DbGenOptions gen;
  gen.scale_factor = sf;
  Status st = db->LoadTpch(gen);
  if (!st.ok()) {
    std::fprintf(stderr, "TPC-H load failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  return db;
}

inline std::string Pct(double ratio) {
  return StrFormat("%+.1f%%", (ratio - 1.0) * 100.0);
}

inline std::string F(double v, int digits = 3) {
  return StrFormat("%.*f", digits, v);
}

/// Opens a BENCH_*.json document with the fields every one records: the
/// bench name, the scale factor, the host CPU count and the CMake build
/// type the bench was compiled in.
inline void PrintJsonHeader(const char* bench, double sf) {
  std::printf("{\n  \"bench\": \"%s\",\n  \"sf\": %g,\n", bench, sf);
  std::printf("  \"host_cpus\": %u,\n", std::thread::hardware_concurrency());
  std::printf("  \"build_type\": \"%s\",\n", ECODB_BUILD_TYPE);
}

inline void Header(const char* title, const char* paper_ref) {
  std::printf("=== %s ===\n", title);
  std::printf("Paper reference: %s\n\n", paper_ref);
}

}  // namespace ecodb::bench

#endif  // ECODB_BENCH_BENCH_UTIL_H_
