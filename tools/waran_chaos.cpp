// waran_chaos — seeded chaos-campaign runner for the WA-RAN closed loop.
//
//   waran_chaos                        # default campaign (25 episodes)
//   waran_chaos --episodes 200         # CI-sized campaign
//   waran_chaos --seed 1042            # replay ONE episode bit-for-bit
//   waran_chaos --seed 500 --episodes 50 --verbose
//
// A campaign runs episodes with seeds S, S+1, ..., so any failing episode
// it reports replays exactly via `waran_chaos --seed <s>`. Exit status is
// the number of failing episodes (0 = all invariants held). This binary
// installs the counting operator new, so the per-episode warm-path probe
// measures real heap traffic.
//
//   waran_chaos --episodes 200 --virtual-time   # faster-than-real-time CI run
//   waran_chaos --cells 4 --virtual-time        # four cells per episode
//
// Every episode runs on a threaded rt::GnbDeployment; --cells sets its cell
// count (default 1). --virtual-time runs every episode on the rt::Clock
// virtual clock and reports the wall-clock speedup (simulated seconds per
// real second).
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "chaos/harness.h"
#include "common/log.h"
#include "rt/clock.h"
#include "tests/heap_probe_guard.h"

namespace {

using namespace waran;

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed S] [--episodes N] [--rounds R]\n"
               "          [--slots-per-round K] [--cells C] [--virtual-time]\n"
               "          [--no-probe] [--flight-dir DIR] [--verbose]\n"
               "\n"
               "  --seed S             base seed (default 1); with\n"
               "                       --episodes 1 this replays one episode\n"
               "  --episodes N         consecutive episodes, seeds S..S+N-1\n"
               "                       (default 1 when --seed is given, 25\n"
               "                       otherwise)\n"
               "  --rounds R           E2 report rounds per episode\n"
               "  --slots-per-round K  MAC slots between indications\n"
               "  --cells C            cells per episode's deployment, one\n"
               "                       worker thread and fault plan each\n"
               "                       (default 1)\n"
               "  --virtual-time       run on the rt virtual clock (no wall\n"
               "                       pacing) and report the speedup\n"
               "  --no-probe           skip the zero-alloc warm-path probe\n"
               "  --flight-dir DIR     write flight-recorder bundles from\n"
               "                       breaching or failing episodes to\n"
               "                       DIR/flight_<seed>.json\n"
               "  --verbose            print the injection log per episode\n",
               argv0);
}

// Persists a breaching/failing episode's flight bundle; returns the path
// (empty on write failure). The directory must already exist — CI creates
// it, and failing silently here would hide the artifact we need most.
std::string write_flight_bundle(const std::string& dir,
                                const chaos::EpisodeReport& r) {
  std::string path = dir + "/flight_" + std::to_string(r.seed) + ".json";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "flight-dir: cannot write %s\n", path.c_str());
    return {};
  }
  std::fwrite(r.flight_bundle.data(), 1, r.flight_bundle.size(), f);
  std::fclose(f);
  return path;
}

void print_episode(const chaos::EpisodeReport& r, bool with_log) {
  std::printf("%s\n", chaos::summarize(r).c_str());
  if (!with_log) return;
  for (const auto& inj : r.injection_log) {
    std::printf("  #%-4" PRIu64 " %-17s %s\n", inj.seq,
                chaos::to_string(inj.kind), inj.site.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 1;
  bool seed_given = false;
  bool verbose = false;
  uint32_t episodes = 0;
  std::string flight_dir;
  chaos::EpisodeOptions base;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(next("--seed"), nullptr, 0);
      seed_given = true;
    } else if (std::strcmp(argv[i], "--episodes") == 0) {
      episodes = static_cast<uint32_t>(std::strtoul(next("--episodes"), nullptr, 0));
    } else if (std::strcmp(argv[i], "--rounds") == 0) {
      base.rounds = static_cast<uint32_t>(std::strtoul(next("--rounds"), nullptr, 0));
    } else if (std::strcmp(argv[i], "--slots-per-round") == 0) {
      base.slots_per_round =
          static_cast<uint32_t>(std::strtoul(next("--slots-per-round"), nullptr, 0));
    } else if (std::strcmp(argv[i], "--cells") == 0) {
      base.cells = static_cast<uint32_t>(std::strtoul(next("--cells"), nullptr, 0));
      if (base.cells == 0) base.cells = 1;
    } else if (std::strcmp(argv[i], "--virtual-time") == 0) {
      base.virtual_time = true;
    } else if (std::strcmp(argv[i], "--no-probe") == 0) {
      base.warm_path_probe = false;
    } else if (std::strcmp(argv[i], "--flight-dir") == 0) {
      flight_dir = next("--flight-dir");
    } else if (std::strcmp(argv[i], "--verbose") == 0 ||
               std::strcmp(argv[i], "-v") == 0) {
      verbose = true;
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      usage(argv[0]);
      return 2;
    }
  }
  if (episodes == 0) episodes = seed_given ? 1 : 25;
  // Quarantine storms are injected on purpose; keep their [WARN] lines out
  // of campaign output unless the user asked for the blow-by-blow.
  if (!verbose) set_log_level("plugin", LogLevel::kError);

  uint32_t failures = 0;
  uint64_t injections = 0;
  uint64_t anomalies = 0;
  uint64_t total_slots = 0;
  uint64_t slo_breach_windows = 0;
  uint64_t by_kind[chaos::kFaultKindCount] = {};
  // real_ns() reads wall time regardless of clock mode, so the speedup
  // report works while the episodes themselves run on virtual time.
  const uint64_t wall_t0 = waran::rt::Clock::global().real_ns();
  for (uint32_t i = 0; i < episodes; ++i) {
    chaos::EpisodeOptions opts = base;
    opts.seed = seed + i;
    const chaos::EpisodeReport r = chaos::run_episode(opts);
    injections += r.injections;
    anomalies += r.anomalies;
    total_slots += r.slots;
    for (size_t k = 0; k < chaos::kFaultKindCount; ++k) {
      by_kind[k] += r.injected_by_kind[k];
    }
    // A failing episode always dumps its full injection log — that plus the
    // seed is everything needed to replay and debug it.
    if (!r.passed) {
      ++failures;
      print_episode(r, /*with_log=*/true);
      std::printf("  replay: %s --seed %" PRIu64 " --rounds %u --slots-per-round %u"
                  " --cells %u%s\n",
                  argv[0], r.seed, opts.rounds, opts.slots_per_round, opts.cells,
                  opts.virtual_time ? " --virtual-time" : "");
    } else if (verbose || episodes == 1) {
      print_episode(r, verbose);
    }
    slo_breach_windows += r.slo_breach_windows;
    if (!flight_dir.empty() && !r.flight_bundle.empty() &&
        (!r.passed || r.slo_breaches > 0)) {
      std::string path = write_flight_bundle(flight_dir, r);
      if (!path.empty() && (verbose || !r.passed)) {
        std::printf("  flight bundle: %s\n", path.c_str());
      }
    }
  }

  const uint64_t wall_ns = waran::rt::Clock::global().real_ns() - wall_t0;

  std::printf("campaign: %u episode%s, seeds %" PRIu64 "..%" PRIu64 "\n",
              episodes, episodes == 1 ? "" : "s", seed, seed + episodes - 1);
  std::printf("  injections: %" PRIu64 "   anomalies: %" PRIu64
              "   failures: %u\n",
              injections, anomalies, failures);
  std::printf("  slo breach windows: %" PRIu64 "\n", slo_breach_windows);
  if (base.virtual_time) {
    // Episodes run at 1 simulated second per MAC slot (slot_us = 1'000'000).
    // total_slots counts every cell's slots; elapsed simulated time is the
    // per-cell slot count, since cells advance in lockstep.
    const double simulated_s =
        static_cast<double>(total_slots) / static_cast<double>(base.cells);
    const double wall_s = static_cast<double>(wall_ns) / 1e9;
    std::printf("  virtual time: %.0f simulated s in %.2f wall s (%.0fx speedup)\n",
                simulated_s, wall_s, wall_s > 0 ? simulated_s / wall_s : 0.0);
  }
  for (size_t k = 0; k < chaos::kFaultKindCount; ++k) {
    if (by_kind[k] == 0) continue;
    std::printf("  %-17s %" PRIu64 "\n",
                chaos::to_string(static_cast<chaos::FaultKind>(k)), by_kind[k]);
  }
  if (failures == 0) std::printf("OK: all invariants held\n");
  return static_cast<int>(failures);
}
