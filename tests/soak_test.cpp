// Live-heap soak (label `slow`, run by CI's heavy job): a two-cell
// deployment on virtual time runs 200,000 slots with every source of heap
// churn the runtime has — E2 every 10 slots, SLO windows, a scheduler hot
// swap every 500 slots, UE attach/detach churn and faults on the E2 links —
// and the process's live heap must not grow between slot 40,000 and the
// end. A slow leak in any per-call or per-slot structure (a cost ledger
// that keeps every sample grows by about 8 bytes per sandbox crossing)
// shows up as megabytes over the run; a flat heap moves by kilobytes.
#include <gtest/gtest.h>
#include <malloc.h>

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "obs/anomaly.h"
#include "ran/mac.h"
#include "ric/gnb_agent.h"
#include "ric/near_rt_ric.h"
#include "ric/transport.h"
#include "rt/deployment.h"
#include "sched/plugins.h"

namespace waran {
namespace {

constexpr uint64_t kSlots = 200'000;
constexpr uint64_t kMeasureFrom = 40'000;
constexpr uint64_t kSwapEvery = 500;
constexpr uint64_t kChurnEvery = 100;
// Anomaly journals are bounded; the link faults fill the RIC's and each
// agent's with rejected frames (one every few hundred slots), and with
// this bound they are full before the measured stretch, so their filling
// up is not counted as growth.
constexpr size_t kJournalRecords = 32;
// Live bytes a flat run may still move by: journal records carry strings
// of varying length, and allocator bookkeeping shifts with the order of
// frees.
constexpr int64_t kSlackBytes = 64 * 1024;

/// Bytes in use by the process's allocations: arena chunks plus mmapped
/// ones (a large buffer may move between the two as glibc adapts its mmap
/// threshold, so their sum is what stays put).
int64_t live_heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<int64_t>(mi.uordblks + mi.hblkhd);
}

/// Link faults drawn per frame: 1 frame in 16 is corrupted, dropped,
/// duplicated or held back for 1-3 later frames.
ric::Duplex::FaultStage link_faults(uint64_t seed) {
  return [rng = Xoshiro256(seed)](std::vector<uint8_t>& frame,
                                  ric::Duplex::Side) mutable -> ric::Duplex::Fault {
    const uint64_t draw = rng.next();
    if (draw % 16 != 0) return {};
    switch ((draw >> 8) % 4) {
      case 0: {
        // Flip a payload bit past the 12-byte frame header, so the comm
        // plugin rejects the frame on its checksum.
        const size_t lo = frame.size() > 12 ? 12 : 0;
        frame[lo + (draw >> 16) % (frame.size() - lo)] ^= 0x10;
        return {ric::Duplex::FaultAction::kCorrupt};
      }
      case 1:
        return {ric::Duplex::FaultAction::kDrop};
      case 2:
        return {ric::Duplex::FaultAction::kDuplicate};
      default:
        return {ric::Duplex::FaultAction::kReorder, static_cast<uint32_t>(1 + (draw >> 16) % 3)};
    }
  };
}

/// Detaches the oldest UE of `slice_id` and attaches a new one to it.
void churn_one_ue(ran::GnbMac& mac, uint32_t slice_id, uint64_t seed) {
  for (uint32_t rnti : mac.ue_rntis()) {
    if (mac.ue(rnti)->slice_id() != slice_id) continue;
    ASSERT_TRUE(mac.remove_ue(rnti).ok());
    break;
  }
  ran::Channel::FadingParams fading;
  fading.mean_snr_db = 14.0 + static_cast<double>(seed % 8);
  mac.add_ue(slice_id, ran::Channel::fading(fading, seed), ran::TrafficSource::full_buffer());
}

TEST(MemorySoak, LiveHeapStaysFlatOverTwoHundredThousandSlots) {
  rt::DeploymentConfig cfg;
  cfg.cells = 2;
  cfg.seed = 11;
  cfg.threaded = false;
  cfg.virtual_time = true;
  cfg.report_period_slots = 10;
  cfg.slo_window_slots = 1000;
  cfg.admission = analysis::AdmissionMode::kEnforce;
  rt::GnbDeployment dep(cfg);
  ASSERT_TRUE(dep.status().ok()) << dep.status().error().message;
  for (uint32_t c = 0; c < dep.cells(); ++c) dep.link(c).add_fault_stage(link_faults(c + 1));
  std::vector<obs::AnomalyJournal*> frame_journals = {&dep.ric().plugins().journal()};
  for (uint32_t c = 0; c < dep.cells(); ++c) {
    frame_journals.push_back(&dep.agent(c).plugins().journal());
  }
  for (obs::AnomalyJournal* j : frame_journals) j->set_capacity(kJournalRecords);

  const std::array<const char*, 3> kinds = {"rr", "pf", "mt"};
  std::vector<std::vector<uint8_t>> modules;
  for (const char* kind : kinds) {
    auto bytes = sched::plugins::scheduler(kind);
    ASSERT_TRUE(bytes.ok());
    modules.push_back(std::move(*bytes));
  }

  int64_t heap_at_measure = 0;
  uint64_t swaps = 0, churns = 0;
  for (uint64_t slot = 0; slot < kSlots; ++slot) {
    if (slot == kMeasureFrom) heap_at_measure = live_heap_bytes();
    if (slot % kSwapEvery == kSwapEvery / 2) {
      const rt::SliceSpec& slice = cfg.slices[swaps % cfg.slices.size()];
      const uint32_t cell = static_cast<uint32_t>(swaps % dep.cells());
      ASSERT_TRUE(dep.sched_plugins(cell).swap(slice.name, modules[swaps % modules.size()]).ok());
      ++swaps;
    }
    if (slot % kChurnEvery == 0) {
      const uint32_t cell = static_cast<uint32_t>(churns % dep.cells());
      const uint32_t slice_id = cfg.slices[(churns / dep.cells()) % cfg.slices.size()].slice_id;
      churn_one_ue(dep.mac(cell), slice_id, churns);
      ++churns;
    }
    ASSERT_TRUE(dep.run_slots(1).ok());
  }
  const int64_t growth = live_heap_bytes() - heap_at_measure;
  for (const obs::AnomalyJournal* j : frame_journals) {
    EXPECT_GT(j->total(), kJournalRecords);
  }

  // The run did what it claims: the E2 loop turned and lost frames to the
  // injected faults only, never to a full queue.
  EXPECT_GT(dep.ric().stats().indications_processed, kSlots / 10);
  EXPECT_GT(dep.ric().stats().frames_rejected, 0u);
  for (uint32_t c = 0; c < dep.cells(); ++c) {
    const ric::Duplex& link = dep.link(c);
    EXPECT_GT(link.frames_dropped(), 0u);
    EXPECT_EQ(link.frames_overflowed(), 0u);
    EXPECT_EQ(dep.mac(c).ue_count(), 6u);
  }
  EXPECT_LE(growth, kSlackBytes) << "live heap grew by " << growth << " bytes from slot "
                                 << kMeasureFrom << " to " << kSlots;
}

}  // namespace
}  // namespace waran
