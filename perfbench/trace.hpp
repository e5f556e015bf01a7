// Per-layer attribution of the traced run.
//
// Two sources, both read off the clock after each window has quiesced:
//
//  * in-service stages: the obs::RerouteRecord stamps (enqueue, start,
//    snapshot, spf, decompose, install, done) of every reroute the window
//    caused, read through FlightRecorder::collect(), plus process-wide
//    registry counter deltas (spf.*, cache.*, pool.view_*) and
//    ServiceStats deltas;
//  * uncontended layer costs: a serial replay of the window's work through
//    the layers' public functions (ShardedLsdb::apply/snapshot/to_mask,
//    SnapshotTreePool::cache_for + TreeCache::tree, path_to,
//    core::greedy_decompose over a CanonicalBaseSet/DistanceOracle and
//    persist::PersistentStore::append), with spans timed here.
//
// Each window splits exactly into ingest (first ingest() call to the end of
// the last), the critical-path stages (the stamps of the last reroute to
// finish, clipped to after ingest) and the unattributed rest (worker idle
// sleep, the quiesce() poll, and work before a revalidated pass).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/base_set.hpp"
#include "graph/graph.hpp"
#include "persist/io.hpp"
#include "persist/store.hpp"
#include "service/service.hpp"
#include "service/sharded_lsdb.hpp"
#include "spf/oracle.hpp"
#include "spf/tree_pool.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

/// Process-wide registry counters and service counters at one instant.
struct CounterSnapshot {
  std::uint64_t relaxations = 0;
  std::uint64_t heap_pops = 0;
  std::uint64_t tree_hit = 0;
  std::uint64_t tree_repaired = 0;
  std::uint64_t tree_scratch = 0;  ///< scratch SPF plus repair fallbacks
  std::uint64_t view_hit = 0;
  std::uint64_t view_create = 0;
  rbpc::service::ServiceStats stats;
};

CounterSnapshot take_counters(const rbpc::service::RestorationService& svc);

/// One quiesced window as the benchmark measured it (steady-clock ns, the
/// obs::now_ns() time base the RerouteRecords use).
struct WindowTiming {
  std::uint64_t start_ns = 0;       ///< first ingest() call began
  std::uint64_t ingest_end_ns = 0;  ///< last ingest() call returned
  std::uint64_t end_ns = 0;         ///< quiesce() returned
  std::vector<std::uint64_t> ingest_call_ns;  ///< duration of each call
};

class LayerTrace {
 public:
  /// `replay_store_dir` holds the replayed WAL when the workload is
  /// durable; it is wiped first.
  LayerTrace(const Graph& g, const std::vector<rbpc::service::Demand>& demands,
             const WorkloadSpec& spec, const rbpc::service::ServiceOptions& so,
             std::size_t workers, std::string replay_store_dir);
  ~LayerTrace();

  LayerTrace(const LayerTrace&) = delete;
  LayerTrace& operator=(const LayerTrace&) = delete;

  /// Attributes one window and replays its work serially.
  void on_window(const rbpc::service::RestorationService& svc, const Window& w,
                 const WindowTiming& t, const CounterSnapshot& before,
                 const CounterSnapshot& after);

  /// A verified route installed after a failure (paper Table 2 quality).
  void on_restored_route(std::size_t pc_length);

  /// Replays the constructor's provisioning loop (baseline SPF, then
  /// decomposition, per demand) on fresh caches.
  void replay_setup();

  /// Writes every per-layer metric; `trace_overhead_pct` compares this run's
  /// converge_iqm_ms with the untraced one.
  void emit(MetricSet& out, double trace_overhead_pct) const;

  /// Sample count behind each per-layer quantile, as a JSON object.
  std::string sample_counts_json() const;

 private:
  void replay(const rbpc::service::RestorationService& svc, const Window& w,
              const std::vector<rbpc::obs::RerouteRecord>& records);

  const Graph& g_;
  const std::vector<rbpc::service::Demand>& demands_;
  rbpc::spf::Metric metric_;
  std::size_t max_views_;
  std::size_t workers_;

  // Replay state: a private copy of each layer the service runs.
  rbpc::service::ShardedLsdb lsdb_;
  rbpc::spf::SnapshotTreePool pool_;
  rbpc::spf::DistanceOracle oracle_;
  rbpc::core::CanonicalBaseSet base_;
  rbpc::persist::FileIo io_;
  std::string store_dir_;
  bool sync_each_record_;
  std::uint64_t snapshot_every_;
  std::unique_ptr<rbpc::persist::PersistentStore> store_;

  // Samples (microseconds unless named otherwise).
  std::vector<double> ingest_us_, queue_wait_us_, snapshot_us_, tree_us_,
      decompose_us_, install_us_, unattributed_us_;
  std::vector<double> apply_replay_us_, tree_replay_us_, decompose_replay_us_,
      lock_wait_us_, append_replay_us_;
  std::vector<double> pc_length_;

  std::uint64_t windows_ = 0;
  std::uint64_t window_ns_ = 0;
  std::uint64_t unattributed_ns_ = 0;
  std::uint64_t busy_ns_ = 0;
  std::uint64_t append_replay_ns_ = 0;
  std::uint64_t attribution_violations_ = 0;
  std::uint64_t lsas_ = 0;
  std::uint64_t oracle_spf_runs_ = 0;
  CounterSnapshot delta_;  ///< summed per-window deltas
  double setup_spf_s_ = 0.0;
  double setup_decompose_s_ = 0.0;
};

}  // namespace perfbench
