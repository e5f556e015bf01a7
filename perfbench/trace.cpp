#include "trace.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "core/decompose.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using rbpc::obs::RerouteRecord;
using rbpc::service::RestorationService;

namespace {

std::uint64_t counter(const char* name) {
  return rbpc::obs::MetricsRegistry::global().counter(name).value();
}

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Signed difference in microseconds.
double us_diff(std::uint64_t a, std::uint64_t b) {
  return (static_cast<double>(a) - static_cast<double>(b)) / 1e3;
}

/// A record's stage boundaries in order. An unreachable destination skips
/// decomposition (decompose_ns == 0); its decompose stage is then empty.
std::array<std::uint64_t, 7> stage_marks(const RerouteRecord& r) {
  const std::uint64_t decompose = r.decompose_ns != 0 ? r.decompose_ns
                                                      : r.spf_ns;
  return {r.enqueue_ns, r.start_ns, r.snapshot_ns, r.spf_ns,
          decompose,    r.install_ns, r.done_ns};
}

/// The store's first snapshot: a replay store holds WAL records only.
rbpc::persist::SnapshotState empty_state(const Graph& g) {
  rbpc::persist::SnapshotState s;
  s.num_edges = static_cast<std::uint32_t>(g.num_edges());
  return s;
}

}  // namespace

CounterSnapshot take_counters(const RestorationService& svc) {
  CounterSnapshot c;
  c.relaxations = counter("spf.relaxations");
  c.heap_pops = counter("spf.heap.pops");
  c.tree_hit = counter("cache.hit");
  c.tree_repaired = counter("cache.repair");
  c.tree_scratch = counter("cache.scratch") + counter("cache.repair_fallback");
  c.view_hit = counter("pool.view_hit");
  c.view_create = counter("pool.view_create");
  c.stats = svc.stats();
  return c;
}

LayerTrace::LayerTrace(const Graph& g,
                       const std::vector<rbpc::service::Demand>& demands,
                       const WorkloadSpec& spec,
                       const rbpc::service::ServiceOptions& so,
                       std::size_t workers, std::string replay_store_dir)
    : g_(g),
      demands_(demands),
      metric_(so.metric),
      max_views_(so.max_views),
      workers_(workers),
      lsdb_(g.num_edges(), so.shards),
      pool_(g, rbpc::spf::SpfOptions{.metric = so.metric, .padded = true},
            rbpc::spf::TreePoolOptions{.max_views = so.max_views}),
      oracle_(g, FailureMask{}, so.metric),
      base_(oracle_),
      store_dir_(std::move(replay_store_dir)),
      sync_each_record_(so.persist.sync_each_record),
      snapshot_every_(so.persist.snapshot_every) {
  if (spec.persist) {
    rbpc::persist::PersistentStore::wipe(io_, store_dir_);
    store_ = std::make_unique<rbpc::persist::PersistentStore>(
        io_, rbpc::persist::StoreOptions{store_dir_, sync_each_record_});
    store_->recover();
    store_->rotate(empty_state(g_));
  }
}

LayerTrace::~LayerTrace() {
  if (store_ != nullptr) {
    store_.reset();
    rbpc::persist::PersistentStore::wipe(io_, store_dir_);
  }
}

void LayerTrace::on_window(const RestorationService& svc, const Window& w,
                           const WindowTiming& t,
                           const CounterSnapshot& before,
                           const CounterSnapshot& after) {
  ++windows_;
  lsas_ += w.lsas.size();
  for (const std::uint64_t ns : t.ingest_call_ns) ingest_us_.push_back(us(ns));

  // This window's reroutes: the worker rings' records that finished inside
  // it (queue-full deferrals land in the control ring and are counted by
  // ServiceStats instead).
  std::vector<RerouteRecord> records;
  for (const RerouteRecord& r : svc.flight_recorder().collect()) {
    if (r.worker < workers_ && r.done_ns >= t.start_ns &&
        r.done_ns <= t.end_ns) {
      records.push_back(r);
    }
  }
  // The ring is sized to hold a whole window; a short count means records
  // were overwritten and the attribution below is incomplete.
  if (records.size() != after.stats.reroutes - before.stats.reroutes) {
    ++attribution_violations_;
  }

  const RerouteRecord* last = nullptr;
  for (const RerouteRecord& r : records) {
    const auto m = stage_marks(r);
    if (!std::is_sorted(m.begin(), m.end()) || m.front() < t.start_ns) {
      ++attribution_violations_;
      continue;
    }
    queue_wait_us_.push_back(us(r.start_ns - r.enqueue_ns));
    snapshot_us_.push_back(us(r.snapshot_ns - r.start_ns));
    tree_us_.push_back(us(r.spf_ns - r.snapshot_ns));
    if (r.decompose_ns != 0) {
      decompose_us_.push_back(us(r.decompose_ns - r.spf_ns));
      install_us_.push_back(us(r.install_ns - r.decompose_ns));
    }
    busy_ns_ += r.done_ns - r.start_ns;
    if (last == nullptr || r.done_ns > last->done_ns) last = &r;
  }

  // window = ingest + critical-path stages + unattributed, exactly: the
  // stages are disjoint intervals clipped to (ingest end, quiesce end].
  const std::uint64_t window = t.end_ns - t.start_ns;
  const std::uint64_t ingest = t.ingest_end_ns - t.start_ns;
  std::uint64_t stages = 0;
  if (last != nullptr) {
    const auto m = stage_marks(*last);
    for (std::size_t i = 0; i + 1 < m.size(); ++i) {
      const std::uint64_t lo = std::max(m[i], t.ingest_end_ns);
      const std::uint64_t hi = std::min(m[i + 1], t.end_ns);
      if (hi > lo) stages += hi - lo;
    }
  }
  if (ingest + stages > window) {
    ++attribution_violations_;
  } else {
    const std::uint64_t rest = window - ingest - stages;
    unattributed_ns_ += rest;
    unattributed_us_.push_back(us(rest));
  }
  window_ns_ += window;

  delta_.relaxations += after.relaxations - before.relaxations;
  delta_.heap_pops += after.heap_pops - before.heap_pops;
  delta_.tree_hit += after.tree_hit - before.tree_hit;
  delta_.tree_repaired += after.tree_repaired - before.tree_repaired;
  delta_.tree_scratch += after.tree_scratch - before.tree_scratch;
  delta_.view_hit += after.view_hit - before.view_hit;
  delta_.view_create += after.view_create - before.view_create;
  auto& s = delta_.stats;
  const auto& a = after.stats;
  const auto& b = before.stats;
  s.events_applied += a.events_applied - b.events_applied;
  s.events_discarded += a.events_discarded - b.events_discarded;
  s.reroutes += a.reroutes - b.reroutes;
  s.installs += a.installs - b.installs;
  s.revalidations += a.revalidations - b.revalidations;
  s.deferred += a.deferred - b.deferred;
  s.wal_appends += a.wal_appends - b.wal_appends;
  s.wal_bytes += a.wal_bytes - b.wal_bytes;
  s.persist_snapshots += a.persist_snapshots - b.persist_snapshots;

  std::sort(records.begin(), records.end(),
            [](const RerouteRecord& x, const RerouteRecord& y) {
              return x.done_ns < y.done_ns;
            });
  replay(svc, w, records);
}

void LayerTrace::replay(const RestorationService& svc, const Window& w,
                        const std::vector<RerouteRecord>& records) {
  using rbpc::obs::now_ns;
  const auto append = [this](const rbpc::persist::WalRecord& rec) {
    const std::uint64_t a = now_ns();
    store_->append(rec);
    const std::uint64_t ns = now_ns() - a;
    append_replay_us_.push_back(us(ns));
    append_replay_ns_ += ns;
  };

  for (const rbpc::lsdb::LinkEvent& ev : w.lsas) {
    const std::uint64_t a = now_ns();
    const bool applied = lsdb_.apply(ev);
    apply_replay_us_.push_back(us(now_ns() - a));
    if (applied && store_ != nullptr) {
      rbpc::persist::WalRecord rec;
      rec.type = rbpc::persist::WalType::kLinkEvent;
      rec.link = ev;
      append(rec);
    }
  }
  const FailureMask mask = lsdb_.snapshot().to_mask();

  const std::size_t spf_runs_before = oracle_.spf_runs();
  for (const RerouteRecord& r : records) {
    const rbpc::service::Demand& d = demands_[r.demand];
    const std::uint64_t a = now_ns();
    std::shared_ptr<rbpc::spf::TreeCache> view;
    std::shared_ptr<const rbpc::spf::ShortestPathTree> tree;
    if (mask.empty()) {
      tree = pool_.base().tree(d.src);
    } else {
      view = pool_.cache_for(mask);
      tree = view->tree(d.src);
    }
    const std::uint64_t b = now_ns();
    tree_replay_us_.push_back(us(b - a));
    if (!tree->reachable(d.dst)) continue;
    const rbpc::graph::Path path = tree->path_to(g_, d.dst);
    rbpc::core::greedy_decompose(base_, path);
    const std::uint64_t c = now_ns();
    decompose_replay_us_.push_back(us(c - b));
    // The in-service stage is path_to + base_mu_ wait + decomposition; the
    // uncontended replay leaves the wait (plus cache-state differences).
    if (r.decompose_ns != 0) {
      lock_wait_us_.push_back(us_diff(r.decompose_ns - r.spf_ns, c - b));
    }
  }
  oracle_spf_runs_ += oracle_.spf_runs() - spf_runs_before;

  if (store_ == nullptr) return;
  for (const RerouteRecord& r : records) {
    if ((r.flags & rbpc::obs::kFlagInstalled) == 0) continue;
    const rbpc::core::Restoration route = svc.route(r.demand);
    rbpc::persist::WalRecord rec;
    rec.type = rbpc::persist::WalType::kFecInstall;
    rec.fec.demand = r.demand;
    rec.fec.stamp = r.snapshot_version;
    rec.fec.nodes.assign(route.backup.nodes().begin(),
                         route.backup.nodes().end());
    rec.fec.edges.assign(route.backup.edges().begin(),
                         route.backup.edges().end());
    append(rec);
  }
  // Rotation is the service's maintenance-thread work, not the append
  // path's; it only keeps the replay WAL bounded here.
  if (store_->records_since_rotate() >= snapshot_every_) {
    store_->rotate(empty_state(g_));
  }
}

void LayerTrace::on_restored_route(std::size_t pc_length) {
  pc_length_.push_back(static_cast<double>(pc_length));
}

void LayerTrace::replay_setup() {
  rbpc::spf::SnapshotTreePool pool(
      g_, rbpc::spf::SpfOptions{.metric = metric_, .padded = true},
      rbpc::spf::TreePoolOptions{.max_views = max_views_});
  rbpc::spf::DistanceOracle oracle(g_, FailureMask{}, metric_);
  rbpc::core::CanonicalBaseSet base(oracle);
  std::uint64_t spf_ns = 0;
  std::uint64_t decompose_ns = 0;
  for (const rbpc::service::Demand& d : demands_) {
    const std::uint64_t a = rbpc::obs::now_ns();
    auto tree = pool.base().tree(d.src);
    const std::uint64_t b = rbpc::obs::now_ns();
    spf_ns += b - a;
    if (!tree->reachable(d.dst)) continue;
    rbpc::core::greedy_decompose(base, tree->path_to(g_, d.dst));
    decompose_ns += rbpc::obs::now_ns() - b;
  }
  setup_spf_s_ = static_cast<double>(spf_ns) / 1e9;
  setup_decompose_s_ = static_cast<double>(decompose_ns) / 1e9;
}

void LayerTrace::emit(MetricSet& out, double trace_overhead_pct) const {
  const double events = static_cast<double>(windows_);
  const auto& s = delta_.stats;
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };

  out.add("service.ingest_us.p50", nearest_rank(ingest_us_, 0.5), "us");
  out.add("service.queue_wait_us.p50", nearest_rank(queue_wait_us_, 0.5), "us");
  out.add("service.queue_wait_us.p90", nearest_rank(queue_wait_us_, 0.9), "us");
  out.add("service.install_us.p50", nearest_rank(install_us_, 0.5), "us");
  out.add("service.worker_busy_share",
          ratio(n(busy_ns_), n(workers_) * n(window_ns_)), "ratio");
  out.add("service.reroutes_per_event", ratio(n(s.reroutes), events), "count");
  out.add("service.useful_ratio", ratio(n(s.installs), n(s.reroutes)), "ratio");
  out.add("service.revalidations", n(s.revalidations), "count");
  out.add("service.deferred", n(s.deferred), "count");
  out.add("service.unattributed_us.p50", nearest_rank(unattributed_us_, 0.5),
          "us");
  out.add("service.unattributed_share",
          ratio(n(unattributed_ns_), n(window_ns_)), "ratio");
  out.add("service.attribution_violations", n(attribution_violations_),
          "count");

  out.add("lsdb.apply_us.p50", nearest_rank(apply_replay_us_, 0.5), "us");
  out.add("lsdb.snapshot_us.p50", nearest_rank(snapshot_us_, 0.5), "us");
  out.add("lsdb.discard_ratio", ratio(n(s.events_discarded), n(lsas_)),
          "ratio");

  out.add("spf.tree_us.p50", nearest_rank(tree_us_, 0.5), "us");
  out.add("spf.tree_us.p90", nearest_rank(tree_us_, 0.9), "us");
  out.add("spf.tree_replay_us.p50", nearest_rank(tree_replay_us_, 0.5), "us");
  out.add("spf.outcome.hit", n(delta_.tree_hit), "count");
  out.add("spf.outcome.repaired", n(delta_.tree_repaired), "count");
  out.add("spf.outcome.scratch", n(delta_.tree_scratch), "count");
  out.add("spf.relaxations_per_event", ratio(n(delta_.relaxations), events),
          "count");
  out.add("spf.heap_pops_per_event", ratio(n(delta_.heap_pops), events),
          "count");
  out.add("spf.pool.view_hit_ratio",
          ratio(n(delta_.view_hit), n(delta_.view_hit + delta_.view_create)),
          "ratio");

  out.add("core.decompose_us.p50", nearest_rank(decompose_us_, 0.5), "us");
  out.add("core.decompose_us.p90", nearest_rank(decompose_us_, 0.9), "us");
  out.add("core.decompose_replay_us.p50",
          nearest_rank(decompose_replay_us_, 0.5), "us");
  out.add("core.decompose_lock_wait_us.p50", nearest_rank(lock_wait_us_, 0.5),
          "us");
  out.add("core.oracle_spf_runs_per_event", ratio(n(oracle_spf_runs_), events),
          "count");
  out.add("core.pc_length.mean", mean(pc_length_), "count");
  out.add("core.stack_depth.max",
          pc_length_.empty()
              ? 0.0
              : *std::max_element(pc_length_.begin(), pc_length_.end()),
          "count");

  out.add("setup.spf_s", setup_spf_s_, "s");
  out.add("setup.decompose_s", setup_decompose_s_, "s");

  out.add("persist.append_us.p50", nearest_rank(append_replay_us_, 0.5), "us");
  out.add("persist.share", ratio(n(append_replay_ns_), n(window_ns_)),
          "ratio");
  out.add("persist.wal_appends_per_event", ratio(n(s.wal_appends), events),
          "count");
  out.add("persist.wal_bytes_per_event", ratio(n(s.wal_bytes), events),
          "bytes");
  out.add("persist.rotations", n(s.persist_snapshots), "count");

  out.add("obs.trace_overhead_pct", trace_overhead_pct, "%");
}

std::string LayerTrace::sample_counts_json() const {
  const std::pair<const char*, const std::vector<double>*> series[] = {
      {"service.ingest_us", &ingest_us_},
      {"service.queue_wait_us", &queue_wait_us_},
      {"service.install_us", &install_us_},
      {"service.unattributed_us", &unattributed_us_},
      {"lsdb.apply_us", &apply_replay_us_},
      {"lsdb.snapshot_us", &snapshot_us_},
      {"spf.tree_us", &tree_us_},
      {"spf.tree_replay_us", &tree_replay_us_},
      {"core.decompose_us", &decompose_us_},
      {"core.decompose_replay_us", &decompose_replay_us_},
      {"core.decompose_lock_wait_us", &lock_wait_us_},
      {"persist.append_us", &append_replay_us_},
  };
  std::string out = "{";
  for (const auto& [name, v] : series) {
    if (out.size() > 1) out += ", ";
    out += "\"" + std::string(name) + "\": " + std::to_string(v->size());
  }
  return out + "}";
}

}  // namespace perfbench
