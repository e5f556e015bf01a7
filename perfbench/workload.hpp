// Workload inputs of the failure-to-restored benchmark: the instance (the
// topology and the demand set, fixed per workload), and the link-state
// event stream generated from the workload seed. The service under test
// sees only these generated inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/base_set.hpp"
#include "core/restoration.hpp"
#include "graph/failure.hpp"
#include "graph/graph.hpp"
#include "lsdb/lsdb.hpp"
#include "service/service.hpp"
#include "spf/oracle.hpp"

namespace perfbench {

using rbpc::graph::EdgeId;
using rbpc::graph::FailureMask;
using rbpc::graph::Graph;

/// One workload's shape. The reasons each exists are in README.md.
struct WorkloadSpec {
  std::string name;
  bool internet = false;  ///< Internet stand-in instead of the ISP one
  std::size_t demands = 0;
  bool storm = false;     ///< chaos storm windows instead of flap cycles
  bool persist = false;   ///< durable store at its default settings
};

/// The named workload; `tiny` shrinks the graph and demand count to
/// corpus size for the smoke test. Throws std::invalid_argument on an
/// unknown name.
WorkloadSpec workload_spec(const std::string& name, bool tiny);

/// The workload's fixed instance, the same for every seed: its Table-1
/// stand-in topology and its demand set (random node pairs).
Graph make_topology(const WorkloadSpec& spec, bool tiny);
std::vector<rbpc::service::Demand> make_demands(const WorkloadSpec& spec,
                                                const Graph& g);

/// The LSAs of one event: a single link transition for the flap cycles,
/// one transition window of a storm. The benchmark ingests a window's LSAs
/// in order and then quiesces the service.
struct Window {
  std::vector<rbpc::lsdb::LinkEvent> lsas;
};

/// Deterministic, unbounded stream of windows for one workload.
class EventSource {
 public:
  virtual ~EventSource() = default;
  virtual Window next() = 0;
};

/// The stream for `spec`. Flap cycles pick links from `route_edges` (the
/// links the baseline routes use, so every failure reroutes something).
std::unique_ptr<EventSource> make_event_source(
    const WorkloadSpec& spec, const Graph& g,
    const std::vector<EdgeId>& route_edges, bool tiny, std::uint64_t seed);

/// Ground truth of the LSDB view: the serial newest-wins application of
/// every LSA ingested so far (generation 0 always applies; an equal or
/// lower generation is discarded).
class ViewModel {
 public:
  explicit ViewModel(std::size_t num_edges)
      : down_(num_edges, 0), generation_(num_edges, 0) {}

  /// Applies one LSA; returns whether it changed ownership of the view.
  bool apply(const rbpc::lsdb::LinkEvent& ev);
  bool down(EdgeId e) const { return down_[e] != 0; }
  std::uint64_t generation(EdgeId e) const { return generation_[e]; }
  FailureMask mask() const;
  std::size_t num_down() const { return num_down_; }
  std::uint64_t applied() const { return applied_; }
  std::uint64_t discarded() const { return discarded_; }

 private:
  std::vector<char> down_;
  std::vector<std::uint64_t> generation_;
  std::size_t num_down_ = 0;
  std::uint64_t applied_ = 0;
  std::uint64_t discarded_ = 0;
};

/// The serial reference every checked route is compared against:
/// core::source_rbpc_restore over its own canonical base set, the same
/// reference service_churn uses. Results are memoised per (failure mask,
/// demand): the reference is a pure function of both. The returned
/// reference is valid until the next call. `broken` makes it
/// ignore the failure mask, which the smoke test uses to prove the
/// correctness gate trips.
class Reference {
 public:
  Reference(const Graph& g, rbpc::spf::Metric metric, bool broken);

  const rbpc::core::Restoration& restore(
      std::size_t demand, const rbpc::service::Demand& d,
      const FailureMask& mask);

 private:
  rbpc::spf::DistanceOracle oracle_;
  rbpc::core::CanonicalBaseSet base_;
  bool broken_;
  std::map<std::vector<EdgeId>,
           std::unordered_map<std::size_t, rbpc::core::Restoration>>
      memo_;
};

}  // namespace perfbench
