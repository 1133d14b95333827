// End-to-end acceptance tests for the telemetry subsystem: the Chrome-trace
// export of an EM3D-style failover run (nested runtime spans over the
// simulator's virtual timeline), the Timeof prediction-accuracy regression
// (mean relative error < 25% for both paper applications), runtime metric
// wiring, and the RuntimeConfig telemetry sinks.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/em3d/app.hpp"
#include "apps/matmul/app.hpp"
#include "hmpi/hmpi_c.hpp"
#include "hmpi/runtime.hpp"
#include "hnoc/cluster.hpp"
#include "mpsim/trace.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prediction.hpp"
#include "telemetry/span.hpp"

namespace hmpi {
namespace {

using mp::Proc;
using mp::World;
using pmdl::InstanceBuilder;
using pmdl::Model;
using pmdl::ParamValue;
using pmdl::ScheduleSink;
using telemetry::JsonValue;

/// Compute-only model: p abstract processors, volumes[a] units each, all in
/// parallel; parent is abstract 0 (same shape as runtime_test.cpp).
Model compute_model() {
  return Model::from_factory(
      "compute", 1, [](std::span<const ParamValue> params) {
        const auto& volumes = std::get<std::vector<long long>>(params[0]);
        InstanceBuilder b("compute");
        const auto p = static_cast<long long>(volumes.size());
        b.shape({p});
        for (int a = 0; a < p; ++a) {
          b.node_volume(a, static_cast<double>(volumes[static_cast<std::size_t>(a)]));
        }
        b.scheme([p](ScheduleSink& s) {
          s.par_begin();
          for (long long a = 0; a < p; ++a) {
            s.par_iter_begin();
            const long long c[1] = {a};
            s.compute(c, 100.0);
          }
          s.par_end();
        });
        return b.build();
      });
}

std::vector<ParamValue> volumes(int p) {
  return {pmdl::array(std::vector<long long>(static_cast<std::size_t>(p), 10))};
}

TEST(Observability, FailoverTraceExportsNestedSpans) {
  // A failover run (the GroupRespawnAfterMemberDeath scenario): three
  // members exchange in a ring, rank 1 dies, the survivors respawn a
  // two-member group. The host exports the combined Chrome trace, which
  // must contain nested runtime spans (recon, group_create, mapper:*) on
  // the wall-clock pid plus the simulator's virtual-time events.
  telemetry::spans().clear();
  mp::Tracer tracer;
  World::Options options;
  options.tracer = &tracer;
  options.faults.crashes.push_back({1, 1.0});
  Model model = compute_model();
  std::string exported;
  std::atomic<int> failures{0};
  World::run_one_per_processor(
      hnoc::testbeds::homogeneous(3, 100.0),
      [&](Proc& p) {
        Runtime rt(p);
        rt.recon([](Proc& q) { q.compute(1.0); });
        auto group = rt.group_create(model, volumes(3));
        ASSERT_TRUE(group.has_value());

        const mp::Comm& comm = group->comm();
        const int next = (group->rank() + 1) % group->size();
        const int prev = (group->rank() + group->size() - 1) % group->size();
        bool failed = false;
        try {
          for (int i = 0; i < 1000; ++i) {
            p.compute(1.0);  // rank 1's clock crosses t=1.0 in here
            comm.send_value(i, next, 1);
            comm.recv_value<int>(prev, 1);
          }
        } catch (const PeerFailedError&) {
          failed = true;
        } catch (const RevokedError&) {
          failed = true;
        }
        ASSERT_TRUE(failed);
        failures.fetch_add(1);

        auto rebuilt = rt.group_respawn(*group, model, volumes(2));
        ASSERT_TRUE(rebuilt.has_value());
        EXPECT_EQ(rebuilt->size(), 2);
        rt.group_free(*rebuilt);
        if (rt.is_host()) {
          std::ostringstream os;
          rt.trace_export_json(os);
          exported = os.str();
        }
        rt.finalize();
      },
      options);
  EXPECT_EQ(failures.load(), 2);

  std::string error;
  const auto doc = telemetry::parse_json(exported, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const JsonValue* trace = doc->find("traceEvents");
  ASSERT_NE(trace, nullptr);
  ASSERT_TRUE(trace->is_array());
  ASSERT_FALSE(trace->array.empty());

  // Index runtime spans by id; track per-(pid,tid) ts monotonicity as we go.
  std::map<double, std::string> name_by_id;
  std::map<std::pair<double, double>, double> last_ts;
  bool saw_virtual = false;
  for (const JsonValue& e : trace->array) {
    if (e.find("ph")->string == "M") continue;
    const double pid = e.find("pid")->number;
    const double tid = e.find("tid")->number;
    const double ts = e.find("ts")->number;
    const auto [it, fresh] = last_ts.try_emplace({pid, tid}, ts);
    if (!fresh) {
      EXPECT_GE(ts, it->second) << "ts regressed on pid " << pid << " tid " << tid;
      it->second = ts;
    }
    if (pid == telemetry::kVirtualPid) saw_virtual = true;
    if (pid != telemetry::kRuntimePid) continue;
    const JsonValue* args = e.find("args");
    if (args == nullptr) continue;
    const JsonValue* id = args->find("id");
    if (id != nullptr) name_by_id[id->number] = e.find("name")->string;
  }
  EXPECT_TRUE(saw_virtual);  // the tracer's compute/send timeline rode along

  // The span names the failover path must produce.
  std::map<std::string, int> span_count;
  bool mapper_nested_in_group_create = false;
  bool group_create_nested_in_respawn = false;
  for (const JsonValue& e : trace->array) {
    if (e.find("ph")->string == "M") continue;
    if (e.find("pid")->number != telemetry::kRuntimePid) continue;
    const std::string& name = e.find("name")->string;
    span_count[name] += 1;
    const JsonValue* parent = e.find("args")->find("parent");
    if (parent == nullptr) continue;
    const auto parent_name = name_by_id.find(parent->number);
    if (parent_name == name_by_id.end()) continue;
    if (name.rfind("mapper:", 0) == 0 && parent_name->second == "group_create") {
      mapper_nested_in_group_create = true;
    }
    if (name == "group_create" && parent_name->second == "group_respawn") {
      group_create_nested_in_respawn = true;
    }
  }
  EXPECT_GE(span_count["recon"], 1);
  EXPECT_GE(span_count["group_create"], 1);
  EXPECT_GE(span_count["group_respawn"], 1);
  EXPECT_TRUE(mapper_nested_in_group_create);
  EXPECT_TRUE(group_create_nested_in_respawn);
}

TEST(Observability, PredictionErrorStaysUnder25Percent) {
  // The paper's core claim, asserted: Timeof-derived makespan predictions
  // for both paper applications land within 25% (mean) of the measured
  // simulated execution time.
  telemetry::predictions().clear();
  {
    hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
    apps::em3d::GeneratorConfig config;
    config.nodes_per_subbody = {400, 500, 700, 550, 650, 600, 800, 100, 205};
    config.degree = 4;
    config.remote_fraction = 0.05;
    config.seed = 11;
    auto result = apps::em3d::run_hmpi(cluster, config, 4,
                                       apps::em3d::WorkMode::kVirtualOnly, 100);
    ASSERT_GT(result.algorithm_time, 0.0);
  }
  {
    hnoc::Cluster cluster = hnoc::testbeds::paper_mm_network();
    apps::matmul::MmDriverConfig config;
    config.m = 3;
    config.r = 8;
    config.n = 18;
    config.l = 9;
    config.mode = apps::matmul::WorkMode::kVirtualOnly;
    auto result = apps::matmul::run_hmpi(cluster, config);
    ASSERT_GT(result.algorithm_time, 0.0);
  }

  const double em3d_error = HMPI_Prediction_error("Em3d");
  const double matmul_error = HMPI_Prediction_error("ParallelAxB");
  ASSERT_TRUE(std::isfinite(em3d_error));
  ASSERT_TRUE(std::isfinite(matmul_error));
  EXPECT_LT(em3d_error, 0.25);
  EXPECT_LT(matmul_error, 0.25);
  // The all-models aggregate is finite too (what a dashboard would chart).
  EXPECT_TRUE(std::isfinite(HMPI_Prediction_error()));

  const auto summary = telemetry::predictions().summary();
  ASSERT_EQ(summary.size(), 2u);
  EXPECT_EQ(summary[0].model, "Em3d");
  EXPECT_EQ(summary[1].model, "ParallelAxB");
  for (const auto& entry : summary) {
    EXPECT_GE(entry.samples, 1);
    EXPECT_GE(entry.max_rel_error, entry.mean_rel_error);
  }
}

TEST(Observability, RuntimeCountersAndSinkFiles) {
  // Runtime operations move the process-wide counters (diffed, because the
  // registry accumulates across tests), and the host's finalize writes the
  // configured sink files as parseable JSON.
  const auto before = telemetry::metrics().snapshot();
  const std::string metrics_path = ::testing::TempDir() + "obs_metrics.json";
  const std::string trace_path = ::testing::TempDir() + "obs_trace.json";
  std::remove(metrics_path.c_str());
  std::remove(trace_path.c_str());

  RuntimeConfig config;
  config.telemetry.metrics_json = metrics_path;
  config.telemetry.trace_json = trace_path;
  Model model = compute_model();
  World::run_one_per_processor(
      hnoc::testbeds::homogeneous(3, 100.0), [&](Proc& p) {
        Runtime rt(p, config);
        rt.recon([](Proc& q) { q.compute(1.0); });
        if (rt.is_host()) (void)rt.timeof(model, volumes(3));
        auto group = rt.group_create(model, volumes(3));
        if (group.has_value() && group->valid()) rt.group_free(*group);
        rt.finalize();
      });

  const auto after = telemetry::metrics().snapshot();
  const auto delta = [&](const char* name) {
    return after.counter_value(name) - before.counter_value(name);
  };
  EXPECT_GE(delta("recons"), 1.0);
  EXPECT_GE(delta("timeof_calls"), 1.0);
  EXPECT_GE(delta("groups_created"), 1.0);
  EXPECT_GE(delta("mapper_searches"), 2.0);  // timeof + group_create
  EXPECT_GT(delta("estimator_evaluations"), 0.0);
  // Simulated machine activity lands in per-machine counters.
  EXPECT_GT(delta("machine.0.compute_seconds"), 0.0);

  std::ifstream metrics_in(metrics_path);
  ASSERT_TRUE(metrics_in.good()) << "host finalize did not write " << metrics_path;
  std::stringstream metrics_buf;
  metrics_buf << metrics_in.rdbuf();
  std::string error;
  const auto metrics_doc = telemetry::parse_json(metrics_buf.str(), &error);
  ASSERT_TRUE(metrics_doc.has_value()) << error;
  EXPECT_NE(metrics_doc->find("counters"), nullptr);
  EXPECT_GE(metrics_doc->find("counters")->find("recons")->number, 1.0);

  std::ifstream trace_in(trace_path);
  ASSERT_TRUE(trace_in.good()) << "host finalize did not write " << trace_path;
  std::stringstream trace_buf;
  trace_buf << trace_in.rdbuf();
  const auto trace_doc = telemetry::parse_json(trace_buf.str(), &error);
  ASSERT_TRUE(trace_doc.has_value()) << error;
  const JsonValue* events = trace_doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_TRUE(events->is_array());
  EXPECT_FALSE(events->array.empty());

  std::remove(metrics_path.c_str());
  std::remove(trace_path.c_str());
}

TEST(Observability, CApiMetricsDumpIsValidJson) {
  std::ostringstream os;
  HMPI_Metrics_dump(os);
  std::string error;
  const auto doc = telemetry::parse_json(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_NE(doc->find("counters"), nullptr);
  EXPECT_NE(doc->find("gauges"), nullptr);
  EXPECT_NE(doc->find("histograms"), nullptr);
}

}  // namespace
}  // namespace hmpi
