// The SoA batch evaluator (estimator/plan.hpp) and the estimate cache's bulk
// probes (estimator/estimate_cache.hpp): evaluate_batch must equal N
// one-at-a-time Plan::evaluate calls (the same kernel at count=1) and the
// interpreter bit for bit on arbitrary models and clusters, including the
// paper's instances at P=1000 and concurrent callers of one shared plan;
// lookup_batch/insert_batch must be interchangeable with the single-key
// calls, at any shard count.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "apps/em3d/app.hpp"
#include "apps/matmul/app.hpp"
#include "estimator/estimate_cache.hpp"
#include "estimator/estimator.hpp"
#include "estimator/fingerprint.hpp"
#include "estimator/plan.hpp"
#include "hnoc/cluster.hpp"
#include "oracle/timeline_oracle.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace hmpi::est {
namespace {

using pmdl::InstanceBuilder;
using pmdl::ModelInstance;
using pmdl::ScheduleSink;

/// Random scheme-bearing model: heterogeneous volumes, a random edge set, a
/// par block of computes, then serial compute/transfer phases over the
/// edges — exercises every op kind the batch evaluator prices.
ModelInstance random_scheme_model(support::Rng& rng, int p) {
  InstanceBuilder b("batch-rand");
  b.shape({p});
  std::vector<std::pair<long long, long long>> edges;
  for (int a = 0; a < p; ++a) {
    b.node_volume(a, 1.0 + rng.next_double() * 100.0);
    const auto to = static_cast<long long>(
        rng.next_below(static_cast<std::uint64_t>(p)));
    if (to != a) {
      b.link(a, static_cast<int>(to), 1e4 + rng.next_double() * 1e5);
      edges.push_back({a, to});
    }
  }
  const int phases = 1 + static_cast<int>(rng.next_below(3));
  b.scheme([p, phases, edges](ScheduleSink& s) {
    for (int phase = 0; phase < phases; ++phase) {
      s.par_begin();
      for (long long a = 0; a < p; ++a) {
        s.par_iter_begin();
        const long long c[1] = {a};
        s.compute(c, 10.0 + static_cast<double>(a));
      }
      s.par_end();
      for (const auto& [src, dst] : edges) {
        const long long from[1] = {src}, to[1] = {dst};
        s.transfer(from, to, 50.0 + static_cast<double>(phase));
      }
    }
  });
  return b.build();
}

/// Model with volumes and links but no scheme: the estimator's fallback
/// path, which the batch evaluator must reproduce too.
ModelInstance fallback_model(support::Rng& rng, int p) {
  InstanceBuilder b("batch-fallback");
  b.shape({p});
  for (int a = 0; a < p; ++a) {
    b.node_volume(a, 1.0 + rng.next_double() * 100.0);
    b.link(a, (a + 1) % p, 1e4 + rng.next_double() * 1e5);
  }
  return b.build();
}

/// Random heterogeneous cluster with a few per-pair link overrides.
hnoc::Cluster random_cluster(support::Rng& rng, int machines) {
  hnoc::ClusterBuilder b;
  for (int i = 0; i < machines; ++i) {
    b.add(std::string("m").append(std::to_string(i)), 10.0 + rng.next_double() * 150.0);
  }
  b.network(1e-4 + rng.next_double() * 1e-3, 1e6 + rng.next_double() * 1e8);
  b.shared_memory(5e-6, 1e9);
  for (int k = 0; k < machines / 2; ++k) {
    const int from = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(machines)));
    const int to = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(machines)));
    if (from != to) {
      b.link_override(from, to, 5e-4, 2e6 + rng.next_double() * 1e7);
    }
  }
  return b.build();
}

void expect_batch_matches_singles(const ModelInstance& instance,
                                  const hnoc::NetworkModel& net,
                                  support::Rng& rng, std::size_t count) {
  const Plan plan(instance);
  const auto p = static_cast<std::size_t>(instance.size());
  const EstimateOptions options{};

  std::vector<int> soa(p * count);
  std::vector<std::vector<int>> rows(count, std::vector<int>(p, 0));
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t a = 0; a < p; ++a) {
      const int proc = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(net.size())));
      rows[i][a] = proc;
      soa[a * count + i] = proc;
    }
  }

  std::vector<double> batched(count);
  plan.evaluate_batch(soa, count, net, options, batched);
  for (std::size_t i = 0; i < count; ++i) {
    const double single = plan.evaluate(rows[i], net, options);
    EXPECT_EQ(single, batched[i]) << "mapping " << i;  // exact bits
    // And both must equal the interpreter (the plan contract).
    EXPECT_EQ(oracle::estimate_time(instance, rows[i], net, options), batched[i]);
  }
}

TEST(BatchEvaluator, MatchesSinglesOnRandomSchemeModels) {
  support::Rng rng(0xb47c4);
  for (int trial = 0; trial < 12; ++trial) {
    const int p = 2 + static_cast<int>(rng.next_below(7));
    const int machines = p + static_cast<int>(rng.next_below(20));
    const hnoc::Cluster cluster = random_cluster(rng, machines);
    const hnoc::NetworkModel net(cluster);
    const ModelInstance instance = random_scheme_model(rng, p);
    const auto count =
        static_cast<std::size_t>(1 + rng.next_below(50));
    expect_batch_matches_singles(instance, net, rng, count);
  }
}

TEST(BatchEvaluator, MatchesSinglesOnFallbackModels) {
  support::Rng rng(0xfa11);
  for (int trial = 0; trial < 8; ++trial) {
    const int p = 2 + static_cast<int>(rng.next_below(5));
    const hnoc::Cluster cluster = random_cluster(rng, p + 6);
    const hnoc::NetworkModel net(cluster);
    const ModelInstance instance = fallback_model(rng, p);
    expect_batch_matches_singles(instance, net, rng, 17);
  }
}

TEST(BatchEvaluator, MatchesSinglesAtLargeClusterScale) {
  support::Rng rng(0x1000);
  const hnoc::Cluster cluster = hnoc::testbeds::large_cluster(1000);
  const hnoc::NetworkModel net(cluster);
  const ModelInstance instance = random_scheme_model(rng, 9);
  expect_batch_matches_singles(instance, net, rng, 64);
}

TEST(BatchEvaluator, RepeatedCallsReuseScratchDeterministically) {
  support::Rng rng(0x5eed);
  const hnoc::Cluster cluster = random_cluster(rng, 12);
  const hnoc::NetworkModel net(cluster);
  const ModelInstance instance = random_scheme_model(rng, 5);
  const Plan plan(instance);
  const auto p = static_cast<std::size_t>(instance.size());

  std::vector<int> soa(p * 8);
  for (std::size_t k = 0; k < soa.size(); ++k) {
    soa[k] = static_cast<int>(rng.next_below(12));
  }
  std::vector<double> first(8), second(8);
  plan.evaluate_batch(soa, 8, net, EstimateOptions{}, first);
  plan.evaluate_batch(soa, 8, net, EstimateOptions{}, second);
  EXPECT_EQ(first, second);
}

/// The paper's EM3D model (Figure 4: nested par blocks) on a seeded
/// 9-subbody system.
ModelInstance em3d_instance() {
  apps::em3d::GeneratorConfig config;
  config.nodes_per_subbody = {40, 80, 120, 60, 200, 30, 90, 150, 70};
  config.remote_fraction = 0.2;
  config.seed = 7;
  const apps::em3d::System system = apps::em3d::generate(config);
  return apps::em3d::performance_model().instantiate(
      apps::em3d::model_parameters(system, 100));
}

/// The paper's matrix-multiplication model (Figure 7) on a 3x3 grid whose
/// speeds are the first nine machines of `net`.
ModelInstance mm_instance(const hnoc::NetworkModel& net) {
  std::vector<double> grid_speeds;
  for (int i = 0; i < 9; ++i) grid_speeds.push_back(net.speed(i));
  return apps::matmul::performance_model().instantiate(
      apps::matmul::model_parameters(
          3, 8, 18, apps::matmul::Partition(3, 6, grid_speeds)));
}

/// Seven random mappings over `net` plus one that folds every slot onto two
/// machines, so transfers share physical links.
std::vector<std::vector<int>> paper_mappings(const ModelInstance& instance,
                                             const hnoc::NetworkModel& net,
                                             support::Rng& rng) {
  const auto p = static_cast<std::size_t>(instance.size());
  std::vector<std::vector<int>> rows(8, std::vector<int>(p, 0));
  for (std::size_t i = 0; i + 1 < rows.size(); ++i) {
    for (int& proc : rows[i]) {
      proc = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(net.size())));
    }
  }
  for (std::size_t a = 0; a < p; ++a) rows.back()[a] = a % 2 == 0 ? 7 : 11;
  return rows;
}

void expect_single_matches_interpreter_and_batch(
    const ModelInstance& instance, const hnoc::NetworkModel& net,
    support::Rng& rng) {
  const Plan plan(instance);
  const EstimateOptions options{};
  const std::vector<std::vector<int>> rows =
      paper_mappings(instance, net, rng);
  const auto p = static_cast<std::size_t>(instance.size());
  const std::size_t count = rows.size();
  std::vector<int> soa(p * count);
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t a = 0; a < p; ++a) soa[a * count + i] = rows[i][a];
  }
  std::vector<double> batched(count);
  plan.evaluate_batch(soa, count, net, options, batched);
  for (std::size_t i = 0; i < count; ++i) {
    const double single = plan.evaluate(rows[i], net, options);
    EXPECT_EQ(single, oracle::estimate_time(instance, rows[i], net, options))
        << "mapping " << i;  // exact bits
    EXPECT_EQ(single, batched[i]) << "mapping " << i;
  }
}

TEST(PlanEvaluate, PaperInstancesMatchInterpreterAtLargeClusterScale) {
  support::Rng rng(0xe3d1000);
  const hnoc::Cluster cluster = hnoc::testbeds::large_cluster(1000);
  const hnoc::NetworkModel net(cluster);
  const ModelInstance em3d = em3d_instance();
  ASSERT_TRUE(em3d.has_scheme());
  expect_single_matches_interpreter_and_batch(em3d, net, rng);
  const ModelInstance mm = mm_instance(net);
  ASSERT_TRUE(mm.has_scheme());
  expect_single_matches_interpreter_and_batch(mm, net, rng);
  const ModelInstance fallback = fallback_model(rng, 9);
  ASSERT_FALSE(fallback.has_scheme());
  expect_single_matches_interpreter_and_batch(fallback, net, rng);
}

/// The InvalidArgument message `fn` throws ("" when it does not throw).
template <typename Fn>
std::string invalid_argument_of(Fn fn) {
  try {
    fn();
  } catch (const hmpi::InvalidArgument& e) {
    return e.what();
  }
  return "";
}

TEST(PlanEvaluate, RejectsBadMappingsLikeTheInterpreter) {
  const hnoc::Cluster cluster = hnoc::testbeds::large_cluster(1000);
  const hnoc::NetworkModel net(cluster);
  const ModelInstance instance = em3d_instance();
  const Plan plan(instance);
  const std::vector<int> too_short(8, 0);
  const std::string short_error =
      invalid_argument_of([&] { (void)plan.evaluate(too_short, net); });
  EXPECT_NE(short_error, "");
  EXPECT_EQ(short_error, invalid_argument_of([&] {
              (void)oracle::estimate_time(instance, too_short, net);
            }));
  std::vector<int> out_of_range(9, 0);
  out_of_range[4] = 1000;
  const std::string range_error =
      invalid_argument_of([&] { (void)plan.evaluate(out_of_range, net); });
  EXPECT_NE(range_error, "");
  EXPECT_EQ(range_error, invalid_argument_of([&] {
              (void)oracle::estimate_time(instance, out_of_range, net);
            }));
  out_of_range[4] = -1;
  EXPECT_THROW((void)plan.evaluate(out_of_range, net), hmpi::InvalidArgument);
}

TEST(PlanEvaluate, ConcurrentCallersOnOneSharedPlanAgree) {
  support::Rng rng(0xc0c0);
  const hnoc::Cluster cluster = hnoc::testbeds::large_cluster(1000);
  const hnoc::NetworkModel net(cluster);
  const ModelInstance instance = em3d_instance();
  const Plan plan(instance);
  std::vector<std::vector<int>> rows;
  for (int round = 0; round < 4; ++round) {
    for (auto& row : paper_mappings(instance, net, rng)) {
      rows.push_back(std::move(row));
    }
  }
  std::vector<double> expected;
  for (const auto& row : rows) {
    expected.push_back(oracle::estimate_time(instance, row, net));
  }

  // Each thread walks every mapping from its own offset, so calls on the
  // shared plan interleave and every thread-local scratch is reused.
  constexpr int kThreads = 4;
  std::vector<std::vector<double>> got(kThreads,
                                       std::vector<double>(rows.size()));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < rows.size(); ++k) {
        const std::size_t i = (k + static_cast<std::size_t>(t) * 5) %
                              rows.size();
        got[static_cast<std::size_t>(t)][i] = plan.evaluate(rows[i], net);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<std::size_t>(t)], expected) << "thread " << t;
  }
}

TEST(EstimateCacheShards, AnyShardCountReturnsIdenticalValues) {
  support::Rng rng(0x54a7d);
  const hnoc::Cluster cluster = random_cluster(rng, 9);
  const hnoc::NetworkModel net(cluster);
  const ModelInstance instance = random_scheme_model(rng, 4);
  const EstimateOptions options{};

  std::vector<std::vector<int>> mappings;
  for (int i = 0; i < 40; ++i) {
    std::vector<int> mapping(4);
    for (int& p : mapping) {
      p = static_cast<int>(rng.next_below(9));
    }
    mappings.push_back(std::move(mapping));
  }

  const Plan plan(instance);
  const std::uint64_t fp = estimate_fingerprint(instance, options);
  EstimateCache reference(1);
  std::vector<double> expected;
  for (const auto& mapping : mappings) {
    expected.push_back(reference.estimate(fp, plan, mapping, net, options));
  }
  for (std::size_t shards : {std::size_t{0}, std::size_t{3},
                             std::size_t{64}}) {
    EstimateCache cache(shards);
    EXPECT_GE(cache.shard_count(), 1u);  // 0 clamps to 1
    for (std::size_t i = 0; i < mappings.size(); ++i) {
      EXPECT_EQ(cache.estimate(fp, plan, mappings[i], net, options),
                expected[i]);
    }
  }
}

TEST(EstimateCacheShards, BatchProbesMatchSingleKeyCalls) {
  support::Rng rng(0xba7c);
  const hnoc::Cluster cluster = random_cluster(rng, 9);
  const hnoc::NetworkModel net(cluster);
  const ModelInstance instance = random_scheme_model(rng, 4);
  const EstimateOptions options{};
  const std::uint64_t fp = estimate_fingerprint(instance, options);
  constexpr std::size_t kWidth = 4, kCount = 24;

  // Row-major batch of distinct mappings (base-9 digits of the row index,
  // so no two rows share a cache key); even rows are priced first through
  // the single-key path.
  std::vector<int> rows(kWidth * kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    std::size_t digits = i;
    for (std::size_t a = 0; a < kWidth; ++a) {
      rows[i * kWidth + a] = static_cast<int>(digits % 9);
      digits /= 9;
    }
  }
  const auto row = [&](std::size_t i) {
    return std::span<const int>(rows).subspan(i * kWidth, kWidth);
  };
  const Plan plan(instance);
  std::vector<double> values(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    values[i] = plan.evaluate(row(i), net, options);
  }

  for (std::size_t shards : {std::size_t{1}, std::size_t{5}}) {
    EstimateCache cache(shards);
    for (std::size_t i = 0; i < kCount; i += 2) {
      cache.estimate(fp, plan, row(i), net, options);
    }
    std::vector<double> out(kCount, -1.0);
    std::vector<char> found(kCount, 0);
    const std::size_t hits =
        cache.lookup_batch(fp, rows, kWidth, net, out, found);
    EXPECT_EQ(hits, kCount / 2);
    EXPECT_EQ(cache.hits(), static_cast<long long>(kCount / 2));
    // The single-key misses above plus the batch misses.
    EXPECT_EQ(cache.misses(), static_cast<long long>(kCount));
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(found[i], i % 2 == 0 ? 1 : 0) << "row " << i;
      if (i % 2 == 0) {
        EXPECT_EQ(out[i], values[i]);
      }
    }

    // insert_batch with the found mask fills exactly the misses; every key
    // must then hit through the single-key path with the identical bits.
    cache.insert_batch(fp, rows, kWidth, net, values, found);
    for (std::size_t i = 0; i < kCount; ++i) {
      bool hit = false;
      EXPECT_EQ(cache.estimate(fp, plan, row(i), net, options, &hit),
                values[i]);
      EXPECT_TRUE(hit) << "row " << i;
    }
  }
}

TEST(EstimateCacheShards, BatchInsertSkipsMaskedRows) {
  const hnoc::Cluster cluster = hnoc::testbeds::paper_em3d_network();
  const hnoc::NetworkModel net(cluster);
  constexpr std::size_t kWidth = 3, kCount = 6;
  // Distinct sliding-window rows so every batch entry is its own cache key.
  std::vector<int> rows(kWidth * kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    for (std::size_t a = 0; a < kWidth; ++a) {
      rows[i * kWidth + a] = static_cast<int>((i + a) % 9);
    }
  }
  std::vector<double> values(kCount, 7.0);
  std::vector<char> skip(kCount, 0);
  skip[1] = skip[4] = 1;

  EstimateCache cache(4);
  cache.insert_batch(0x11, rows, kWidth, net, values, skip);
  EXPECT_EQ(cache.size(), kCount - 2);
  std::vector<double> out(kCount, 0.0);
  std::vector<char> found(kCount, 0);
  EXPECT_EQ(cache.lookup_batch(0x11, rows, kWidth, net, out, found),
            kCount - 2);
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(found[i] != 0, skip[i] == 0) << "row " << i;
  }
}

}  // namespace
}  // namespace hmpi::est
