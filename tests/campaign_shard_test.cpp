// Campaign sharding: the partition function's disjoint-union contract, the
// load-bearing bit-identity of merged shards vs the unsharded run (in memory
// and through the CSV/manifest disk round trip), the traced per-replicate
// path (trace replay and the results.csv it produces), and the merge's
// refusal of mismatched, incomplete, corrupted or lying shard sets.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>

#include "io/campaign_io.h"
#include "rng/splitmix.h"
#include "sim/campaign.h"
#include "testing_util.h"

namespace antalloc {
namespace {

namespace fs = std::filesystem;

using test_util::expect_results_row;
using test_util::expect_stats_identical;
using test_util::live_cell_results;
using test_util::make_temp_dir;
using test_util::read_results_rows;
using test_util::shard_matrix;
using test_util::small_matrix;

CampaignResult run_all_shards_merged(CampaignConfig cfg, std::size_t count) {
  std::vector<CampaignResult> shards;
  for (std::size_t i = 0; i < count; ++i) {
    cfg.shard = {i, count};
    shards.push_back(run_campaign(cfg));
  }
  return merge_campaign_shards(std::move(shards), campaign_total_cells(cfg));
}

// Bit-identical over the whole CampaignResult: labels, engine and every
// selected scalar's accumulator state.
void expect_bit_identical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.metrics, b.metrics);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    const CampaignCell& x = a.cells[i];
    const CampaignCell& y = b.cells[i];
    EXPECT_EQ(x.flat_index, y.flat_index);
    EXPECT_EQ(x.scenario, y.scenario);
    EXPECT_EQ(x.algo, y.algo);
    EXPECT_EQ(x.noise, y.noise);
    EXPECT_EQ(x.engine, y.engine);
    ASSERT_EQ(x.metric_stats.size(), y.metric_stats.size());
    for (std::size_t si = 0; si < x.metric_stats.size(); ++si) {
      SCOPED_TRACE("scalar " + std::to_string(si));
      expect_stats_identical(x.metric_stats[si], y.metric_stats[si]);
    }
  }
  // And the rendered artifact is the same bytes.
  EXPECT_EQ(a.to_csv(), b.to_csv());
}

TEST(ShardPartition, UnionIsDisjointAndComplete) {
  // Ragged splits included: every (total, count) partitions {0..total-1}.
  for (const std::size_t total : {1u, 5u, 6u, 7u, 12u, 13u}) {
    for (const std::size_t count : {1u, 2u, 3u, 5u, 8u}) {
      SCOPED_TRACE(std::to_string(total) + " cells, " +
                   std::to_string(count) + " shards");
      std::set<std::size_t> seen;
      std::size_t claimed = 0;
      for (std::size_t i = 0; i < count; ++i) {
        const ShardSpec shard{i, count};
        for (const std::size_t flat : shard_cell_indices(total, shard)) {
          EXPECT_TRUE(shard_owns(shard, flat));
          EXPECT_TRUE(seen.insert(flat).second) << "duplicate " << flat;
          ++claimed;
        }
      }
      EXPECT_EQ(claimed, total);
      if (total > 0) {
        EXPECT_EQ(*seen.begin(), 0u);
        EXPECT_EQ(*seen.rbegin(), total - 1);
      }
    }
  }
}

TEST(ShardPartition, RejectsInvalidSpec) {
  EXPECT_THROW(shard_owns({0, 0}, 0), std::invalid_argument);
  EXPECT_THROW(shard_owns({3, 3}, 0), std::invalid_argument);
  EXPECT_THROW(shard_cell_indices(10, {5, 2}), std::invalid_argument);
  auto cfg = shard_matrix();
  cfg.shard = {2, 2};
  EXPECT_THROW(run_campaign(cfg), std::invalid_argument);
}

TEST(CampaignShard, ShardRunsOnlyItsCells) {
  auto cfg = shard_matrix();
  const CampaignResult full = run_campaign(cfg);
  ASSERT_EQ(full.cells.size(), 6u);
  for (std::size_t i = 0; i < full.cells.size(); ++i) {
    EXPECT_EQ(full.cells[i].flat_index, i);  // unsharded = identity order
  }

  cfg.shard = {1, 3};
  const CampaignResult shard = run_campaign(cfg);
  ASSERT_EQ(shard.cells.size(), 2u);
  EXPECT_EQ(shard.cells[0].flat_index, 1u);
  EXPECT_EQ(shard.cells[1].flat_index, 4u);
  // The shard's cells are the unsharded cells, bit for bit.
  for (const CampaignCell& cell : shard.cells) {
    const CampaignCell& ref = full.cells[cell.flat_index];
    EXPECT_EQ(cell.scenario, ref.scenario);
    EXPECT_EQ(cell.algo, ref.algo);
    ASSERT_EQ(cell.metric_stats.size(), ref.metric_stats.size());
    for (std::size_t si = 0; si < cell.metric_stats.size(); ++si) {
      expect_stats_identical(cell.metric_stats[si], ref.metric_stats[si]);
    }
  }
}

TEST(CampaignShard, MergedShardsBitIdenticalToUnsharded) {
  auto cfg = shard_matrix();
  const CampaignResult full = run_campaign(cfg);
  // N = 1 (degenerate), 3 (even: 6 % 3 = 0) and 5 (ragged: 6 % 5 = 1, so
  // shard 0 owns two cells and shards 1-4 own one each).
  for (const std::size_t count : {1u, 3u, 5u}) {
    SCOPED_TRACE(std::to_string(count) + " shards");
    const CampaignResult merged = run_all_shards_merged(cfg, count);
    expect_bit_identical(merged, full);
  }
}

TEST(CampaignShard, MergeRejectsIncompleteOrDuplicateCells) {
  auto cfg = shard_matrix();
  std::vector<CampaignResult> shards;
  cfg.shard = {0, 3};
  shards.push_back(run_campaign(cfg));
  // Missing shards 1 and 2.
  EXPECT_THROW(merge_campaign_shards(std::move(shards),
                                     campaign_total_cells(cfg)),
               std::invalid_argument);

  shards.clear();
  shards.push_back(run_campaign(cfg));
  shards.push_back(run_campaign(cfg));  // shard 0 twice
  EXPECT_THROW(merge_campaign_shards(std::move(shards),
                                     campaign_total_cells(cfg)),
               std::invalid_argument);
}

TEST(ConfigHash, SensitiveToResultsAffectingFieldsOnly) {
  const auto cfg = shard_matrix();
  const std::uint64_t base = campaign_config_hash(cfg);

  auto seed = cfg;
  seed.seed = 8;
  EXPECT_NE(campaign_config_hash(seed), base);

  auto rounds = cfg;
  rounds.rounds = 201;
  EXPECT_NE(campaign_config_hash(rounds), base);

  auto gamma = cfg;
  gamma.algos[0].gamma = 0.06;
  EXPECT_NE(campaign_config_hash(gamma), base);

  auto scen = cfg;
  scen.scenarios.pop_back();
  EXPECT_NE(campaign_config_hash(scen), base);

  auto noise = cfg;
  noise.noises[0].name = "sigmoid2";
  EXPECT_NE(campaign_config_hash(noise), base);

  auto paired = cfg;
  paired.pair_noise_seeds = true;
  EXPECT_NE(campaign_config_hash(paired), base);

  // The shard spec and thread pool must NOT enter the hash: every shard of
  // one campaign carries the same hash, which is what the merge checks.
  auto sharded = cfg;
  sharded.shard = {2, 5};
  EXPECT_EQ(campaign_config_hash(sharded), base);

  // Nor where traces land.
  auto traced = cfg;
  traced.trace_dir = "traces";
  EXPECT_EQ(campaign_config_hash(traced), base);
}

TEST(ConfigHash, PinnedByValue) {
  // Literal fingerprints of two fixed configs. Every shard file and trace
  // on disk is stamped with this hash, so any change to what it mixes (or
  // in what order) must be a deliberate format bump, never a side effect of
  // refactoring the config.
  EXPECT_EQ(campaign_config_hash(small_matrix()), 0xc4f41eaede7df220ULL);
  EXPECT_EQ(campaign_config_hash(shard_matrix()), 0x0948facd5519a40fULL);
}

TEST(CampaignShardIo, DiskRoundTripBitIdentical) {
  const std::string dir = make_temp_dir("roundtrip");
  auto cfg = shard_matrix();
  const CampaignResult full = run_campaign(cfg);

  for (std::size_t i = 0; i < 3; ++i) {
    cfg.shard = {i, 3};
    write_campaign_shard(dir, cfg, run_campaign(cfg));
  }

  const MergedCampaign merged = merge_campaign_dir(dir);
  EXPECT_EQ(merged.shard_count, 3u);
  EXPECT_EQ(merged.total_cells, 6u);
  cfg.shard = {};
  EXPECT_EQ(merged.config_hash, campaign_config_hash(cfg));
  expect_bit_identical(merged.result, full);
  fs::remove_all(dir);
}

// The per-replicate half of a campaign exists only as traces: each cell's
// replay, folded in replicate order, must reproduce the live statistics bit
// for bit, and every column of the results.csv replayed from them must hold
// the live run_replicate result of its (cell, replicate), and the traced
// shards must survive the merge's checks.
TEST(CampaignShardIo, TracedShardsReplayToLiveStats) {
  const std::string dir = make_temp_dir("traced");
  auto cfg = shard_matrix();
  const CampaignResult full = run_campaign(cfg);
  const std::vector<MetricScalar> specs = full.scalar_columns();

  cfg.trace_dir = (fs::path(dir) / "traces").string();
  for (std::size_t i = 0; i < 3; ++i) {
    cfg.shard = {i, 3};
    const std::string manifest =
        write_campaign_shard(dir, cfg, run_campaign(cfg));
    EXPECT_FALSE(read_shard_manifest(manifest).results_file.empty());
  }

  const auto rows = read_results_rows(dir, specs);
  EXPECT_EQ(rows.size(),
            full.cells.size() * static_cast<std::size_t>(cfg.replicates));
  for (const CampaignCell& cell : full.cells) {
    SCOPED_TRACE("cell " + std::to_string(cell.flat_index));
    // Replay vs live, every scalar of every cell.
    const std::vector<SimResult> replicates = replay_cell_results(
        cfg.trace_dir, cell.flat_index, cfg.replicates, full.metrics);
    ASSERT_EQ(replicates.size(), static_cast<std::size_t>(cfg.replicates));
    for (std::size_t si = 0; si < specs.size(); ++si) {
      RunningStats folded;
      for (const SimResult& r : replicates) folded.add(r.metric(specs[si].name));
      expect_stats_identical(folded, cell.metric_stats[si]);
    }
    // The results files vs run_replicate, every column of every row.
    const std::vector<SimResult> live = live_cell_results(cfg, cell.flat_index);
    for (std::size_t r = 0; r < live.size(); ++r) {
      SCOPED_TRACE("replicate " + std::to_string(r));
      const auto row = rows.find({cell.flat_index, r});
      ASSERT_NE(row, rows.end());
      expect_results_row(row->second, live[r], specs);
    }
  }

  const MergedCampaign merged = merge_campaign_dir(dir);
  expect_bit_identical(merged.result, full);
  fs::remove_all(dir);
}

// Rewrites one "key value" line of a manifest.
void set_manifest_value(const std::string& path, const std::string& key,
                        const std::string& value) {
  std::ifstream in(path);
  std::string content;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(key + " ", 0) == 0) line = key + " " + value;
    content += line + "\n";
  }
  in.close();
  std::ofstream(path) << content;
}

TEST(CampaignShardIo, RejectsResultsFileWithWrongShape) {
  // The results file is checked, not parsed: a corrupted file fails its
  // checksum, and one whose checksum was re-stamped still has to hold
  // exactly `replicates` rows per cell.
  const std::string dir = make_temp_dir("results_shape");
  auto cfg = shard_matrix();
  cfg.trace_dir = (fs::path(dir) / "traces").string();
  const std::string manifest_path =
      write_campaign_shard(dir, cfg, run_campaign(cfg));
  EXPECT_NO_THROW(merge_campaign_dir(dir));

  const std::string results_path =
      (fs::path(dir) / read_shard_manifest(manifest_path).results_file)
          .string();
  std::ifstream in(results_path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  // Drop the last replicate row.
  content.pop_back();
  content.erase(content.rfind('\n') + 1);
  std::ofstream(results_path, std::ios::binary) << content;
  EXPECT_THROW(merge_campaign_dir(dir), std::runtime_error);  // checksum

  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(rng::hash_string(content)));
  set_manifest_value(manifest_path, "results_checksum", hex);
  try {
    merge_campaign_dir(dir);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("replicate rows"), std::string::npos)
        << e.what();
  }
  fs::remove_all(dir);
}

TEST(CampaignShardIo, RejectsLyingManifestBeforeAllocating) {
  // A manifest's shard_count and total_cells size the merge's bookkeeping;
  // absurd values must be refused by name, not crash the merge with
  // std::bad_alloc.
  const std::string dir = make_temp_dir("lying");
  auto cfg = shard_matrix();
  const std::string manifest_path =
      write_campaign_shard(dir, cfg, run_campaign(cfg));
  EXPECT_NO_THROW(merge_campaign_dir(dir));

  set_manifest_value(manifest_path, "shard_count", "1000000000000");
  EXPECT_THROW(merge_campaign_dir(dir), std::runtime_error);

  set_manifest_value(manifest_path, "shard_count", "1");
  set_manifest_value(manifest_path, "total_cells", "2000000000");
  EXPECT_THROW(merge_campaign_dir(dir), std::runtime_error);
  fs::remove_all(dir);
}

TEST(CampaignShardIo, ManifestDescribesTheShard) {
  const std::string dir = make_temp_dir("manifest");
  auto cfg = shard_matrix();
  cfg.shard = {1, 5};  // ragged: owns flat index 1 only
  const std::string path = write_campaign_shard(dir, cfg, run_campaign(cfg));
  const ShardManifest m = read_shard_manifest(path);
  EXPECT_EQ(m.shard_index, 1u);
  EXPECT_EQ(m.shard_count, 5u);
  EXPECT_EQ(m.total_cells, 6u);
  EXPECT_EQ(m.shard_cells, 1u);  // flat index 1 only (1 + 5 = 6 is past the end)
  fs::remove_all(dir);
}

TEST(CampaignShardIo, RejectsShardFromDifferentConfig) {
  const std::string dir = make_temp_dir("mismatch");
  auto cfg = shard_matrix();
  cfg.shard = {0, 2};
  write_campaign_shard(dir, cfg, run_campaign(cfg));

  auto other = shard_matrix();
  other.seed = 1234;  // different campaign
  other.shard = {1, 2};
  write_campaign_shard(dir, other, run_campaign(other));

  EXPECT_THROW(merge_campaign_dir(dir), std::runtime_error);
  fs::remove_all(dir);
}

TEST(CampaignShardIo, RejectsMissingShardAndCorruptedRows) {
  const std::string dir = make_temp_dir("missing");
  auto cfg = shard_matrix();
  cfg.shard = {0, 2};
  const std::string manifest_path =
      write_campaign_shard(dir, cfg, run_campaign(cfg));
  // Shard 1 of 2 was never produced.
  EXPECT_THROW(merge_campaign_dir(dir), std::runtime_error);

  cfg.shard = {1, 2};
  write_campaign_shard(dir, cfg, run_campaign(cfg));
  EXPECT_NO_THROW(merge_campaign_dir(dir));

  // Corrupt one data file: the checksum in the manifest must catch it.
  const ShardManifest m = read_shard_manifest(manifest_path);
  std::ofstream tamper(fs::path(dir) / m.rows_file, std::ios::app);
  tamper << "tampered\n";
  tamper.close();
  EXPECT_THROW(merge_campaign_dir(dir), std::runtime_error);
  fs::remove_all(dir);
}

TEST(CampaignShardIo, WriteRefusesForeignResult) {
  const std::string dir = make_temp_dir("foreign");
  auto cfg = shard_matrix();
  cfg.shard = {0, 3};
  const CampaignResult shard0 = run_campaign(cfg);
  cfg.shard = {1, 3};
  // Result from shard 0 presented as shard 1: flat indices do not match.
  EXPECT_THROW(write_campaign_shard(dir, cfg, shard0),
               std::invalid_argument);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace antalloc
