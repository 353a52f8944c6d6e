/**
 * @file
 * Golden digests of the fixed-seed grid records.
 *
 * Pins the 64-bit FNV-1a digest of statsToJson(...).dump() for every
 * paper-grid cell (the 12 paper workloads x 6 engines) and every
 * serving-meta cell (kvs/nat/bm25 x NoProtect/CI/Toleo, open loop
 * poisson 1e6/s, SLO 100 us), at the default sweep window: seed 42,
 * the scaled 8-core node, 30k warm-up and 60k measured rounds per
 * core.  These are the cells and window of the repository benchmark,
 * so a host-speed change that moves any simulated byte fails here.
 *
 * One ctest case per workload, so `ctest -j` spreads the grid.  After
 * an *intended* change to simulated results, regenerate with
 *
 *   TOLEO_UPDATE_GOLDEN=1 ./tests/test_golden_grid
 *
 * (the binary, not ctest -j: each case rewrites its own entries of the
 * one file) and commit the refreshed tests/data/golden_grid.json.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "sim/sweep.hh"
#include "workload/request.hh"
#include "workload/workload.hh"

using namespace toleo;

namespace {

/** One shard: every engine of one workload in one benchmark grid. */
struct GridShard
{
    std::string grid;
    std::string workload;
};

/** ctest names carry GetParam(); keep them readable and stable. */
void
PrintTo(const GridShard &shard, std::ostream *os)
{
    *os << shard.grid << "/" << shard.workload;
}

std::vector<GridShard>
allShards()
{
    std::vector<GridShard> shards;
    for (const std::string &w : paperWorkloads())
        shards.push_back({"paper-grid", w});
    for (const char *w : {"kvs", "nat", "bm25"})
        shards.push_back({"serving-meta", w});
    return shards;
}

std::vector<EngineKind>
shardEngines(const GridShard &shard)
{
    if (shard.grid == "serving-meta")
        return {EngineKind::NoProtect, EngineKind::CI, EngineKind::Toleo};
    return allEngineKinds();
}

SweepOptions
shardWindow(const GridShard &shard)
{
    SweepOptions opts; // seed 42, 8 cores, 30k/60k rounds per core
    if (shard.grid == "serving-meta") {
        std::string err;
        if (!parseArrivalSpec("poisson:1e6", opts.arrival, err))
            ADD_FAILURE() << "serving arrival: " << err;
        opts.arrival.sloUs = 100.0;
    }
    return opts;
}

std::string
fnv1aHex(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

Json
readGolden()
{
    std::ifstream in(TOLEO_GRID_GOLDEN, std::ios::binary);
    if (!in.good())
        return Json::object();
    std::ostringstream text;
    text << in.rdbuf();
    std::string err;
    Json doc = Json::parse(text.str(), &err);
    if (!doc.isObject())
        ADD_FAILURE() << TOLEO_GRID_GOLDEN << ": " << err;
    return doc.isObject() ? doc : Json::object();
}

class GoldenGrid : public ::testing::TestWithParam<GridShard>
{
};

} // namespace

TEST_P(GoldenGrid, FixedSeedRecordDigestsArePinned)
{
    const GridShard &shard = GetParam();
    SweepOptions opts = shardWindow(shard);

    Json got = Json::object();
    for (const EngineKind engine : shardEngines(shard)) {
        const SimStats stats =
            runSweepCell({shard.workload, engine}, opts);
        got[engineKindName(engine)] =
            fnv1aHex(statsToJson(stats).dump());
    }

    Json doc = readGolden();
    // Golden-regeneration entry point, never read during a normal
    // test run.  toleo-lint: allow(nondeterminism)
    if (const char *update = std::getenv("TOLEO_UPDATE_GOLDEN");
        update && *update) {
        doc[shard.grid][shard.workload] = got;
        std::ofstream out(TOLEO_GRID_GOLDEN,
                          std::ios::binary | std::ios::trunc);
        out << doc.dump(2) << "\n";
        ASSERT_TRUE(out.good()) << "cannot write " << TOLEO_GRID_GOLDEN;
    }

    const Json *grid = doc.get(shard.grid);
    const Json *want = grid ? grid->get(shard.workload) : nullptr;
    ASSERT_NE(want, nullptr)
        << "no golden digests for " << shard.grid << "/"
        << shard.workload << " in " << TOLEO_GRID_GOLDEN
        << " (regenerate as described in the file comment)";
    EXPECT_EQ(got.dump(2), want->dump(2))
        << "fixed-seed " << shard.grid << "/" << shard.workload
        << " records drifted from the committed golden digests";
}

INSTANTIATE_TEST_SUITE_P(
    Shards, GoldenGrid, ::testing::ValuesIn(allShards()),
    [](const ::testing::TestParamInfo<GridShard> &info) {
        std::string name = info.param.grid + "_" + info.param.workload;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });
