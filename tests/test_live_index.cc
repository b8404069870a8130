/**
 * @file
 * Tests of the live-mutability layer: freshness (inserts visible to
 * the next search), immediate deletes via tombstones, the tombstone
 * edge cases (delete-then-reinsert, buffer-only delete, delete racing
 * a merge publish, k > live count), merge parity (bitwise for
 * rebuild-from-union, recall for the IVF incremental path), snapshot
 * generations on disk, service-level mutation plumbing, degraded-flag
 * propagation through the overlay merge, and the merge-vs-search /
 * swap-vs-reader stress suites the TSan CI leg runs.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <set>
#include <thread>
#include <unordered_set>
#include <vector>

#include "baseline/flat_index.h"
#include "common/logging.h"
#include "dataset/synthetic.h"
#include "live/live_index.h"
#include "registry/index_factory.h"
#include "serve/search_service.h"

namespace juno {
namespace {

Dataset
smallDataset(idx_t n = 400, idx_t nq = 16, idx_t dim = 12,
             std::uint64_t seed = 4242)
{
    SyntheticSpec spec;
    spec.kind = DatasetKind::kDeepLike;
    spec.num_points = n;
    spec.num_queries = nq;
    spec.dim = dim;
    spec.seed = seed;
    return makeDataset(spec);
}

bool
hasId(const std::vector<Neighbor> &list, idx_t id)
{
    for (const auto &nb : list)
        if (nb.id == id)
            return true;
    return false;
}

bool
idsUnique(const std::vector<Neighbor> &list)
{
    std::unordered_set<idx_t> seen;
    for (const auto &nb : list)
        if (!seen.insert(nb.id).second)
            return false;
    return true;
}

/** Union dataset a merge is expected to be built over: generation
 * rows in row order minus deletes, then inserts in append order. */
struct UnionSet {
    FloatMatrix points;
    std::vector<idx_t> ids;
};

UnionSet
makeUnion(const FloatMatrix &base, const std::set<idx_t> &deleted,
          const std::vector<std::pair<idx_t, std::vector<float>>> &fresh)
{
    const idx_t d = base.cols();
    std::vector<idx_t> keep;
    for (idx_t r = 0; r < base.rows(); ++r)
        if (deleted.count(r) == 0)
            keep.push_back(r);
    UnionSet u;
    u.points =
        FloatMatrix(static_cast<idx_t>(keep.size() + fresh.size()), d);
    idx_t w = 0;
    for (idx_t r : keep) {
        std::copy_n(base.row(r), static_cast<std::size_t>(d),
                    u.points.row(w++));
        u.ids.push_back(r);
    }
    for (const auto &[id, vec] : fresh) {
        std::copy_n(vec.data(), static_cast<std::size_t>(d),
                    u.points.row(w++));
        u.ids.push_back(id);
    }
    return u;
}

TEST(LiveIndex, InsertVisibleToNextSearch)
{
    const Dataset ds = smallDataset();
    LiveConfig cfg;
    cfg.auto_merge = false;
    LiveIndex live(ds.metric, ds.base.view(), "flat", cfg);

    // A vector identical to query 0 must become that query's top-1
    // the moment insert() returns — no merge, no delay.
    const float *q0 = ds.queries.row(0);
    std::vector<float> vec(q0, q0 + ds.base.cols());
    ASSERT_EQ(live.insert(vec.data(), 9000), MutateStatus::kOk);

    const auto res = live.search(ds.queries.view(), 3);
    EXPECT_EQ(res[0].front().id, 9000);
    EXPECT_EQ(live.size(), ds.base.rows() + 1);
    EXPECT_EQ(live.liveStats().fresh_rows, 1);
}

TEST(LiveIndex, DeleteImmediateAndStatuses)
{
    const Dataset ds = smallDataset();
    LiveConfig cfg;
    cfg.auto_merge = false;
    LiveIndex live(ds.metric, ds.base.view(), "flat", cfg);

    const idx_t victim = live.search(ds.queries.view(), 1)[0][0].id;
    EXPECT_EQ(live.remove(victim), MutateStatus::kOk);
    EXPECT_FALSE(hasId(live.search(ds.queries.view(), 10)[0], victim));
    EXPECT_EQ(live.size(), ds.base.rows() - 1);

    // Typed refusals, one per reason.
    EXPECT_EQ(live.remove(victim), MutateStatus::kUnknownId);
    EXPECT_EQ(live.remove(-1), MutateStatus::kInvalidId);
    std::vector<float> vec(static_cast<std::size_t>(ds.base.cols()),
                           0.5f);
    EXPECT_EQ(live.insert(vec.data(), 0), MutateStatus::kDuplicateId);
    const LiveStats stats = live.liveStats();
    EXPECT_EQ(stats.removes, 1u);
    EXPECT_EQ(stats.rejected_other, 3u);
    EXPECT_EQ(stats.tombstones, 1);
}

TEST(LiveIndex, BufferFullBackpressure)
{
    const Dataset ds = smallDataset(64, 4, 8);
    LiveConfig cfg;
    cfg.auto_merge = false;
    cfg.fresh_capacity = 2;
    LiveIndex live(ds.metric, ds.base.view(), "flat", cfg);
    std::vector<float> vec(8, 0.0f);
    EXPECT_EQ(live.insert(vec.data(), 100), MutateStatus::kOk);
    EXPECT_EQ(live.insert(vec.data(), 101), MutateStatus::kOk);
    EXPECT_EQ(live.insert(vec.data(), 102), MutateStatus::kBufferFull);
    EXPECT_EQ(live.upsert(vec.data(), 100), MutateStatus::kBufferFull);
    EXPECT_EQ(live.liveStats().rejected_full, 2u);
    // A merge drains the buffer and re-opens admission.
    ASSERT_TRUE(live.mergeNow());
    EXPECT_EQ(live.insert(vec.data(), 102), MutateStatus::kOk);
}

TEST(LiveIndex, UpsertReplacesAtomically)
{
    const Dataset ds = smallDataset();
    LiveConfig cfg;
    cfg.auto_merge = false;
    LiveIndex live(ds.metric, ds.base.view(), "flat", cfg);

    const float *q0 = ds.queries.row(0);
    std::vector<float> vec(q0, q0 + ds.base.cols());
    // Upsert of a main-generation id: the old row dies, the new
    // vector serves under the same id, live count is unchanged.
    ASSERT_EQ(live.upsert(vec.data(), 7), MutateStatus::kOk);
    EXPECT_EQ(live.size(), ds.base.rows());
    auto res = live.search(ds.queries.view(), 2);
    EXPECT_EQ(res[0].front().id, 7);
    EXPECT_TRUE(idsUnique(res[0]));
    // Upsert of a brand-new id is a plain insert.
    ASSERT_EQ(live.upsert(vec.data(), 7777), MutateStatus::kOk);
    EXPECT_EQ(live.size(), ds.base.rows() + 1);
    EXPECT_EQ(live.liveStats().upserts, 2u);
}

TEST(LiveIndex, DeleteThenReinsertSameId)
{
    const Dataset ds = smallDataset();
    LiveConfig cfg;
    cfg.auto_merge = false;
    LiveIndex live(ds.metric, ds.base.view(), "flat", cfg);

    const float *q0 = ds.queries.row(0);
    std::vector<float> vec(q0, q0 + ds.base.cols());
    ASSERT_EQ(live.remove(11), MutateStatus::kOk);
    ASSERT_EQ(live.insert(vec.data(), 11), MutateStatus::kOk);

    // The reinserted vector serves under the old id, exactly once.
    auto res = live.search(ds.queries.view(), 5);
    EXPECT_EQ(res[0].front().id, 11);
    EXPECT_TRUE(idsUnique(res[0]));
    EXPECT_EQ(live.size(), ds.base.rows());

    // And the merge keeps exactly the fresh copy.
    ASSERT_TRUE(live.mergeNow());
    res = live.search(ds.queries.view(), 5);
    EXPECT_EQ(res[0].front().id, 11);
    EXPECT_TRUE(idsUnique(res[0]));
    EXPECT_EQ(live.size(), ds.base.rows());
}

TEST(LiveIndex, DeleteOfBufferOnlyId)
{
    const Dataset ds = smallDataset();
    LiveConfig cfg;
    cfg.auto_merge = false;
    LiveIndex live(ds.metric, ds.base.view(), "flat", cfg);

    const float *q0 = ds.queries.row(0);
    std::vector<float> vec(q0, q0 + ds.base.cols());
    ASSERT_EQ(live.insert(vec.data(), 500), MutateStatus::kOk);
    ASSERT_EQ(live.remove(500), MutateStatus::kOk);
    // The id lived only in the fresh buffer: gone immediately, and
    // the merge must not resurrect it.
    EXPECT_FALSE(hasId(live.search(ds.queries.view(), 10)[0], 500));
    EXPECT_EQ(live.size(), ds.base.rows());
    ASSERT_TRUE(live.mergeNow());
    EXPECT_FALSE(hasId(live.search(ds.queries.view(), 10)[0], 500));
    EXPECT_EQ(live.size(), ds.base.rows());
}

TEST(LiveIndex, DeleteRacingMergePublish)
{
    const Dataset ds = smallDataset();
    const float *q0 = ds.queries.row(0);
    std::vector<float> vec(q0, q0 + ds.base.cols());

    LiveIndex *lp = nullptr;
    bool hook_ran = false;
    LiveConfig cfg;
    cfg.auto_merge = false;
    // The hook fires after the merged index is built but before the
    // publish lock is taken — the window a racing delete must
    // survive via loc_ reconciliation.
    cfg.before_publish = [&] {
        if (lp == nullptr)
            return;
        hook_ran = true;
        EXPECT_EQ(lp->remove(3), MutateStatus::kOk);   // main-gen row
        EXPECT_EQ(lp->remove(600), MutateStatus::kOk); // frozen row
        // Both deletes are visible to searches running during the
        // merge (the frozen buffer stays consulted until publish).
        const auto mid = lp->search(ds.queries.view(), 50);
        EXPECT_FALSE(hasId(mid[0], 3));
        EXPECT_FALSE(hasId(mid[0], 600));
    };
    LiveIndex live(ds.metric, ds.base.view(), "flat", cfg);
    lp = &live;
    ASSERT_EQ(live.insert(vec.data(), 600), MutateStatus::kOk);
    ASSERT_TRUE(live.mergeNow());
    ASSERT_TRUE(hook_ran);

    // The published generation contains both rows but must serve
    // neither: the mid-merge deletes were reconciled at publish.
    const auto res = live.search(ds.queries.view(), 50);
    EXPECT_FALSE(hasId(res[0], 3));
    EXPECT_FALSE(hasId(res[0], 600));
    EXPECT_EQ(live.size(), ds.base.rows() - 1);
    // A deleted-during-merge id is reinsertable afterwards.
    EXPECT_EQ(live.insert(vec.data(), 3), MutateStatus::kOk);
    EXPECT_TRUE(hasId(live.search(ds.queries.view(), 5)[0], 3));
}

TEST(LiveIndex, KGreaterThanLiveCountAfterMassDeletion)
{
    const Dataset ds = smallDataset(50, 4, 8);
    LiveConfig cfg;
    cfg.auto_merge = false;
    LiveIndex live(ds.metric, ds.base.view(), "flat", cfg);
    for (idx_t id = 0; id < 45; ++id)
        ASSERT_EQ(live.remove(id), MutateStatus::kOk);
    ASSERT_EQ(live.size(), 5);

    const auto res = live.search(ds.queries.view(), 20);
    for (const auto &list : res) {
        EXPECT_EQ(list.size(), 5u);
        EXPECT_TRUE(idsUnique(list));
        for (const auto &nb : list)
            EXPECT_GE(nb.id, 45);
    }
    // Same once the tombstones compact away.
    ASSERT_TRUE(live.mergeNow());
    const auto after = live.search(ds.queries.view(), 20);
    EXPECT_EQ(after, res);
}

TEST(LiveIndex, NoOverlayParityBitwise)
{
    const Dataset ds = smallDataset();
    LiveConfig cfg;
    cfg.auto_merge = false;
    LiveIndex live(ds.metric, ds.base.view(), "flat", cfg);
    const auto ref = buildIndex(ds.metric, ds.base.view(), "flat");
    // Initial ids are 0..n-1, so the overlay-free fast path must be
    // bitwise the wrapped index's answer.
    EXPECT_EQ(live.search(ds.queries.view(), 10),
              ref->search(ds.queries.view(), 10));
}

/** Rebuild-from-union merges (every base type but IVF-Flat) are
 * bitwise a fresh build over the identically-ordered union dataset. */
void
checkMergeParityBitwise(const std::string &spec)
{
    const Dataset ds = smallDataset(300, 12, 16);
    const Dataset extra = smallDataset(8, 1, 16, 999);
    LiveConfig cfg;
    cfg.auto_merge = false;
    LiveIndex live(ds.metric, ds.base.view(), spec, cfg);

    const std::set<idx_t> deleted = {5, 17, 250};
    std::vector<std::pair<idx_t, std::vector<float>>> fresh;
    for (idx_t i = 0; i < extra.base.rows(); ++i) {
        const float *v = extra.base.row(i);
        fresh.emplace_back(1000 + i,
                           std::vector<float>(v, v + 16));
    }
    for (idx_t id : deleted)
        ASSERT_EQ(live.remove(id), MutateStatus::kOk);
    for (const auto &[id, vec] : fresh)
        ASSERT_EQ(live.insert(vec.data(), id), MutateStatus::kOk);
    ASSERT_TRUE(live.mergeNow());
    EXPECT_EQ(live.generation(), 1u);

    const UnionSet u = makeUnion(ds.base, deleted, fresh);
    ASSERT_EQ(u.points.rows(), live.size());
    const auto ref = buildIndex(ds.metric, u.points.view(), spec);
    auto expected = ref->search(ds.queries.view(), 10);
    for (auto &list : expected)
        for (auto &nb : list) // reference rows -> external ids
            nb.id = u.ids[static_cast<std::size_t>(nb.id)];
    EXPECT_EQ(live.search(ds.queries.view(), 10), expected);
}

TEST(LiveIndexParity, MergeBitwiseFlat)
{
    checkMergeParityBitwise("flat");
}

TEST(LiveIndexParity, MergeBitwiseIvfPq)
{
    checkMergeParityBitwise("ivfpq:nlist=8,m=4,entries=16,nprobe=4,seed=7");
}

TEST(LiveIndexParity, IncrementalIvfMergeRecallParity)
{
    const Dataset ds = smallDataset(1500, 24, 16);
    const Dataset extra = smallDataset(150, 1, 16, 31337);
    const std::string spec = "ivfflat:nlist=16,nprobe=4,seed=7";
    LiveConfig cfg;
    cfg.auto_merge = false;
    // An IVF-Flat merge reuses gen-0 centroids and skips k-means.
    LiveIndex live(ds.metric, ds.base.view(), spec, cfg);

    std::set<idx_t> deleted;
    for (idx_t id = 0; id < 50; ++id) {
        deleted.insert(id);
        ASSERT_EQ(live.remove(id), MutateStatus::kOk);
    }
    std::vector<std::pair<idx_t, std::vector<float>>> fresh;
    for (idx_t i = 0; i < extra.base.rows(); ++i) {
        const float *v = extra.base.row(i);
        fresh.emplace_back(10000 + i, std::vector<float>(v, v + 16));
        ASSERT_EQ(live.insert(fresh.back().second.data(), 10000 + i),
                  MutateStatus::kOk);
    }
    ASSERT_TRUE(live.mergeNow());

    const UnionSet u = makeUnion(ds.base, deleted, fresh);
    FlatIndex exact(ds.metric, u.points.view());
    auto truth = exact.search(ds.queries.view(), 10);
    for (auto &list : truth)
        for (auto &nb : list)
            nb.id = u.ids[static_cast<std::size_t>(nb.id)];
    const auto rebuilt = buildIndex(ds.metric, u.points.view(), spec);
    auto rebuilt_res = rebuilt->search(ds.queries.view(), 10);
    for (auto &list : rebuilt_res)
        for (auto &nb : list)
            nb.id = u.ids[static_cast<std::size_t>(nb.id)];

    // Recall parity: centroid reuse is approximate w.r.t. retrained
    // k-means, so compare retrieval quality, not bits.
    auto recallOf = [&](const SearchResults &got) {
        std::size_t hit = 0, total = 0;
        for (std::size_t q = 0; q < got.size(); ++q) {
            std::unordered_set<idx_t> want;
            for (const auto &nb : truth[q])
                want.insert(nb.id);
            for (const auto &nb : got[q])
                hit += want.count(nb.id);
            total += truth[q].size();
        }
        return static_cast<double>(hit) /
               static_cast<double>(total);
    };
    const double r_live = recallOf(live.search(ds.queries.view(), 10));
    const double r_rebuilt = recallOf(rebuilt_res);
    EXPECT_NEAR(r_live, r_rebuilt, 0.05);
    EXPECT_GT(r_live, 0.5);
}

TEST(LiveIndex, SnapshotGenerationsOnDisk)
{
    const Dataset ds = smallDataset();
    LiveConfig cfg;
    cfg.auto_merge = false;
    cfg.snapshot_dir = ::testing::TempDir();
    LiveIndex live(ds.metric, ds.base.view(), "flat", cfg);
    std::vector<float> vec(static_cast<std::size_t>(ds.base.cols()),
                           0.25f);
    ASSERT_EQ(live.insert(vec.data(), 900), MutateStatus::kOk);
    ASSERT_TRUE(live.mergeNow());

    const std::string path = cfg.snapshot_dir + "/gen-1.juno";
    const auto reopened = openIndex(path, SnapshotOptions{});
    EXPECT_EQ(reopened->size(), live.size());
    // The live index now serves through the mmap'd generation; its
    // answers match the independently reopened snapshot (mapped
    // through the identity row order of a no-delete merge).
    auto expected = reopened->search(ds.queries.view(), 10);
    const auto got = live.search(ds.queries.view(), 10);
    EXPECT_EQ(got.size(), expected.size());
    for (std::size_t q = 0; q < got.size(); ++q)
        EXPECT_EQ(got[q].size(), expected[q].size());
}

TEST(LiveIndex, DegradedMainScanStaysMarkedThroughOverlayMerge)
{
    const Dataset ds = smallDataset(600, 8, 16);
    LiveConfig cfg;
    cfg.auto_merge = false;
    LiveIndex live(ds.metric, ds.base.view(),
                   "ivfflat:nlist=8,nprobe=8,seed=3", cfg);
    // Non-pristine: one fresh row forces the overlay-merge path.
    const float *q0 = ds.queries.row(0);
    std::vector<float> vec(q0, q0 + ds.base.cols());
    ASSERT_EQ(live.insert(vec.data(), 4000), MutateStatus::kOk);

    std::vector<std::uint8_t> degraded;
    SearchRequest request(ds.queries.view(), SearchOptions{});
    request.options.k = 5;
    request.options.degraded = &degraded;
    // A deadline already in the past cuts the nested main-index scan
    // to its first probe list; the flag must survive the merge with
    // the fresh-buffer hits instead of being dropped with the nested
    // request.
    request.options.deadline =
        std::chrono::steady_clock::now() - std::chrono::seconds(1);
    const auto res = live.search(request);
    ASSERT_EQ(degraded.size(), static_cast<std::size_t>(8));
    for (std::size_t q = 0; q < degraded.size(); ++q)
        EXPECT_EQ(degraded[q], 1) << "query " << q;
    // The fresh buffer is still scanned exactly: the inserted copy of
    // query 0 wins despite the degraded main scan.
    EXPECT_EQ(res[0].front().id, 4000);
}

TEST(LiveIndex, ServiceMutationPlumbing)
{
    const Dataset ds = smallDataset();
    LiveConfig cfg;
    cfg.auto_merge = false;
    LiveIndex live(ds.metric, ds.base.view(), "flat", cfg);

    MetricsRegistry registry;
    ServiceConfig sc;
    sc.registry = &registry;
    SearchService service(live, sc);
    EXPECT_TRUE(service.liveEnabled());
    // Admission before start(): typed kStopped, never an exception.
    std::vector<float> vec(static_cast<std::size_t>(ds.base.cols()),
                           0.75f);
    EXPECT_EQ(service.insert(vec.data(), 800), MutateStatus::kStopped);
    service.start();

    const float *q0 = ds.queries.row(0);
    std::vector<float> qvec(q0, q0 + ds.base.cols());
    EXPECT_EQ(service.insert(qvec.data(), 800), MutateStatus::kOk);
    EXPECT_EQ(service.remove(2), MutateStatus::kOk);
    EXPECT_EQ(service.upsert(qvec.data(), 800), MutateStatus::kOk);
    EXPECT_EQ(service.remove(999999), MutateStatus::kUnknownId);

    // The write is visible through the serving read path.
    auto fut = service.submit(qvec, 1);
    EXPECT_EQ(fut.get().front().id, 800);

    const auto snap = service.snapshot();
    EXPECT_TRUE(snap.live_enabled);
    EXPECT_EQ(snap.live_inserts, 1u);
    EXPECT_EQ(snap.live_removes, 1u);
    EXPECT_EQ(snap.live_upserts, 1u);
    EXPECT_EQ(snap.live_rejected, 2u); // kStopped + kUnknownId
    EXPECT_EQ(snap.live.live_count, live.size());
    const std::string prom = registry.renderPrometheus();
    EXPECT_NE(prom.find("juno_live_ops_total"), std::string::npos);
    EXPECT_NE(prom.find("juno_live_fresh_rows"), std::string::npos);
    service.stop();
    EXPECT_EQ(service.insert(vec.data(), 801), MutateStatus::kStopped);
}

TEST(LiveIndex, ServiceOnImmutableIndexRefusesTyped)
{
    const Dataset ds = smallDataset();
    FlatIndex flat(ds.metric, ds.base.view());
    ServiceConfig sc;
    sc.metrics = false;
    SearchService service(flat, sc);
    service.start();
    EXPECT_FALSE(service.liveEnabled());
    std::vector<float> vec(static_cast<std::size_t>(ds.base.cols()),
                           0.0f);
    EXPECT_EQ(service.insert(vec.data(), 1),
              MutateStatus::kUnsupported);
    EXPECT_EQ(service.remove(1), MutateStatus::kUnsupported);
    EXPECT_FALSE(service.snapshot().live_enabled);
    service.stop();
}

TEST(LiveIndexStress, MergeVsSearch)
{
    const Dataset ds = smallDataset(400, 8, 8);
    const idx_t d = ds.base.cols();
    LiveConfig cfg;
    cfg.fresh_capacity = 512;
    cfg.merge_threshold = 48; // several background merges per run
    cfg.auto_merge = true;
    LiveIndex live(ds.metric, ds.base.view(), "flat", cfg);

    // Ids [0, 20) die before any reader starts and are never reused:
    // a search returning one is a correctness bug, not a race.
    for (idx_t id = 0; id < 20; ++id)
        ASSERT_EQ(live.remove(id), MutateStatus::kOk);

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> applied_inserts{0}, applied_removes{0};
    std::thread writer([&] {
        std::vector<float> vec(static_cast<std::size_t>(d));
        idx_t next_id = 1000;
        std::uint64_t i = 0;
        while (!stop.load()) {
            for (idx_t j = 0; j < d; ++j)
                vec[static_cast<std::size_t>(j)] =
                    static_cast<float>((next_id + j) % 97) * 0.01f;
            const MutateStatus st = live.insert(vec.data(), next_id);
            if (st == MutateStatus::kOk) {
                applied_inserts.fetch_add(1);
                if (next_id % 3 == 0 &&
                    live.remove(next_id) == MutateStatus::kOk)
                    applied_removes.fetch_add(1);
                ++next_id;
            } else {
                std::this_thread::yield();
            }
            if (++i % 16 == 0) // steady upsert pressure on main rows
                live.upsert(vec.data(),
                            20 + static_cast<idx_t>(i % 380));
        }
    });

    std::vector<std::thread> readers;
    std::atomic<int> violations{0};
    for (int r = 0; r < 2; ++r)
        readers.emplace_back([&] {
            for (int it = 0; it < 150 && violations.load() == 0;
                 ++it) {
                const auto res = live.search(ds.queries.view(), 10);
                for (const auto &list : res) {
                    if (!idsUnique(list)) {
                        violations.fetch_add(1);
                        break;
                    }
                    for (const auto &nb : list) {
                        const bool ghost = nb.id < 20;
                        const bool alien =
                            nb.id >= 400 && nb.id < 1000;
                        if (ghost || alien) {
                            violations.fetch_add(1);
                            break;
                        }
                    }
                }
            }
        });
    for (auto &t : readers)
        t.join();
    stop.store(true);
    writer.join();
    EXPECT_EQ(violations.load(), 0);

    // Op conservation: every applied mutation is accounted for in the
    // final live count (writers only remove ids they inserted).
    const LiveStats stats = live.liveStats();
    EXPECT_EQ(stats.inserts, applied_inserts.load());
    EXPECT_EQ(stats.removes, applied_removes.load() + 20);
    EXPECT_EQ(static_cast<std::uint64_t>(stats.live_count),
              380 + applied_inserts.load() - applied_removes.load());
    EXPECT_GT(stats.merges, 0u); // the background thread really ran
}

TEST(LiveIndexStress, SwapVsReader)
{
    const Dataset ds = smallDataset(300, 6, 8);
    const idx_t d = ds.base.cols();
    LiveConfig cfg;
    cfg.auto_merge = false; // swaps driven synchronously below
    LiveIndex live(ds.metric, ds.base.view(), "flat", cfg);

    std::atomic<bool> stop{false};
    std::atomic<int> violations{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < 3; ++r)
        readers.emplace_back([&] {
            while (!stop.load() && violations.load() == 0) {
                const auto res = live.search(ds.queries.view(), 8);
                for (const auto &list : res)
                    if (list.empty() || !idsUnique(list))
                        violations.fetch_add(1);
            }
        });

    // 20 generations swap under the readers, each with interleaved
    // inserts and deletes of the previous round's rows.
    std::vector<float> vec(static_cast<std::size_t>(d), 0.125f);
    idx_t next_id = 5000;
    for (int round = 0; round < 20; ++round) {
        for (int i = 0; i < 8; ++i)
            live.insert(vec.data(), next_id++);
        live.remove(next_id - 3);
        live.mergeNow();
    }
    stop.store(true);
    for (auto &t : readers)
        t.join();
    EXPECT_EQ(violations.load(), 0);
    EXPECT_EQ(live.generation(), 20u);
    EXPECT_EQ(live.liveStats().generations_published, 20u);
    // 300 initial + 160 inserts - 20 deletes.
    EXPECT_EQ(live.size(), 440);
}

} // namespace
} // namespace juno
