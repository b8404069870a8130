#include "baseline/hnsw.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/distance.h"
#include "common/logging.h"
#include "common/simd.h"
#include "registry/index_spec.h"
#include "registry/snapshot.h"

namespace juno {

namespace {
/** Snapshot meta-section format of this index type. */
constexpr std::uint32_t kFormatVersion = 2;

/** Range checks shared by build(), loadGraph() and fromSpec(). */
void
checkParams(const Hnsw::Params &params)
{
    JUNO_REQUIRE(params.m >= 2, "HNSW m must be >= 2");
    JUNO_REQUIRE(params.ef_construction >= params.m,
                 "ef_construction must be >= m");
}
} // namespace

Hnsw::Params
Hnsw::fromSpec(const IndexSpec &spec)
{
    spec.requireKnown({"m", "efc", "ef", "seed"});
    Params p;
    p.m = static_cast<int>(spec.getInt("m", p.m));
    p.ef_construction =
        static_cast<int>(spec.getInt("efc", p.ef_construction));
    p.ef_search = static_cast<int>(spec.getInt("ef", p.ef_search));
    p.seed = static_cast<std::uint64_t>(
        spec.getInt("seed", static_cast<long>(p.seed)));
    checkParams(p);
    return p;
}

std::string
Hnsw::name() const
{
    return "HNSW(m=" + std::to_string(params_.m) +
           ",ef=" + std::to_string(params_.ef_search) + ")";
}

std::string
Hnsw::spec() const
{
    IndexSpec spec;
    spec.type = "hnsw";
    spec.setInt("m", params_.m);
    spec.setInt("efc", params_.ef_construction);
    spec.setInt("ef", params_.ef_search);
    spec.setInt("seed", static_cast<long>(params_.seed));
    return spec.toString();
}

void
Hnsw::saveGraph(SnapshotWriter &writer, const std::string &prefix) const
{
    JUNO_REQUIRE(built(), "save before build");
    Writer &meta = writer.section(prefix + "meta");
    meta.writePod<std::uint32_t>(kFormatVersion);
    writeMetricTag(meta, metric_);
    meta.writePod<std::int64_t>(points_.rows());
    meta.writePod<std::int64_t>(points_.cols());
    meta.writePod<std::int64_t>(entry_point_);
    meta.writePod<std::int32_t>(max_level_);

    // Adjacency as one CSR per level: offsets (n + 1) then flat ids.
    Writer &graph = writer.section(prefix + "graph");
    graph.writePod<std::uint64_t>(layers_.size());
    graph.writeVector(node_level_);
    for (const auto &layer : layers_) {
        std::vector<std::uint64_t> offsets;
        offsets.reserve(layer.size() + 1);
        std::vector<idx_t> flat;
        offsets.push_back(0);
        for (const auto &neighbors : layer) {
            flat.insert(flat.end(), neighbors.begin(), neighbors.end());
            offsets.push_back(flat.size());
        }
        graph.writeVector(offsets);
        graph.writeVector(flat);
    }

    writer.addBlob(prefix + "points", points_.data(),
                   static_cast<std::size_t>(points_.rows()) *
                       static_cast<std::size_t>(points_.cols()) *
                       sizeof(float));
}

void
Hnsw::loadGraph(SnapshotReader &reader, const std::string &prefix,
                const Params &params)
{
    const std::string what = reader.path() + " [" + prefix + "hnsw]";
    auto meta = reader.stream(prefix + "meta");
    checkFormatVersion(meta, kFormatVersion, what);
    checkParams(params);
    params_ = params;
    metric_ = readMetricTag(meta);
    const auto rows = meta.readPod<std::int64_t>();
    const auto cols = meta.readPod<std::int64_t>();
    entry_point_ = meta.readPod<std::int64_t>();
    max_level_ = meta.readPod<std::int32_t>();
    JUNO_REQUIRE(rows > 0 && cols > 0 && entry_point_ >= 0 &&
                     entry_point_ < rows &&
                     max_level_ >= 0,
                 what << ": corrupt graph header");

    auto graph = reader.stream(prefix + "graph");
    const auto levels = graph.readPod<std::uint64_t>();
    JUNO_REQUIRE(levels > 0 &&
                     levels == static_cast<std::uint64_t>(max_level_) + 1,
                 what << ": level count mismatch");
    node_level_ = graph.readVector<int>();
    JUNO_REQUIRE(node_level_.size() == static_cast<std::size_t>(rows),
                 what << ": node level table size mismatch");
    layers_.assign(static_cast<std::size_t>(levels), {});
    for (auto &layer : layers_) {
        const auto offsets = graph.readVector<std::uint64_t>();
        const auto flat = graph.readVector<idx_t>();
        JUNO_REQUIRE(offsets.size() ==
                             static_cast<std::size_t>(rows) + 1 &&
                         offsets.front() == 0 &&
                         offsets.back() == flat.size(),
                     what << ": corrupt adjacency CSR");
        layer.resize(static_cast<std::size_t>(rows));
        for (std::size_t node = 0; node < layer.size(); ++node) {
            JUNO_REQUIRE(offsets[node] <= offsets[node + 1],
                         what << ": corrupt adjacency CSR");
            layer[node].assign(flat.begin() + static_cast<std::ptrdiff_t>(
                                                  offsets[node]),
                               flat.begin() + static_cast<std::ptrdiff_t>(
                                                  offsets[node + 1]));
            for (const idx_t nb : layer[node])
                JUNO_REQUIRE(nb >= 0 && nb < rows,
                             what << ": neighbour id out of range");
        }
    }

    points_ = reader.blob(prefix + "points")
                  .matrix(rows, cols, what + " points");
}

void
Hnsw::saveSections(SnapshotWriter &writer) const
{
    saveGraph(writer, "");
}

std::unique_ptr<Hnsw>
Hnsw::open(SnapshotReader &reader)
{
    auto index = std::make_unique<Hnsw>();
    index->loadGraph(reader, "",
                     fromSpec(IndexSpec::parse(reader.spec())));
    return index;
}

float
Hnsw::scoreOf(const float *query, idx_t node) const
{
    return score(metric_, query, points_.row(node), points_.cols());
}

void
Hnsw::build(Metric metric, FloatMatrixView points, const Params &params)
{
    JUNO_REQUIRE(points.rows() > 0, "empty point set");
    checkParams(params);

    metric_ = metric;
    params_ = params;
    FloatMatrix copy(points.rows(), points.cols());
    std::copy_n(points.data(),
                static_cast<std::size_t>(points.rows() * points.cols()),
                copy.data());
    points_ = std::move(copy);

    const idx_t n = points.rows();
    Rng rng(params.seed);
    VisitedSet visited;
    const double level_mult = 1.0 / std::log(static_cast<double>(params.m));

    node_level_.resize(static_cast<std::size_t>(n));
    layers_.clear();
    entry_point_ = -1;
    max_level_ = -1;

    for (idx_t node = 0; node < n; ++node) {
        // Exponentially distributed level (standard HNSW draw).
        double u;
        do {
            u = rng.uniform();
        } while (u <= 0.0);
        const int level =
            static_cast<int>(std::floor(-std::log(u) * level_mult));
        node_level_[static_cast<std::size_t>(node)] = level;

        while (static_cast<int>(layers_.size()) <= level)
            layers_.emplace_back(static_cast<std::size_t>(n));

        if (entry_point_ < 0) {
            entry_point_ = node;
            max_level_ = level;
            continue;
        }

        idx_t entry = entry_point_;
        // Greedy descent through levels above the node's level.
        for (int l = max_level_; l > level; --l)
            entry = greedyDescend(points_.row(node), entry, l);

        // Beam-search insert on each level from min(level, max) down.
        for (int l = std::min(level, max_level_); l >= 0; --l) {
            auto candidates = searchLayer(points_.row(node), entry,
                                          params.ef_construction, l,
                                          visited);
            const int m = l == 0 ? 2 * params.m : params.m;
            connect(node, l, candidates, m);
            if (!candidates.empty())
                entry = candidates[0].id;
        }

        if (level > max_level_) {
            max_level_ = level;
            entry_point_ = node;
        }
    }
}

idx_t
Hnsw::greedyDescend(const float *query, idx_t entry, int level) const
{
    float best = scoreOf(query, entry);
    bool improved = true;
    while (improved) {
        improved = false;
        for (idx_t nb :
             layers_[static_cast<std::size_t>(level)]
                    [static_cast<std::size_t>(entry)]) {
            const float s = scoreOf(query, nb);
            if (isBetter(metric_, s, best)) {
                best = s;
                entry = nb;
                improved = true;
            }
        }
    }
    return entry;
}

std::vector<Neighbor>
Hnsw::searchLayer(const float *query, idx_t entry, int ef, int level,
                  VisitedSet &visited) const
{
    // Candidate frontier with the *best* candidate at top(): the
    // comparator must order worse elements first.
    auto worse = [this](const Neighbor &a, const Neighbor &b) {
        return isBetter(metric_, b.score, a.score);
    };
    std::priority_queue<Neighbor, std::vector<Neighbor>, decltype(worse)>
        best_frontier(worse);

    visited.reset(points_.rows());
    const Neighbor start{entry, scoreOf(query, entry)};
    best_frontier.push(start);
    visited.insert(entry);

    TopK results(ef, metric_);
    results.push(start.id, start.score);

    // Neighbor-expansion scratch: unvisited adjacency rows are
    // gathered contiguously and scored in one batched kernel call per
    // expansion instead of one dispatched call per neighbor. The
    // batch kernel's per-row accumulation is bitwise identical to the
    // single-pair kernel (the simd layer's documented contract), so
    // traversal order and results are unchanged. The buffers are
    // thread-local so this hot path stays allocation-free in steady
    // state while remaining safe for concurrent callers (the IVFPQ
    // router probes from parallel search workers).
    const idx_t d = points_.cols();
    thread_local std::vector<idx_t> fresh;
    thread_local std::vector<float> rows;
    thread_local std::vector<float> scores;

    while (!best_frontier.empty()) {
        const Neighbor cand = best_frontier.top();
        best_frontier.pop();
        // Stop when the best remaining candidate is worse than the
        // worst accepted result and the result set is full.
        if (results.full() &&
            !isBetter(metric_, cand.score, results.worstAccepted()))
            break;
        fresh.clear();
        for (idx_t nb :
             layers_[static_cast<std::size_t>(level)]
                    [static_cast<std::size_t>(cand.id)]) {
            if (visited.insert(nb))
                fresh.push_back(nb);
        }
        if (fresh.empty())
            continue;
        const auto cnt = fresh.size();
        // Independent guards: the thread-local buffers outlive this
        // index, so rows may already be large (grown by a wider index
        // on this thread) while scores still lags cnt.
        if (rows.size() < cnt * static_cast<std::size_t>(d))
            rows.resize(cnt * static_cast<std::size_t>(d));
        if (scores.size() < cnt)
            scores.resize(cnt);
        for (std::size_t i = 0; i < cnt; ++i) {
            const float *src = points_.row(fresh[i]);
            if (i + 1 < cnt)
                __builtin_prefetch(points_.row(fresh[i + 1]));
            std::copy_n(src, static_cast<std::size_t>(d),
                        rows.data() + i * static_cast<std::size_t>(d));
        }
        simd::scoreBatch(metric_, query, rows.data(),
                         static_cast<idx_t>(cnt), d, scores.data());
        for (std::size_t i = 0; i < cnt; ++i) {
            const float s = scores[i];
            if (!results.full() ||
                isBetter(metric_, s, results.worstAccepted())) {
                results.push(fresh[i], s);
                best_frontier.push({fresh[i], s});
            }
        }
    }
    return results.take();
}

std::vector<idx_t>
Hnsw::selectHeuristic(idx_t base, const std::vector<Neighbor> &candidates,
                      int m) const
{
    // Algorithm 4 of the HNSW paper: accept a candidate only if it is
    // closer to the base than to every already-accepted neighbour.
    // This spreads edges across directions and keeps clustered data
    // connected (plain closest-m creates disconnected cliques).
    std::vector<idx_t> selected;
    for (const auto &cand : candidates) {
        if (cand.id == base)
            continue;
        if (static_cast<int>(selected.size()) >= m)
            break;
        bool diverse = true;
        for (idx_t kept : selected) {
            const float cand_to_kept =
                scoreOf(points_.row(cand.id), kept);
            if (isBetter(metric_, cand_to_kept, cand.score)) {
                diverse = false;
                break;
            }
        }
        if (diverse)
            selected.push_back(cand.id);
    }
    // Backfill with the closest skipped candidates if diversity left
    // slots unused (keepPrunedConnections in the reference code).
    if (static_cast<int>(selected.size()) < m) {
        for (const auto &cand : candidates) {
            if (static_cast<int>(selected.size()) >= m)
                break;
            if (cand.id == base)
                continue;
            if (std::find(selected.begin(), selected.end(), cand.id) ==
                selected.end())
                selected.push_back(cand.id);
        }
    }
    return selected;
}

void
Hnsw::connect(idx_t node, int level,
              const std::vector<Neighbor> &candidates, int m)
{
    auto &layer = layers_[static_cast<std::size_t>(level)];
    auto &adj = layer[static_cast<std::size_t>(node)];
    for (idx_t chosen : selectHeuristic(node, candidates, m)) {
        adj.push_back(chosen);
        auto &back = layer[static_cast<std::size_t>(chosen)];
        back.push_back(node);
        // Prune the reverse list if it overflows, re-applying the
        // diversity heuristic from the overflowing node's viewpoint.
        if (static_cast<int>(back.size()) > m) {
            std::vector<Neighbor> back_cands;
            back_cands.reserve(back.size());
            for (idx_t nb : back)
                back_cands.push_back(
                    {nb, scoreOf(points_.row(chosen), nb)});
            std::sort(back_cands.begin(), back_cands.end(),
                      [this](const Neighbor &a, const Neighbor &b) {
                          if (a.score != b.score)
                              return isBetter(metric_, a.score, b.score);
                          return a.id < b.id;
                      });
            back = selectHeuristic(chosen, back_cands, m);
        }
    }
}

std::vector<Neighbor>
Hnsw::searchImpl(const float *query, idx_t k, int ef,
                 VisitedSet &visited) const
{
    JUNO_REQUIRE(built(), "search before build");
    JUNO_REQUIRE(k > 0, "k must be positive");
    ef = std::max<int>(ef, static_cast<int>(k));

    idx_t entry = entry_point_;
    for (int l = max_level_; l > 0; --l)
        entry = greedyDescend(query, entry, l);
    auto found = searchLayer(query, entry, ef, 0, visited);
    if (static_cast<idx_t>(found.size()) > k)
        found.resize(static_cast<std::size_t>(k));
    return found;
}

std::vector<Neighbor>
Hnsw::search(const float *query, idx_t k, int ef) const
{
    // Local scratch: this entry point stays safe to call concurrently
    // (the IVFPQ router probes from parallel search workers).
    VisitedSet visited;
    return searchImpl(query, k, ef, visited);
}

void
Hnsw::searchChunk(const SearchChunk &chunk, SearchContext &ctx)
{
    StageScope t(ctx, Stage::kGraph);
    for (idx_t qi = chunk.begin; qi < chunk.end; ++qi)
        (*chunk.results)[static_cast<std::size_t>(qi)] = searchImpl(
            chunk.queries.row(qi), chunk.k, params_.ef_search, ctx.visited);
}

const std::vector<idx_t> &
Hnsw::neighbors(int level, idx_t node) const
{
    JUNO_REQUIRE(level >= 0 &&
                     level < static_cast<int>(layers_.size()),
                 "bad level " << level);
    return layers_[static_cast<std::size_t>(level)]
                  [static_cast<std::size_t>(node)];
}

} // namespace juno
