#include "core/rt_exact_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/logging.h"
#include "registry/snapshot.h"

namespace juno {

namespace {
/** Snapshot meta-section format of this index type. */
constexpr std::uint32_t kFormatVersion = 1;
} // namespace

RtExactIndex::RtExactIndex(FloatMatrixView points)
    : num_points_(points.rows()), dim_(points.cols())
{
    JUNO_REQUIRE(num_points_ > 0, "empty point set");
    JUNO_REQUIRE(dim_ % 2 == 0,
                 "RT exact search requires an even dimension");
    FloatMatrix copy(points.rows(), points.cols());
    std::copy_n(points.data(),
                static_cast<std::size_t>(points.rows() * points.cols()),
                copy.data());
    points_ = std::move(copy);
    buildScene();
}

void
RtExactIndex::buildScene()
{
    const FloatMatrixView points = points_.view();
    subspaces_ = static_cast<int>(dim_ / 2);
    coord_scale_.assign(static_cast<std::size_t>(subspaces_), 0.0f);
    scene_ = rt::Scene();

    for (int s = 0; s < subspaces_; ++s) {
        // Coordinate scale: the subspace bounding-box diameter times a
        // generous margin must map under the sphere radius, so any
        // query within several data diameters still hits every point.
        float min_x = points.at(0, 2 * s), max_x = min_x;
        float min_y = points.at(0, 2 * s + 1), max_y = min_y;
        for (idx_t p = 1; p < num_points_; ++p) {
            min_x = std::min(min_x, points.at(p, 2 * s));
            max_x = std::max(max_x, points.at(p, 2 * s));
            min_y = std::min(min_y, points.at(p, 2 * s + 1));
            max_y = std::max(max_y, points.at(p, 2 * s + 1));
        }
        const float dx = max_x - min_x, dy = max_y - min_y;
        const float diameter =
            std::max(1e-6f, std::sqrt(dx * dx + dy * dy));
        const float margin = 8.0f;
        coord_scale_[static_cast<std::size_t>(s)] =
            kRadius * 0.98f / (diameter * margin);

        const float kappa = coord_scale_[static_cast<std::size_t>(s)];
        const float z = kZSpacing * static_cast<float>(s) + 1.0f;
        for (idx_t p = 0; p < num_points_; ++p) {
            rt::Sphere sphere;
            sphere.center = {points.at(p, 2 * s) * kappa,
                             points.at(p, 2 * s + 1) * kappa, z};
            sphere.radius = kRadius;
            // Point p of subspace s is prim s * N + p (searchChunk's
            // record ranges).
            scene_.addSphere(sphere);
        }
    }
    scene_.build();
}

/** Per-worker accumulators; persist across chunks via the context. */
struct RtExactIndex::Worker {
    /** One subspace's hit times, one cell per point (NaN = miss). */
    std::vector<float> tile;
    std::vector<float> acc;
    std::vector<std::int32_t> seen;
    rt::RtDevice device;
};

std::string
RtExactIndex::name() const
{
    return "RT-Exact(L2)";
}

std::string
RtExactIndex::spec() const
{
    return "rtexact";
}

void
RtExactIndex::saveSections(SnapshotWriter &writer) const
{
    Writer &meta = writer.section("meta");
    meta.writePod<std::uint32_t>(kFormatVersion);
    meta.writePod<std::int64_t>(num_points_);
    meta.writePod<std::int64_t>(dim_);
    writer.addBlob("points", points_.data(),
                   static_cast<std::size_t>(num_points_) *
                       static_cast<std::size_t>(dim_) * sizeof(float));
}

std::unique_ptr<RtExactIndex>
RtExactIndex::open(SnapshotReader &reader)
{
    auto meta = reader.stream("meta");
    checkFormatVersion(meta, kFormatVersion,
                       reader.path() + " [rtexact]");
    std::unique_ptr<RtExactIndex> index(new RtExactIndex());
    index->num_points_ = meta.readPod<std::int64_t>();
    index->dim_ = meta.readPod<std::int64_t>();
    JUNO_REQUIRE(index->num_points_ > 0 && index->dim_ > 0 &&
                     index->dim_ % 2 == 0,
                 reader.path() << ": corrupt rtexact index header");
    index->points_ = reader.blob("points").matrix(
        index->num_points_, index->dim_, reader.path() + " [points]");
    index->buildScene();
    return index;
}

void
RtExactIndex::searchChunk(const SearchChunk &chunk, SearchContext &ctx)
{
    auto &w = ctx.scratch<Worker>(
        [] { return std::make_unique<Worker>(); });
    const auto n = static_cast<std::size_t>(num_points_);
    w.tile.resize(n);
    w.acc.resize(n);
    w.seen.resize(n);
    w.device.setMode(device_.mode());

    StageScope timer(ctx, Stage::kRtExact);
    for (idx_t qi = chunk.begin; qi < chunk.end; ++qi) {
        const float *q = chunk.queries.row(qi);
        std::fill(w.acc.begin(), w.acc.end(), 0.0f);
        std::fill(w.seen.begin(), w.seen.end(), 0);
        // One lone ray per subspace, recording that subspace's points;
        // each point sums its subspaces in order s = 0..S-1.
        for (int s = 0; s < subspaces_; ++s) {
            const float kappa = coord_scale_[static_cast<std::size_t>(s)];
            rt::Ray ray;
            ray.origin = {q[2 * s] * kappa, q[2 * s + 1] * kappa,
                          kZSpacing * static_cast<float>(s)};
            ray.dir = {0, 0, 1};
            ray.tmin = 0.0f;
            ray.tmax = 1.0f; // hit everything in the subspace plane
            std::fill(w.tile.begin(), w.tile.end(),
                      std::numeric_limits<float>::quiet_NaN());
            w.device.traceTile(
                scene_, &ray, 1,
                {static_cast<std::uint32_t>(s) *
                     static_cast<std::uint32_t>(n),
                 static_cast<std::uint32_t>(n)},
                w.tile.data());
            for (std::size_t p = 0; p < n; ++p) {
                const float thit = w.tile[p];
                if (std::isnan(thit))
                    continue;
                const float one_minus = 1.0f - thit;
                // Exact subspace distance from the hit time (Fig. 9
                // left).
                w.acc[p] += (kRadius * kRadius - one_minus * one_minus) /
                            (kappa * kappa);
                ++w.seen[p];
            }
        }

        TopK top(std::min(chunk.k, num_points_), Metric::kL2);
        for (idx_t p = 0; p < num_points_; ++p) {
            // A query too far outside the data's bounding region can
            // miss points entirely; those cannot be scored exactly and
            // are excluded (the accuracy guarantee covers in-domain
            // queries; see the header).
            if (w.seen[static_cast<std::size_t>(p)] == subspaces_)
                top.push(p, w.acc[static_cast<std::size_t>(p)]);
        }
        (*chunk.results)[static_cast<std::size_t>(qi)] = top.take();
    }

    MutexLock lock(stats_mutex_);
    device_.mergeStats(w.device.totalStats());
    w.device.resetStats();
}

} // namespace juno
