#include "baseline/ivfflat_index.h"

#include <algorithm>

#include "common/distance.h"
#include "common/logging.h"
#include "common/simd.h"
#include "registry/index_spec.h"
#include "registry/snapshot.h"

namespace juno {

namespace {
/** Snapshot meta-section format of this index type. */
constexpr std::uint32_t kFormatVersion = 2;
} // namespace

IvfFlatIndex::Params
IvfFlatIndex::fromSpec(const IndexSpec &spec)
{
    spec.requireKnown({"nlist", "nprobe", "seed", "iters", "train"});
    Params p;
    p.clusters = static_cast<int>(spec.getInt("nlist", p.clusters));
    p.nprobs = spec.getInt("nprobe", p.nprobs);
    p.seed = static_cast<std::uint64_t>(
        spec.getInt("seed", static_cast<long>(p.seed)));
    p.max_iters = static_cast<int>(spec.getInt("iters", p.max_iters));
    p.max_training_points = spec.getInt("train", p.max_training_points);
    JUNO_REQUIRE(p.nprobs > 0, "nprobs must be positive");
    return p;
}

IvfFlatIndex::IvfFlatIndex(Metric metric, FloatMatrixView points,
                           const Params &params)
    : metric_(metric), params_(params)
{
    JUNO_REQUIRE(params.nprobs > 0, "nprobs must be positive");
    FloatMatrix copy(points.rows(), points.cols());
    std::copy_n(points.data(),
                static_cast<std::size_t>(points.rows() * points.cols()),
                copy.data());
    points_ = std::move(copy);
    InvertedFileIndex::Params ivf_params;
    ivf_params.clusters = params.clusters;
    ivf_params.seed = params.seed;
    ivf_params.max_iters = params.max_iters;
    ivf_params.max_training_points = params.max_training_points;
    ivf_.build(points_.view(), ivf_params);

    buildFilterOperands();
}

IvfFlatIndex::IvfFlatIndex(Metric metric, FloatMatrixView points,
                           const Params &params,
                           const FloatMatrix &centroids)
    : metric_(metric), params_(params)
{
    JUNO_REQUIRE(params.nprobs > 0, "nprobs must be positive");
    JUNO_REQUIRE(centroids.rows() == params.clusters,
                 "centroid count does not match params.clusters");
    FloatMatrix copy(points.rows(), points.cols());
    std::copy_n(points.data(),
                static_cast<std::size_t>(points.rows() * points.cols()),
                copy.data());
    points_ = std::move(copy);
    FloatMatrix ctr(centroids.rows(), centroids.cols());
    std::copy_n(centroids.data(),
                static_cast<std::size_t>(centroids.rows() *
                                         centroids.cols()),
                ctr.data());
    ivf_.assign(points_.view(), std::move(ctr));
    buildFilterOperands();
}

void
IvfFlatIndex::buildFilterOperands()
{
    // GEMM operands of the batched filter: the centroid table
    // transposed to d x C, plus per-centroid squared norms for the L2
    // identity |q - c|^2 = |q|^2 + |c|^2 - 2<q, c>.
    const idx_t C = ivf_.numClusters();
    const idx_t d = points_.cols();
    centroids_t_ = FloatMatrix(d, C);
    for (idx_t c = 0; c < C; ++c) {
        const float *row = ivf_.centroids().row(c);
        for (idx_t j = 0; j < d; ++j)
            centroids_t_.at(j, c) = row[j];
    }
    if (metric_ == Metric::kL2) {
        centroid_norms_.resize(static_cast<std::size_t>(C));
        for (idx_t c = 0; c < C; ++c)
            centroid_norms_[static_cast<std::size_t>(c)] =
                simd::l2NormSqr(ivf_.centroids().row(c), d);
    }
}

std::string
IvfFlatIndex::name() const
{
    return "IVF" + std::to_string(ivf_.numClusters()) + ",Flat";
}

std::string
IvfFlatIndex::spec() const
{
    IndexSpec spec;
    spec.type = "ivfflat";
    spec.setInt("nlist", params_.clusters);
    spec.setInt("nprobe", params_.nprobs);
    spec.setInt("seed", static_cast<long>(params_.seed));
    spec.setInt("iters", params_.max_iters);
    spec.setInt("train", params_.max_training_points);
    return spec.toString();
}

void
IvfFlatIndex::saveSections(SnapshotWriter &writer) const
{
    Writer &meta = writer.section("meta");
    meta.writePod<std::uint32_t>(kFormatVersion);
    writeMetricTag(meta, metric_);
    meta.writePod<std::int64_t>(points_.rows());
    meta.writePod<std::int64_t>(points_.cols());
    ivf_.save(writer.section("ivf"));
    writer.addBlob("points", points_.data(),
                   static_cast<std::size_t>(points_.rows()) *
                       static_cast<std::size_t>(points_.cols()) *
                       sizeof(float));
}

std::unique_ptr<IvfFlatIndex>
IvfFlatIndex::open(SnapshotReader &reader)
{
    auto meta = reader.stream("meta");
    checkFormatVersion(meta, kFormatVersion,
                       reader.path() + " [ivfflat]");
    std::unique_ptr<IvfFlatIndex> index(new IvfFlatIndex());
    index->params_ = fromSpec(IndexSpec::parse(reader.spec()));
    index->metric_ = readMetricTag(meta);
    const auto rows = meta.readPod<std::int64_t>();
    const auto cols = meta.readPod<std::int64_t>();
    JUNO_REQUIRE(rows > 0 && cols > 0,
                 reader.path() << ": corrupt ivfflat index header");

    auto ivf_stream = reader.stream("ivf");
    index->ivf_.load(ivf_stream);
    JUNO_REQUIRE(index->ivf_.dim() == cols &&
                     index->ivf_.numClusters() == index->params_.clusters,
                 reader.path() << ": IVF disagrees with the point "
                                  "dimension or the spec's nlist");
    index->points_ =
        reader.blob("points").matrix(rows, cols,
                                     reader.path() + " [points]");
    index->buildFilterOperands();
    return index;
}

namespace {
/**
 * Queries scored per GEMM call. The tile's cross-query amortisation
 * saturates here (bench_micro_kernels gemmBatchWidth), and bounding
 * the block keeps the score scratch at block x C floats however
 * large a caller's chunk is (a 100k-query batch must not allocate a
 * 100k x C matrix per context).
 */
constexpr idx_t kFilterBlock = 16;

/** Per-worker out-of-core scratch (ctx.scratch slot). */
struct FlatOocScratch {
    /** Contiguous re-materialisation of one cold list's rows. */
    std::vector<float> gather;
};
} // namespace

void
IvfFlatIndex::filterBlock(const SearchChunk &chunk, idx_t begin,
                          idx_t end, SearchContext &ctx)
{
    const idx_t d = points_.cols();
    const idx_t C = ivf_.numClusters();
    const idx_t m = end - begin;

    // Bitwise chunk-shape invariance: every output element of the
    // dispatched GEMM is a fixed-order accumulation chain over d that
    // depends only on its own query row and the table — provided no
    // kernel falls into a differently-rounded column-tail path, which
    // the tile guarantees when C is a multiple of the 16-wide tile.
    // Otherwise pad the query block to the 4-row tile height so every
    // row takes the full-tile path regardless of m.
    const float *queries = chunk.queries.row(begin);
    idx_t rows = m;
    if (C % 16 != 0 && m % 4 != 0) {
        rows = (m + 3) / 4 * 4;
        ctx.residual.resize(static_cast<std::size_t>(rows) *
                            static_cast<std::size_t>(d));
        std::copy_n(queries,
                    static_cast<std::size_t>(m) *
                        static_cast<std::size_t>(d),
                    ctx.residual.begin());
        for (idx_t r = m; r < rows; ++r) // pad rows: repeat query 0
            std::copy_n(queries, static_cast<std::size_t>(d),
                        ctx.residual.begin() +
                            static_cast<std::size_t>(r) *
                                static_cast<std::size_t>(d));
        queries = ctx.residual.data();
    }

    ctx.scores.resize(static_cast<std::size_t>(rows) *
                      static_cast<std::size_t>(C));
    simd::active().gemm(queries, centroids_t_.data(), ctx.scores.data(),
                        rows, d, C);

    if (metric_ == Metric::kL2) {
        for (idx_t i = 0; i < m; ++i) {
            const float qn =
                simd::l2NormSqr(chunk.queries.row(begin + i), d);
            float *row = ctx.scores.data() +
                         static_cast<std::size_t>(i) *
                             static_cast<std::size_t>(C);
            for (idx_t c = 0; c < C; ++c)
                row[c] = (qn + centroid_norms_[static_cast<
                                   std::size_t>(c)]) -
                         2.0f * row[c];
        }
    }
}

void
IvfFlatIndex::searchChunk(const SearchChunk &chunk, SearchContext &ctx)
{
    const idx_t d = points_.cols();
    const idx_t C = ivf_.numClusters();
    const auto &kernels = simd::active();
    ProbeLoop loop(ctx, &cache_slot_);
    HotListCache *cache = loop.cache();
    ProbePlan &plan = ctx.scratch<ProbePlan>(
        [] { return std::make_unique<ProbePlan>(); });
    FlatOocScratch *ooc =
        cache != nullptr
            ? &ctx.scratch<FlatOocScratch>(
                  [] { return std::make_unique<FlatOocScratch>(); })
            : nullptr;
    for (idx_t block = chunk.begin; block < chunk.end;
         block += kFilterBlock) {
        const idx_t block_end =
            std::min(chunk.end, block + kFilterBlock);
        {
            // Stage A once per query block: this is where batching
            // pays — the centroid table streams once per block
            // instead of once per query.
            StageScope t(ctx, Stage::kFilter);
            filterBlock(chunk, block, block_end, ctx);
        }
        for (idx_t qi = block; qi < block_end; ++qi) {
            const float *q = chunk.queries.row(qi);
            {
                StageScope t(ctx, Stage::kFilter);
                const float *scores =
                    ctx.scores.data() +
                    static_cast<std::size_t>(qi - block) *
                        static_cast<std::size_t>(C);
                loop.plan(qi, params_.nprobs, plan,
                          [&](idx_t n, std::vector<Neighbor> &probes) {
                              probes = selectTopK(metric_, scores, C,
                                                  std::min(n, C));
                          });
            }
            StageScope t(ctx, Stage::kScan);
            TopK top(std::min(chunk.k, points_.rows()), metric_);
            const auto push = [&](idx_t id, const float *row) {
                top.push(id, metric_ == Metric::kL2
                                 ? kernels.l2_sqr(q, row, d)
                                 : kernels.inner_product(q, row, d));
            };
            // Inverted lists hold scattered ids, so the contiguous
            // batch kernel does not apply; the single-row kernel
            // still runs through the dispatched table. Each row fetch
            // is a data-dependent random load — prefetching a couple
            // of ids ahead overlaps the miss with the current row's
            // reduction.
            //
            // With a hot-list cache attached, a pinned list scans its
            // contiguous heap copy (fault-free, streaming); a cold
            // list gathers its rows once into contiguous scratch,
            // scans that, and offers it for admission — same bytes
            // through the same kernel in the same push order, so
            // results are bitwise identical to the plain path.
            loop.scan(qi, plan, [&](const PlannedProbe &pp) {
                const auto &ids = ivf_.list(pp.list);
                const std::size_t ln = ids.size();
                const std::size_t row = static_cast<std::size_t>(d);
                if (pp.pinned != nullptr) {
                    const float *rows = pp.pinned->primaryAs<float>();
                    for (std::size_t pi = 0; pi < ln; ++pi)
                        push(ids[pi], rows + pi * row);
                    return;
                }
                float *gather = nullptr;
                if (cache != nullptr) {
                    ooc->gather.resize(ln * row);
                    gather = ooc->gather.data();
                }
                for (std::size_t pi = 0; pi < ln; ++pi) {
                    if (pi + 2 < ln)
                        __builtin_prefetch(points_.row(ids[pi + 2]));
                    const float *src = points_.row(ids[pi]);
                    if (gather != nullptr)
                        src = std::copy_n(src, row, gather + pi * row) -
                              row;
                    push(ids[pi], src);
                }
                if (gather != nullptr)
                    cache->offer(pp.list, gather, ln * row * sizeof(float),
                                 nullptr, 0);
            });
            (*chunk.results)[static_cast<std::size_t>(qi)] = top.take();
        }
    }
}

} // namespace juno
