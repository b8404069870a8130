#include "baseline/ivfpq_index.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/distance.h"
#include "common/logging.h"
#include "common/simd.h"
#include "registry/index_spec.h"
#include "registry/snapshot.h"

namespace juno {

namespace {
/** Snapshot meta-section format of this index type. */
constexpr std::uint32_t kFormatVersion = 2;

/** The centroid router's graph knobs, derived from the ivfpq knobs. */
Hnsw::Params
routerParams(const IvfPqIndex::Params &params)
{
    Hnsw::Params hp;
    hp.m = params.hnsw_m;
    hp.seed = params.seed + 2;
    hp.ef_search = params.hnsw_ef_search;
    return hp;
}
} // namespace

IvfPqIndex::Params
IvfPqIndex::fromSpec(const IndexSpec &spec)
{
    spec.requireKnown({"nlist", "m", "entries", "nprobe", "hnsw",
                       "hnsw_m", "ef", "seed", "train"});
    Params p;
    p.clusters = static_cast<int>(spec.getInt("nlist", p.clusters));
    p.pq_subspaces = static_cast<int>(spec.getInt("m", p.pq_subspaces));
    p.pq_entries = static_cast<int>(spec.getInt("entries", p.pq_entries));
    p.nprobs = spec.getInt("nprobe", p.nprobs);
    p.use_hnsw_router = spec.getBool("hnsw", p.use_hnsw_router);
    p.hnsw_m = static_cast<int>(spec.getInt("hnsw_m", p.hnsw_m));
    p.hnsw_ef_search = static_cast<int>(spec.getInt("ef", p.hnsw_ef_search));
    p.seed = static_cast<std::uint64_t>(
        spec.getInt("seed", static_cast<long>(p.seed)));
    p.max_training_points = spec.getInt("train", p.max_training_points);
    JUNO_REQUIRE(p.nprobs > 0, "nprobs must be positive");
    return p;
}

IvfPqIndex::IvfPqIndex(Metric metric, FloatMatrixView points,
                       const Params &params)
    : metric_(metric), num_points_(points.rows()), dim_(points.cols()),
      params_(params)
{
    JUNO_REQUIRE(params.nprobs > 0, "nprobs must be positive");

    // Offline step 1: coarse clustering + inverted lists.
    InvertedFileIndex::Params ivf_params;
    ivf_params.clusters = params.clusters;
    ivf_params.seed = params.seed;
    ivf_params.max_training_points = params.max_training_points;
    ivf_.build(points, ivf_params);

    // Offline steps 2-3: train the PQ codebook on residuals against
    // the assigned coarse centroid (paper Fig. 1 top).
    FloatMatrix residuals(points.rows(), points.cols());
    for (idx_t p = 0; p < points.rows(); ++p)
        ivf_.residual(points.row(p), ivf_.label(p), residuals.row(p));

    PQParams pq_params;
    pq_params.num_subspaces = params.pq_subspaces;
    pq_params.entries = params.pq_entries;
    pq_params.seed = params.seed + 1;
    pq_params.max_training_points = params.max_training_points;
    pq_.train(residuals.view(), pq_params);

    // Offline step 4: encode all points, then re-materialise each
    // inverted list's codes in the interleaved fast-scan layout so the
    // online scan streams instead of gathering rows through ids.
    codes_ = pq_.encode(residuals.view());
    interleaved_.build(ivf_.lists(), codes_, pq_.entries());

    if (params.use_hnsw_router) {
        router_ = std::make_unique<Hnsw>();
        router_->build(metric_, ivf_.centroids().view(),
                       routerParams(params));
    }
}

std::string
IvfPqIndex::name() const
{
    std::string n = "IVF" + std::to_string(ivf_.numClusters());
    if (router_)
        n += "_HNSW";
    n += ",PQ" + std::to_string(pq_.numSubspaces());
    return n;
}

std::string
IvfPqIndex::spec() const
{
    IndexSpec spec;
    spec.type = "ivfpq";
    spec.setInt("nlist", params_.clusters);
    spec.setInt("m", params_.pq_subspaces);
    spec.setInt("entries", params_.pq_entries);
    spec.setInt("nprobe", params_.nprobs);
    spec.setBool("hnsw", params_.use_hnsw_router);
    spec.setInt("hnsw_m", params_.hnsw_m);
    spec.setInt("ef", params_.hnsw_ef_search);
    spec.setInt("seed", static_cast<long>(params_.seed));
    spec.setInt("train", params_.max_training_points);
    return spec.toString();
}

void
IvfPqIndex::saveSections(SnapshotWriter &writer) const
{
    Writer &meta = writer.section("meta");
    meta.writePod<std::uint32_t>(kFormatVersion);
    writeMetricTag(meta, metric_);
    meta.writePod<std::int64_t>(num_points_);
    meta.writePod<std::int64_t>(dim_);
    meta.writePod<std::int64_t>(codes_.num_points);
    meta.writePod<std::int32_t>(codes_.num_subspaces);

    ivf_.save(writer.section("ivf"));
    pq_.save(writer.section("pq"));
    writer.addBlob("codes", codes_.data(),
                   codes_.count() * sizeof(entry_t));
    interleaved_.save(writer, "ileav.");
    if (router_ != nullptr)
        router_->saveGraph(writer, "router.");
}

std::unique_ptr<IvfPqIndex>
IvfPqIndex::open(SnapshotReader &reader)
{
    const std::string what = reader.path() + " [ivfpq]";
    auto meta = reader.stream("meta");
    checkFormatVersion(meta, kFormatVersion, what);
    std::unique_ptr<IvfPqIndex> index(new IvfPqIndex());
    index->params_ = fromSpec(IndexSpec::parse(reader.spec()));
    index->metric_ = readMetricTag(meta);
    index->num_points_ = meta.readPod<std::int64_t>();
    index->dim_ = meta.readPod<std::int64_t>();
    index->codes_.num_points = meta.readPod<std::int64_t>();
    index->codes_.num_subspaces = meta.readPod<std::int32_t>();
    JUNO_REQUIRE(index->num_points_ > 0 && index->dim_ > 0 &&
                     index->codes_.num_points == index->num_points_ &&
                     index->codes_.num_subspaces > 0 &&
                     index->codes_.num_subspaces ==
                         index->params_.pq_subspaces,
                 what << ": corrupt index header or spec");
    // Overflow guard: a forged point count whose code-plane product
    // wraps to a tiny value must not match a tiny blob below.
    JUNO_REQUIRE(static_cast<std::uint64_t>(index->codes_.num_points) <=
                     kMaxSerializedPayloadBytes / sizeof(entry_t) /
                         static_cast<std::uint64_t>(
                             index->codes_.num_subspaces),
                 what << ": implausible code plane (corrupt file)");

    auto ivf_stream = reader.stream("ivf");
    index->ivf_.load(ivf_stream);
    auto pq_stream = reader.stream("pq");
    index->pq_.load(pq_stream);
    JUNO_REQUIRE(index->pq_.dim() == index->dim_ &&
                     index->pq_.numSubspaces() ==
                         index->codes_.num_subspaces &&
                     index->pq_.entries() == index->params_.pq_entries &&
                     index->ivf_.numClusters() == index->params_.clusters,
                 what << ": quantizer/codes/spec shape mismatch");

    const auto codes_blob = reader.blob("codes");
    const auto codes_count = index->codes_.count();
    if (codes_blob.bytes != codes_count * sizeof(entry_t))
        fatal(what + ": PQ code payload size mismatch (corrupt file)");
    index->codes_.adoptView(
        reinterpret_cast<const entry_t *>(codes_blob.data),
        codes_blob.keepalive);

    index->interleaved_.load(reader, "ileav.");
    JUNO_REQUIRE(index->interleaved_.numLists() ==
                         index->ivf_.numClusters() &&
                     index->interleaved_.subspaces() ==
                         index->codes_.num_subspaces,
                 what << ": interleaved layout shape mismatch");
    if (index->params_.use_hnsw_router) {
        index->router_ = std::make_unique<Hnsw>();
        index->router_->loadGraph(reader, "router.",
                                  routerParams(index->params_));
        JUNO_REQUIRE(index->router_->size() == index->ivf_.numClusters(),
                     what << ": router/centroid count mismatch");
    }
    return index;
}

std::vector<Neighbor>
IvfPqIndex::probe(const float *query, idx_t nprobs,
                  VisitedSet &visited) const
{
    if (router_) {
        return router_->search(query, std::min(nprobs, ivf_.numClusters()),
                               std::max<int>(params_.hnsw_ef_search,
                                             static_cast<int>(nprobs)),
                               visited);
    }
    return ivf_.probe(metric_, query, nprobs);
}

void
IvfPqIndex::buildLut(const float *query, cluster_t cluster, FloatMatrix &lut,
                     float &base, std::vector<float> &residual) const
{
    if (metric_ == Metric::kL2) {
        // L2 ADC on residuals: dist ~= sum_s L2(residual_s, entry_s).
        residual.resize(static_cast<std::size_t>(dim_));
        ivf_.residual(query, cluster, residual.data());
        pq_.computeLut(Metric::kL2, residual.data(), lut);
        base = 0.0f;
    } else {
        // IP decomposes as IP(q, c) + IP(q, residual-decode); the LUT
        // is built on the raw query, the centroid term is the base.
        pq_.computeLut(Metric::kInnerProduct, query, lut);
        base = innerProduct(query, ivf_.centroid(cluster), dim_);
    }
}

void
IvfPqIndex::scanList(cluster_t cluster, const FloatMatrix &lut, float base,
                     ScanScratch &scratch, TopK &top,
                     const CachedList *pinned, HotListCache *cache,
                     float tighten) const
{
    const std::vector<idx_t> &list = ivf_.list(cluster);
    const std::size_t n = list.size();
    if (n == 0)
        return;
    const int subspaces = pq_.numSubspaces();

    // A cold scan offers its payload for admission; the cache copies
    // it out of the mapping only when the list has earned residency
    // (and the budget can take it).
    if (cache != nullptr && pinned == nullptr)
        cache->offer(cluster, interleaved_.listBlocks(cluster),
                     interleaved_.listBlocksBytes(cluster),
                     interleaved_.packed4()
                         ? interleaved_.listPacked(cluster)
                         : nullptr,
                     interleaved_.listPackedBytes(cluster));

    if (interleaved_.packed4() && simd::level() != simd::Level::kScalar) {
        // 4-bit fast scan: quantise the float LUT once per (query,
        // probe), scan the nibble plane with in-register shuffles,
        // then reconstruct float scores only for blocks whose best
        // quantised sum can still beat the current heap minimum.
        const std::uint8_t *packed =
            pinned != nullptr ? pinned->secondaryAs<std::uint8_t>()
                              : interleaved_.listPacked(cluster);
        quantizeLut(lut, pq_.entries(), scratch.qlut);
        if (scratch.qsums.size() < n)
            scratch.qsums.resize(n);
        simd::fastScanPq4(packed, subspaces, scratch.qlut.table.data(),
                          n, scratch.qsums.data());
        const float scale = scratch.qlut.scale;
        const float offset = base + scratch.qlut.bias;
        const std::uint16_t *qs = scratch.qsums.data();
        const bool lower_better = metric_ == Metric::kL2;
        for (std::size_t b = 0; b < n; b += 32) {
            const std::size_t count = std::min<std::size_t>(32, n - b);
            if (top.full()) {
                // The reconstruction is monotone in the quantised sum,
                // so the block's min (L2) / max (IP) sum bounds every
                // score in it exactly.
                std::uint16_t best = qs[b];
                if (lower_better) {
                    for (std::size_t j = 1; j < count; ++j)
                        best = std::min(best, qs[b + j]);
                } else {
                    for (std::size_t j = 1; j < count; ++j)
                        best = std::max(best, qs[b + j]);
                }
                float bound =
                    offset + scale * static_cast<float>(best);
                if (tighten > 0.0f) {
                    // Degraded serving: pretend the block's bound is
                    // worse by a margin proportional to the heap
                    // threshold, discarding near-threshold blocks a
                    // full-quality scan would rescore. tighten == 0
                    // keeps the exact rule (bitwise parity).
                    const float margin =
                        tighten * std::fabs(top.worstAccepted());
                    bound = lower_better ? bound + margin
                                         : bound - margin;
                }
                // Skip only when strictly worse: a tied bound must
                // still reach TopK::push, whose id tie-break keeps
                // results independent of block scan order.
                if (isBetter(metric_, top.worstAccepted(), bound))
                    continue;
            }
            for (std::size_t j = 0; j < count; ++j)
                top.push(list[b + j],
                         offset +
                             scale * static_cast<float>(qs[b + j]));
        }
        return;
    }

    if (scratch.scores.size() < n)
        scratch.scores.resize(n);
    // Streaming float scan over the interleaved blocks; bitwise
    // identical to an id gather over the row-major codes (same
    // per-point accumulation order), minus the per-point random
    // code-row load.
    const entry_t *blocks = pinned != nullptr
                                ? pinned->primaryAs<entry_t>()
                                : interleaved_.listBlocks(cluster);
    simd::adcScanInterleaved(lut.data(), lut.cols(), lut.cols(), subspaces,
                             blocks, n, base, scratch.scores.data());
    for (std::size_t i = 0; i < n; ++i)
        top.push(list[i], scratch.scores[i]);
}

void
IvfPqIndex::searchChunk(const SearchChunk &chunk, SearchContext &ctx)
{
    // Per-worker scan scratch (quantised LUT + qsum buffers) persists
    // across queries and batches alongside the other context buffers.
    ScanScratch &scan = ctx.scratch<ScanScratch>(
        [] { return std::make_unique<ScanScratch>(); });
    ProbePlan &plan = ctx.scratch<ProbePlan>(
        [] { return std::make_unique<ProbePlan>(); });
    ProbeLoop loop(ctx, &cache_slot_, &interleaved_);
    const float tighten = static_cast<float>(ctx.scan_tighten);
    for (idx_t qi = chunk.begin; qi < chunk.end; ++qi) {
        const float *q = chunk.queries.row(qi);
        {
            StageScope t(ctx, Stage::kFilter);
            loop.plan(qi, params_.nprobs, plan,
                      [&](idx_t n, std::vector<Neighbor> &probes) {
                          probes = probe(q, n, ctx.visited);
                      });
        }
        TopK top(std::min(chunk.k, num_points_), metric_);
        loop.scan(qi, plan, [&](const PlannedProbe &pp) {
            float base = 0.0f;
            {
                StageScope t(ctx, Stage::kLut);
                buildLut(q, pp.list, ctx.lut, base, ctx.residual);
            }
            StageScope t(ctx, Stage::kScan);
            scanList(pp.list, ctx.lut, base, scan, top, pp.pinned.get(),
                     loop.cache(), tighten);
        });
        (*chunk.results)[static_cast<std::size_t>(qi)] = top.take();
    }
}

} // namespace juno
