/**
 * @file
 * IVF-Flat: coarse filtering plus exact distances within the probed
 * clusters. Sits between Flat and IVFPQ on the accuracy/speed curve
 * and isolates the effect of quantization error in experiments.
 *
 * The filtering stage is batched across the search chunk: one GEMM of
 * the chunk's queries against the (transposed) centroid table scores
 * every (query, centroid) pair through the register-blocked tile, so
 * centroid loads amortise across queries the way the paper's batch
 * dispatch amortises them across Tensor-core tiles (Sec. 5.3). A
 * single-query chunk runs the same kernel at tile under-occupancy —
 * that gap is exactly what the serving layer's micro-batcher exists
 * to close. L2 probe scores use the norm identity
 * |q - c|^2 = |q|^2 + |c|^2 - 2<q, c> over the GEMM's inner products
 * (centroid norms precomputed at build).
 */
#ifndef JUNO_BASELINE_IVFFLAT_INDEX_H
#define JUNO_BASELINE_IVFFLAT_INDEX_H

#include <memory>
#include <vector>

#include "baseline/index.h"
#include "common/mmap_blob.h"
#include "engine/probe_loop.h"
#include "ivf/ivf.h"

namespace juno {

class SnapshotReader;

/** IVF with exact in-cluster scan. */
class IvfFlatIndex : public AnnIndex {
  public:
    struct Params {
        int clusters = 256;
        idx_t nprobs = 8;
        std::uint64_t seed = 31;
        /** k-means iteration cap (see cluster/kmeans.h). */
        int max_iters = 20;
        /** Training subsample cap; 0 trains on every point. */
        idx_t max_training_points = 0;
    };

    IvfFlatIndex(Metric metric, FloatMatrixView points, const Params &params);

    /**
     * Parses the knobs spec() prints; absent keys keep the Params
     * defaults. ConfigError on an unknown key or nprobe <= 0.
     */
    static Params fromSpec(const IndexSpec &spec);

    /**
     * Incremental-merge constructor: reuses pre-trained @p centroids
     * (typically the previous generation's) and only re-assigns
     * @p points to inverted lists — no k-means. The coarse
     * quantisation is approximate w.r.t. a fresh training run over
     * the same points (recall parity, not bitwise parity), but the
     * merge skips the dominant training cost.
     */
    IvfFlatIndex(Metric metric, FloatMatrixView points, const Params &params,
                 const FloatMatrix &centroids);

    /**
     * Loader for openIndex(): the trained IVF is restored (no
     * k-means re-run) and the knobs come from the spec section
     * (fromSpec); the GEMM operands (transposed centroid table,
     * centroid norms) re-derive deterministically. In mmap mode the
     * point matrix views the mapping (zero-copy).
     */
    static std::unique_ptr<IvfFlatIndex> open(SnapshotReader &reader);

    std::string name() const override;
    std::string spec() const override;
    Metric metric() const override { return metric_; }
    idx_t size() const override { return points_.rows(); }
    idx_t dim() const override { return points_.cols(); }

    idx_t nprobs() const { return params_.nprobs; }
    void setNprobs(idx_t nprobs) { params_.nprobs = nprobs; }
    const InvertedFileIndex &ivf() const { return ivf_; }

    /**
     * Attaches an admission-controlled HotListCache of @p bytes for
     * out-of-core serving; 0 detaches it. An inverted list's rows are
     * scattered through the mapped point matrix, so a per-list
     * madvise is impractical here — instead a hot list's rows are
     * re-materialised *contiguously* (in list order) in the pinned
     * copy, which both survives OS eviction and streams instead of
     * random-loading. Cold lists keep the legacy gather. Results are
     * bitwise identical either way (same kernel, same bytes, same
     * push order).
     */
    bool
    setMemoryBudget(std::int64_t bytes) override
    {
        return cache_slot_.set(bytes, ivf_.numClusters());
    }
    std::shared_ptr<const HotListCache>
    hotListCache() const override
    {
        return cache_slot_.get();
    }

  protected:
    void searchChunk(const SearchChunk &chunk, SearchContext &ctx) override;
    void saveSections(SnapshotWriter &writer) const override;

  private:
    /** For open(): members are filled by the loader. */
    IvfFlatIndex() = default;

    /** Derives the GEMM operands from the trained IVF (build + load). */
    void buildFilterOperands();

    /**
     * Stage A for the query block [begin, end) of @p chunk: fills
     * ctx.scores with the block's m x C probe-score matrix
     * (block-local row qi - begin). Scores are bitwise independent of
     * the block/chunk shape: every (query, centroid) pair goes
     * through the same GEMM accumulation chain whatever m is (queries
     * pad to the 4-row tile when the centroid count is not a multiple
     * of the tile width).
     */
    void filterBlock(const SearchChunk &chunk, idx_t begin, idx_t end,
                     SearchContext &ctx);

    Metric metric_ = Metric::kL2;
    Params params_;
    PinnedMatrix points_;
    InvertedFileIndex ivf_;
    /** Centroid table transposed to d x C (the GEMM's B operand). */
    FloatMatrix centroids_t_;
    /** |c|^2 per centroid (L2 probe scoring; empty under IP). */
    std::vector<float> centroid_norms_;
    /** Out-of-core hot-list cache; empty when no budget is set. */
    HotListSlot cache_slot_;
};

} // namespace juno

#endif // JUNO_BASELINE_IVFFLAT_INDEX_H
