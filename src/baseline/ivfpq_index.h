/**
 * @file
 * FAISS-style IVFPQ index — the paper's baseline (Sec. 2.1).
 *
 * Online search runs the three stages the paper instruments:
 *   A. filtering          — query vs. all C coarse centroids, keep nprobs;
 *   B+C. L2-LUT construction — per probed cluster, *dense* pairwise
 *        scores between the query residual projection and every one of
 *        the E codebook entries in every subspace;
 *   D. distance calculation — for each point in the probed clusters,
 *        accumulate LUT entries addressed by its PQ codes; top-k.
 *
 * Per-stage wall time accumulates into stageTimers() under the names
 * "filter", "lut" and "scan" (Fig. 3(a) reproduces from these).
 *
 * An optional HNSW router replaces the brute-force centroid scan in
 * stage A, reproducing FAISS's IVFx_HNSWy,PQz factory string.
 */
#ifndef JUNO_BASELINE_IVFPQ_INDEX_H
#define JUNO_BASELINE_IVFPQ_INDEX_H

#include <memory>

#include "baseline/hnsw.h"
#include "baseline/index.h"
#include "engine/probe_loop.h"
#include "ivf/ivf.h"
#include "quant/interleaved_codes.h"
#include "quant/product_quantizer.h"

namespace juno {

/** IVF + residual PQ with asymmetric distance computation. */
class IvfPqIndex : public AnnIndex {
  public:
    struct Params {
        int clusters = 256;          ///< C coarse clusters
        int pq_subspaces = 48;       ///< the x of "PQx"
        int pq_entries = 256;        ///< E codebook entries per subspace
        idx_t nprobs = 8;            ///< probed clusters per query
        bool use_hnsw_router = false;///< route stage A through HNSW
        int hnsw_m = 16;
        int hnsw_ef_search = 64;
        std::uint64_t seed = 31;
        idx_t max_training_points = 0;
    };

    /** Trains IVF + PQ offline and encodes every point. */
    IvfPqIndex(Metric metric, FloatMatrixView points, const Params &params);

    /**
     * Parses the knobs spec() prints; absent keys keep the Params
     * defaults. ConfigError on an unknown key or nprobe <= 0.
     */
    static Params fromSpec(const IndexSpec &spec);

    /**
     * Loader for openIndex(): restores the trained IVF, codebooks,
     * codes and the interleaved/fast-scan planes (no re-training, no
     * re-layout); the knobs come from the spec section (fromSpec). In
     * mmap mode the code planes view the mapping.
     */
    static std::unique_ptr<IvfPqIndex> open(SnapshotReader &reader);

    std::string name() const override;
    std::string spec() const override;
    Metric metric() const override { return metric_; }
    idx_t size() const override { return num_points_; }
    idx_t dim() const override { return dim_; }

    idx_t nprobs() const { return params_.nprobs; }
    void setNprobs(idx_t nprobs) { params_.nprobs = nprobs; }

    /**
     * Attaches an admission-controlled HotListCache of @p bytes, which
     * switches the probe loop to IO-aware order (engine/probe_loop.h)
     * over the interleaved planes; 0 detaches the cache and restores
     * the filter's order. Results are bitwise identical either way.
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

    const InvertedFileIndex &ivf() const { return ivf_; }
    const ProductQuantizer &pq() const { return pq_; }
    const PQCodes &codes() const { return codes_; }
    const InterleavedLists &interleaved() const { return interleaved_; }
    bool hasHnswRouter() const { return router_ != nullptr; }

    /**
     * Filtering stage only, against caller-owned router scratch (the
     * batched path passes the worker context's visited set to keep
     * the HNSW-routed stage A allocation-free).
     */
    std::vector<Neighbor> probe(const float *query, idx_t nprobs,
                                VisitedSet &visited) const;

  protected:
    void searchChunk(const SearchChunk &chunk, SearchContext &ctx) override;
    void saveSections(SnapshotWriter &writer) const override;

  private:
    /** For open(): members are filled by the loader. */
    IvfPqIndex() = default;

    /**
     * Computes the per-cluster LUT and base score for one query;
     * @p residual is caller-owned scratch (context buffer on the
     * batched path) so the hot loop stays allocation-free.
     */
    void buildLut(const float *query, cluster_t cluster, FloatMatrix &lut,
                  float &base, std::vector<float> &residual) const;

    /** Per-worker scan scratch (a SearchContext slot). */
    struct ScanScratch {
        std::vector<float> scores;
        QuantizedLut qlut;
        std::vector<std::uint16_t> qsums;
    };

    /**
     * ADC-scans one inverted list against a dense LUT (paper stage D)
     * and offers every surviving point to @p top. Two tiers, chosen
     * per list:
     *  - 4-bit fast scan (interleaved nibble plane + quantised u8 LUT
     *    + in-register shuffles) when pq_entries <= 16 and a SIMD
     *    dispatch level is active; a per-32-block bound on the
     *    quantised sums skips blocks that cannot beat the current
     *    heap minimum before any float work;
     *  - streaming float scan over the interleaved blocks otherwise
     *    (bitwise identical to an id gather over the row-major codes).
     * searchChunk()'s probe loop is the only caller.
     *
     * @p pinned substitutes the list's cached heap copy for the
     * mapped planes (bitwise-identical bytes; null scans the
     * mapping); @p cache, when set, receives an offer of the payload
     * after a cold scan. @p tighten > 0 widens the
     * fast-scan block skip margin by that fraction of the heap
     * threshold (degraded serving); 0 keeps the exact skip rule.
     */
    void scanList(cluster_t cluster, const FloatMatrix &lut, float base,
                  ScanScratch &scratch, TopK &top,
                  const CachedList *pinned, HotListCache *cache,
                  float tighten) const;

    Metric metric_ = Metric::kL2;
    idx_t num_points_ = 0;
    idx_t dim_ = 0;
    Params params_;
    InvertedFileIndex ivf_;
    ProductQuantizer pq_;
    PQCodes codes_;
    /** List-resident interleaved layout the scan streams. */
    InterleavedLists interleaved_;
    std::unique_ptr<Hnsw> router_;
    /** Out-of-core hot-list cache; empty when no budget is set. */
    HotListSlot cache_slot_;
};

} // namespace juno

#endif // JUNO_BASELINE_IVFPQ_INDEX_H
