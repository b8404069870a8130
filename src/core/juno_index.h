/**
 * @file
 * JUNO: the end-to-end ANN search engine (paper Sec. 5, Fig. 10).
 *
 * Offline (constructor):
 *  1. coarse k-means -> IVF (identical to the baseline);
 *  2. per-subspace codebooks on residuals (PQ with M = 2), laid out
 *     list-resident and interleaved for the scan;
 *  3. density map + per-subspace threshold regressors;
 *  4. traversable RT scene of entry spheres.
 *
 * Online (search):
 *  A. filtering identical to IVFPQ;
 *  B. threshold-based selective LUT construction on the RT device
 *     (rays with dynamic tmax; thit -> score recovery);
 *  C. distance calculation over the selected entries, streaming each
 *     probed list's codes, in one of the three quality presets
 *     (JUNO-H / -M / -L).
 *
 * The stage pair (B, C) optionally runs as a two-stage pipeline across
 * query batches, modelling the paper's RT/Tensor core co-run.
 */
#ifndef JUNO_CORE_JUNO_INDEX_H
#define JUNO_CORE_JUNO_INDEX_H

#include <memory>

#include "baseline/index.h"
#include "common/thread_annotations.h"
#include "core/density_map.h"
#include "core/distance_calc.h"
#include "core/pipeline.h"
#include "core/scene_builder.h"
#include "core/selective_lut.h"
#include "core/threshold_policy.h"
#include "ivf/ivf.h"
#include "quant/product_quantizer.h"
#include "rtcore/device.h"

namespace juno {

class SnapshotReader;

/** Build- and search-time configuration of a JunoIndex. */
struct JunoParams {
    int clusters = 256;                    ///< C coarse clusters
    int pq_entries = 256;                  ///< E entries per subspace
    idx_t nprobs = 8;                      ///< probed clusters
    SearchMode mode = SearchMode::kExactDistance;
    double threshold_scale = 1.0;          ///< user knob (Fig. 7(b))
    ThresholdMode threshold_mode = ThresholdMode::kDynamic;
    double miss_penalty = 1.0;             ///< miss-score multiplier
    bool use_rt_core = true;               ///< false = linear fallback
    bool pipelined = false;                ///< overlap LUT and scan
    int density_grid = 100;                ///< density map resolution
    ThresholdPolicy::Params policy;        ///< regressor training
    JunoScene::Params scene;               ///< sphere radius / BVH
    std::uint64_t seed = 31;
    idx_t max_training_points = 0;         ///< k-means subsampling

    /**
     * The RT pass's knobs: scale and penalty, plus the inner gate,
     * which only JUNO-M scores (so only JUNO-M records it).
     */
    SelectiveLutParams lutParams() const;
};

/** Convenience presets matching the paper's three configurations. */
JunoParams junoPresetH(JunoParams base = {});
JunoParams junoPresetM(JunoParams base = {});
JunoParams junoPresetL(JunoParams base = {});

/** The JUNO search engine. */
class JunoIndex : public AnnIndex {
  public:
    JunoIndex(Metric metric, FloatMatrixView points,
              const JunoParams &params);

    /**
     * Parses the knobs spec() prints; absent keys keep the JunoParams
     * defaults. ConfigError on an unknown key, an unknown mode/tmode
     * spelling or an out-of-range value.
     */
    static JunoParams fromSpec(const IndexSpec &spec);

    /**
     * Restores an index from a snapshot container at @p path
     * (AnnIndex::save()/openIndex()); any other file, or a snapshot
     * of another index type, is a ConfigError.
     */
    static std::unique_ptr<JunoIndex> load(const std::string &path);

    /**
     * Loader for openIndex(): restores IVF, codebooks, codes, density
     * maps, regressors and the interleaved plane; the knobs come from
     * the snapshot's spec section (fromSpec). The RT scene rebuilds
     * deterministically.
     */
    static std::unique_ptr<JunoIndex> open(SnapshotReader &reader);

    std::string name() const override;
    std::string spec() const override;
    Metric metric() const override { return metric_; }
    idx_t size() const override { return num_points_; }
    idx_t dim() const override { return dim_; }

    // ---- Search-time knobs (no rebuild required) ----
    void setNprobs(idx_t nprobs);
    void setSearchMode(SearchMode mode) { params_.mode = mode; }
    void setThresholdScale(double scale);
    void setThresholdMode(ThresholdMode mode);
    void setUseRtCore(bool use_rt);
    void setPipelined(bool pipelined) { params_.pipelined = pipelined; }
    void setMissPenalty(double penalty);

    const JunoParams &params() const { return params_; }

    // ---- Component access (benches, tests, diagnostics) ----
    const InvertedFileIndex &ivf() const { return ivf_; }
    const ProductQuantizer &pq() const { return pq_; }
    const PQCodes &codes() const { return codes_; }
    const DensityMap &densityMap() const { return density_; }
    const ThresholdPolicy &thresholdPolicy() const { return policy_; }
    const JunoScene &junoScene() const { return scene_; }
    rt::RtDevice &device() { return device_; }
    const rt::TraversalStats &rtStats() const { return device_.totalStats(); }

    /** Filtering stage (stage A) for one query. */
    std::vector<Neighbor> probe(const float *query) const;

    /** Scoring stage (stage C). */
    DistanceCalculator &calculator() { return *calc_; }

  protected:
    /**
     * Batched path: one Worker (RT device + LUT builder + calculator
     * + LUT buffers) lives in each SearchContext, so the RT
     * pass and scoring run concurrently across chunks; traversal
     * counters merge into the canonical device under a mutex. Every
     * query runs the IVF family's probe loop (engine/probe_loop.h) in
     * groups of SelectiveLutBuilder::groupSize() queries: plan each,
     * trace the group's RT LUTs in one launch, then run one
     * DistanceCalculator::accumulateList per list of each query.
     */
    void searchChunk(const SearchChunk &chunk, SearchContext &ctx) override;
    void saveSections(SnapshotWriter &writer) const override;

  private:
    struct Worker;

    /** For load(): members are filled by the loader. */
    JunoIndex() : metric_(Metric::kL2) {}

    /** Rebuilds the derived structures (RT scene, calculator). */
    void finishConstruction();

    Metric metric_;
    idx_t num_points_ = 0;
    idx_t dim_ = 0;
    JunoParams params_;

    InvertedFileIndex ivf_;
    ProductQuantizer pq_;
    PQCodes codes_;
    /** List-resident interleaved copy of codes_: what stage C streams. */
    InterleavedLists interleaved_;
    DensityMap density_;
    ThresholdPolicy policy_;
    JunoScene scene_;
    rt::RtDevice device_;
    std::unique_ptr<DistanceCalculator> calc_;
    /**
     * Guards device_ stat merges from parallel search workers.
     * device_ stays unannotated: device() and rtStats() read it
     * lock-free between searches, a conditional discipline the
     * static analysis cannot express.
     */
    Mutex stats_mutex_;
};

} // namespace juno

#endif // JUNO_CORE_JUNO_INDEX_H
