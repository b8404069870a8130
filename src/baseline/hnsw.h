/**
 * @file
 * Hierarchical Navigable Small World graph (Malkov & Yashunin, 2018).
 *
 * The paper's strongest baseline configuration is IVFx_HNSWy,PQz: an
 * IVFPQ index whose coarse-centroid lookup is routed through an HNSW
 * graph instead of brute force (FAISS index_factory semantics). This
 * implementation supports that role (graph over the C centroids) and
 * doubles as a standalone graph index for tests.
 */
#ifndef JUNO_BASELINE_HNSW_H
#define JUNO_BASELINE_HNSW_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baseline/index.h"
#include "common/matrix.h"
#include "common/mmap_blob.h"
#include "common/rng.h"
#include "common/topk.h"
#include "common/types.h"

namespace juno {

class SnapshotReader;

/**
 * HNSW graph over a fixed point set. Also a full AnnIndex: batched
 * search beams with width efSearch() and reuses the context's
 * epoch-stamped visited set instead of allocating one per query.
 */
class Hnsw : public AnnIndex {
  public:
    struct Params {
        /** Max out-degree per node on layers > 0 (2M on layer 0). */
        int m = 16;
        /** Beam width during construction. */
        int ef_construction = 100;
        std::uint64_t seed = 97;
        /** Beam width of the batched AnnIndex search path. */
        int ef_search = 64;
    };

    /**
     * Parses the knobs spec() prints; absent keys keep the Params
     * defaults. ConfigError on an unknown key, m < 2 or efc < m.
     */
    static Params fromSpec(const IndexSpec &spec);

    /**
     * Builds the graph over @p points (copied). @p metric governs both
     * construction and search ordering.
     */
    void build(Metric metric, FloatMatrixView points, const Params &params);

    bool built() const { return !layers_.empty(); }
    int maxLevel() const { return max_level_; }

    /** Loader for openIndex(): restores a standalone HNSW snapshot. */
    static std::unique_ptr<Hnsw> open(SnapshotReader &reader);

    /**
     * Writes the graph state (points, levels, adjacency) as sections
     * named @p prefix + {"meta", "graph", "points"}. The standalone
     * saveSections() uses an empty prefix; IVFPQ persists its centroid
     * router under "router." so both fit in one snapshot.
     */
    void saveGraph(SnapshotWriter &writer,
                   const std::string &prefix) const;

    /**
     * Restores what saveGraph() wrote (replaces current state); the
     * caller supplies the knobs (the standalone index from its spec,
     * IVFPQ's router from the ivfpq knobs).
     */
    void loadGraph(SnapshotReader &reader, const std::string &prefix,
                   const Params &params);

    std::string name() const override;
    std::string spec() const override;
    Metric metric() const override { return metric_; }
    idx_t size() const override { return points_.rows(); }
    idx_t dim() const override { return points_.cols(); }

    /** Beam width of the batched AnnIndex search path. */
    int efSearch() const { return params_.ef_search; }
    void setEfSearch(int ef) { params_.ef_search = ef; }

    /** Batched search entry points (hidden otherwise by search() below). */
    using AnnIndex::search;

    /**
     * Beam search: returns the best-first top-@p k with beam width
     * @p ef (clamped up to k). Thread-safe on a built graph (uses its
     * own local scratch), so the IVFPQ router can call it from
     * concurrent search workers.
     */
    std::vector<Neighbor> search(const float *query, idx_t k, int ef) const;

    /**
     * Allocation-free variant against caller-owned visited scratch
     * (the IVFPQ router passes its worker context's set, one per
     * thread, so the batched filter stage never allocates per query).
     */
    std::vector<Neighbor>
    search(const float *query, idx_t k, int ef, VisitedSet &visited) const
    {
        return searchImpl(query, k, ef, visited);
    }

    /** Out-neighbours of @p node on @p level (for tests/inspection). */
    const std::vector<idx_t> &neighbors(int level, idx_t node) const;

  protected:
    void searchChunk(const SearchChunk &chunk, SearchContext &ctx) override;
    void saveSections(SnapshotWriter &writer) const override;

  private:
    /** Greedy descent to the closest node on a single level. */
    idx_t greedyDescend(const float *query, idx_t entry, int level) const;

    /** search() body against caller-owned visited scratch. */
    std::vector<Neighbor> searchImpl(const float *query, idx_t k, int ef,
                                     VisitedSet &visited) const;

    /** Beam search on one level. */
    std::vector<Neighbor> searchLayer(const float *query, idx_t entry,
                                      int ef, int level,
                                      VisitedSet &visited) const;

    /**
     * Diversity-aware neighbour selection (Algorithm 4 of the HNSW
     * paper): keeps a candidate only when it is closer to @p base than
     * to every already-kept neighbour; backfills remaining slots with
     * the closest skipped candidates.
     */
    std::vector<idx_t> selectHeuristic(
        idx_t base, const std::vector<Neighbor> &candidates, int m) const;

    /** Connects @p node on @p level to heuristically chosen neighbours. */
    void connect(idx_t node, int level,
                 const std::vector<Neighbor> &candidates, int m);

    float scoreOf(const float *query, idx_t node) const;

    Metric metric_ = Metric::kL2;
    PinnedMatrix points_;
    Params params_;
    /** layers_[l][node] = adjacency list (empty if node absent). */
    std::vector<std::vector<std::vector<idx_t>>> layers_;
    std::vector<int> node_level_;
    idx_t entry_point_ = -1;
    int max_level_ = -1;
};

} // namespace juno

#endif // JUNO_BASELINE_HNSW_H
