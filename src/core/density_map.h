/**
 * @file
 * Per-subspace density map (paper Sec. 4.1).
 *
 * Each 2-D subspace is divided into a grid (100x100 in the paper);
 * each cell records the count of search-point projections falling into
 * it divided by the cell area. At query time the density of the cell a
 * query projection falls into is the input feature of the threshold
 * regression model.
 */
#ifndef JUNO_CORE_DENSITY_MAP_H
#define JUNO_CORE_DENSITY_MAP_H

#include <vector>

#include "common/matrix.h"
#include "common/serialize.h"
#include "common/types.h"

namespace juno {

/** Density grid over one 2-D subspace. */
class SubspaceDensity {
  public:
    /**
     * Builds a @p grid x @p grid map over the bounding box of
     * @p points_xy (N x 2). The box is padded slightly so boundary
     * projections land inside.
     */
    void build(FloatMatrixView points_xy, int grid = 100);

    bool built() const { return grid_ > 0; }
    int grid() const { return grid_; }

    /** Density (points per unit area) at projection (x, y). */
    double densityAt(float x, float y) const;

    /** Raw count in the cell containing (x, y). */
    idx_t countAt(float x, float y) const;

    /** Largest count of any cell. */
    idx_t maxCount() const;

    float minX() const { return min_x_; }
    float minY() const { return min_y_; }
    float maxX() const { return max_x_; }
    float maxY() const { return max_y_; }
    double cellArea() const { return cell_area_; }

    void save(Writer &writer) const;
    void load(Reader &reader);

  private:
    int cellIndex(float v, float lo, float hi) const;

    int grid_ = 0;
    float min_x_ = 0, max_x_ = 0, min_y_ = 0, max_y_ = 0;
    double cell_area_ = 0;
    std::vector<idx_t> counts_; // grid_ * grid_, row-major by y
};

/** One SubspaceDensity per subspace, built from residual projections. */
class DensityMap {
  public:
    /**
     * @param residuals N x D residual matrix;
     * @param num_subspaces D/2 two-dimensional subspaces;
     * @param grid cells per axis.
     */
    void build(FloatMatrixView residuals, int num_subspaces, int grid = 100);

    bool built() const { return !maps_.empty(); }
    int numSubspaces() const { return static_cast<int>(maps_.size()); }

    const SubspaceDensity &subspace(int s) const;

    /** Density of projection (x, y) in subspace @p s. */
    double
    densityAt(int s, float x, float y) const
    {
        return subspace(s).densityAt(x, y);
    }

    void save(Writer &writer) const;
    void load(Reader &reader);

  private:
    std::vector<SubspaceDensity> maps_;
};

} // namespace juno

#endif // JUNO_CORE_DENSITY_MAP_H
