#include "core/density_map.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace juno {

void
SubspaceDensity::build(FloatMatrixView points_xy, int grid)
{
    JUNO_REQUIRE(grid > 0, "grid must be positive");
    JUNO_REQUIRE(points_xy.cols() == 2, "subspace projections must be 2-D");
    JUNO_REQUIRE(points_xy.rows() > 0, "empty projection set");

    grid_ = grid;
    min_x_ = max_x_ = points_xy.at(0, 0);
    min_y_ = max_y_ = points_xy.at(0, 1);
    for (idx_t i = 1; i < points_xy.rows(); ++i) {
        min_x_ = std::min(min_x_, points_xy.at(i, 0));
        max_x_ = std::max(max_x_, points_xy.at(i, 0));
        min_y_ = std::min(min_y_, points_xy.at(i, 1));
        max_y_ = std::max(max_y_, points_xy.at(i, 1));
    }
    // Pad 1% so boundary points fall strictly inside the last cell.
    const float pad_x = std::max(1e-6f, (max_x_ - min_x_) * 0.01f);
    const float pad_y = std::max(1e-6f, (max_y_ - min_y_) * 0.01f);
    min_x_ -= pad_x;
    max_x_ += pad_x;
    min_y_ -= pad_y;
    max_y_ += pad_y;

    const double width = static_cast<double>(max_x_) - min_x_;
    const double height = static_cast<double>(max_y_) - min_y_;
    cell_area_ = (width / grid_) * (height / grid_);

    counts_.assign(static_cast<std::size_t>(grid_) * grid_, 0);
    for (idx_t i = 0; i < points_xy.rows(); ++i) {
        const int cx = cellIndex(points_xy.at(i, 0), min_x_, max_x_);
        const int cy = cellIndex(points_xy.at(i, 1), min_y_, max_y_);
        ++counts_[static_cast<std::size_t>(cy) * grid_ + cx];
    }
}

int
SubspaceDensity::cellIndex(float v, float lo, float hi) const
{
    const double t = (static_cast<double>(v) - lo) / (hi - lo);
    int c = static_cast<int>(t * grid_);
    return std::clamp(c, 0, grid_ - 1);
}

idx_t
SubspaceDensity::countAt(float x, float y) const
{
    JUNO_ASSERT(built(), "density map not built");
    const int cx = cellIndex(x, min_x_, max_x_);
    const int cy = cellIndex(y, min_y_, max_y_);
    return counts_[static_cast<std::size_t>(cy) * grid_ + cx];
}

idx_t
SubspaceDensity::maxCount() const
{
    JUNO_ASSERT(built(), "density map not built");
    return *std::max_element(counts_.begin(), counts_.end());
}

double
SubspaceDensity::densityAt(float x, float y) const
{
    return static_cast<double>(countAt(x, y)) / cell_area_;
}

void
DensityMap::build(FloatMatrixView residuals, int num_subspaces, int grid)
{
    JUNO_REQUIRE(num_subspaces > 0, "num_subspaces must be positive");
    JUNO_REQUIRE(residuals.cols() == 2 * num_subspaces,
                 "residual dim " << residuals.cols()
                 << " != 2 * " << num_subspaces);
    maps_.assign(static_cast<std::size_t>(num_subspaces), {});

    FloatMatrix proj(residuals.rows(), 2);
    for (int s = 0; s < num_subspaces; ++s) {
        for (idx_t i = 0; i < residuals.rows(); ++i) {
            proj.at(i, 0) = residuals.at(i, 2 * s);
            proj.at(i, 1) = residuals.at(i, 2 * s + 1);
        }
        maps_[static_cast<std::size_t>(s)].build(proj.view(), grid);
    }
}

void
SubspaceDensity::save(Writer &writer) const
{
    JUNO_REQUIRE(built(), "save before build");
    writer.writePod<std::int32_t>(grid_);
    writer.writePod(min_x_);
    writer.writePod(max_x_);
    writer.writePod(min_y_);
    writer.writePod(max_y_);
    writer.writePod(cell_area_);
    writer.writeVector(counts_);
}

void
SubspaceDensity::load(Reader &reader)
{
    grid_ = reader.readPod<std::int32_t>();
    min_x_ = reader.readPod<float>();
    max_x_ = reader.readPod<float>();
    min_y_ = reader.readPod<float>();
    max_y_ = reader.readPod<float>();
    cell_area_ = reader.readPod<double>();
    counts_ = reader.readVector<idx_t>();
    JUNO_REQUIRE(grid_ > 0 &&
                     counts_.size() ==
                         static_cast<std::size_t>(grid_) * grid_ &&
                     std::all_of(counts_.begin(), counts_.end(),
                                 [](idx_t c) { return c >= 0; }),
                 "corrupt density map");
}

void
DensityMap::save(Writer &writer) const
{
    writer.writePod<std::int32_t>(numSubspaces());
    for (const auto &map : maps_)
        map.save(writer);
}

void
DensityMap::load(Reader &reader)
{
    const auto count = reader.readPod<std::int32_t>();
    JUNO_REQUIRE(count > 0, "corrupt density map header");
    maps_.assign(static_cast<std::size_t>(count), {});
    for (auto &map : maps_)
        map.load(reader);
}

const SubspaceDensity &
DensityMap::subspace(int s) const
{
    JUNO_REQUIRE(s >= 0 && s < numSubspaces(), "subspace " << s);
    return maps_[static_cast<std::size_t>(s)];
}

} // namespace juno
