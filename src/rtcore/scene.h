/**
 * @file
 * A traversable scene: sphere geometry plus its acceleration structure,
 * mirroring an OptiX geometry acceleration structure (GAS). JUNO's
 * offline phase builds one scene holding every codebook entry of every
 * subspace (paper Alg. 1, lines 10-11).
 */
#ifndef JUNO_RTCORE_SCENE_H
#define JUNO_RTCORE_SCENE_H

#include <vector>

#include "rtcore/bvh.h"
#include "rtcore/geometry.h"

namespace juno {
namespace rt {

/** Sphere geometry + BVH; build once, trace many. */
class Scene {
  public:
    /** Adds a sphere before build(). Returns its prim id. */
    std::uint32_t addSphere(const Sphere &s);

    /** Bulk-add. */
    void addSpheres(const std::vector<Sphere> &spheres);

    /** Builds the acceleration structure; invalidates prior builds. */
    void build(const BvhBuildParams &params = {});

    bool built() const { return built_; }
    std::size_t sphereCount() const { return spheres_.size(); }
    const std::vector<Sphere> &spheres() const { return spheres_; }
    const Sphere &sphere(std::uint32_t id) const { return spheres_.at(id); }
    const Bvh &bvh() const { return bvh_; }

    /** Packet walk into a tile (see Bvh::traceTile). */
    void
    traceTile(const Ray *rays, int count, RecordRange record, float *tile,
              TraversalStats &stats) const
    {
        bvh_.traceTile(rays, count, spheres_, record, tile, stats);
    }

  private:
    std::vector<Sphere> spheres_;
    Bvh bvh_;
    bool built_ = false;
};

} // namespace rt
} // namespace juno

#endif // JUNO_RTCORE_SCENE_H
