/**
 * @file
 * Build provenance: git sha, compiler, build type and the active SIMD
 * level — stamped into every bench JSON snapshot and the metrics
 * export so a BENCH_*.json trajectory (or a production metrics scrape)
 * is attributable to the exact binary that produced it.
 */
#ifndef JUNO_COMMON_BUILD_INFO_H
#define JUNO_COMMON_BUILD_INFO_H

#include <string>
#include <utility>
#include <vector>

namespace juno {

/** Identity of this binary. simd_level is resolved at runtime. */
struct BuildInfo {
    std::string git_sha;    ///< short sha at configure time ("unknown" off-git)
    std::string compiler;   ///< compiler id + version (__VERSION__)
    std::string build_type; ///< CMAKE_BUILD_TYPE at configure time
    std::string simd_level; ///< active dispatch level (runtime query)
};

/** This binary's build info (simd level sampled per call). */
BuildInfo buildInfo();

/** The same info as a JSON object string (for bench snapshots). */
std::string buildInfoJson();

/**
 * The host a measurement ran on, as a JSON object: hardware threads,
 * CPU model, L2/L3 sizes and RAM, with benchsuite's field names
 * (benchsuite/suite/stamp.h) so the stamps diff.
 */
std::string hostInfoJson();

/** The same info as Prometheus-style info labels. */
std::vector<std::pair<std::string, std::string>> buildInfoLabels();

} // namespace juno

#endif // JUNO_COMMON_BUILD_INFO_H
