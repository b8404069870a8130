/**
 * @file
 * Microbenchmarks of the hot kernels every figure rests on, printed
 * as scalar-vs-dispatched rows so the SIMD layer's speedup is a
 * number, not a claim:
 *
 *   kernel            shape            scalar      dispatched  speedup
 *   l2Sqr             d=128            x.xx GF/s   y.yy GF/s   z.zzx
 *   ...
 *
 * Self-contained (no google-benchmark): each kernel runs in a
 * calibrated timing loop against both dispatch tables. Also keeps the
 * top-k and BVH traversal spot-checks of the original bench, plus the
 * packet-walk rows (bvhPacket: one query's 8-ray packets and two
 * queries' kRayLanes-ray packets vs the same rays walked one by one).
 *
 *   --json <path>     dump the kernel and bvhPacket rows (BENCH_adc.json)
 *   --check-fastscan  exit 1 unless fast scan beats the legacy gather
 *   --check-packet    exit 1 unless the kRayLanes packet walk beats
 *                     single rays and every packing's tile equals the
 *                     single-ray cells bit for bit
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/build_info.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/timer.h"
#include "common/topk.h"
#include "quant/interleaved_codes.h"
#include "rtcore/bvh.h"

namespace juno {
namespace {

/** Runs @p fn until ~this much wall time accumulates, returns ops/s. */
constexpr double kMinSeconds = 0.2;

template <typename Fn>
double
opsPerSecond(std::size_t ops_per_call, Fn &&fn)
{
    // Warm-up + calibration pass.
    fn();
    Timer calibrate;
    fn();
    const double once = calibrate.seconds();
    std::size_t reps = once > 0.0
        ? static_cast<std::size_t>(kMinSeconds / once) + 1
        : 1000;
    Timer timer;
    for (std::size_t r = 0; r < reps; ++r)
        fn();
    const double elapsed = timer.seconds();
    return static_cast<double>(reps) *
           static_cast<double>(ops_per_call) / elapsed;
}

/** One printed row, also collected for the --json snapshot. */
struct RowRecord {
    std::string kernel;
    std::string shape;
    double baseline_ops = 0.0;
    double dispatched_ops = 0.0;
    std::string unit;
};

std::vector<RowRecord> g_rows;

/** One bvhPacket row: a packing's walk vs the same rays one by one. */
struct PacketRecord {
    std::string shape;
    std::string level; ///< dispatch level the packet walk ran at
    double single_rays = 0.0; ///< rays/s, single-ray walk
    double packet_rays = 0.0; ///< rays/s, packet walk
};

std::vector<PacketRecord> g_packet_rows;

/** Dispatched fast-scan vs dispatched legacy gather (CI gate). */
double g_fastscan_vs_gather = 0.0;

/** Packet walk at the best level vs single-ray walks (CI gate). */
double g_packet_vs_single = 0.0;

/** Tile cells of any packing that differ from the single-ray cells. */
std::size_t g_packet_mismatches = 0;

void
printRow(const std::string &kernel, const std::string &shape,
         double scalar_ops, double dispatched_ops, const char *unit)
{
    std::printf("%-18s %-20s %9.2f %-6s %9.2f %-6s %6.2fx\n",
                kernel.c_str(), shape.c_str(), scalar_ops * 1e-9, unit,
                dispatched_ops * 1e-9, unit,
                dispatched_ops / scalar_ops);
    g_rows.push_back(
        {kernel, shape, scalar_ops, dispatched_ops, unit});
}

/**
 * Writes the collected rows as JSON (BENCH_adc.json is produced from
 * this): kernel, shape, baseline and dispatched throughput, speedup.
 * The baseline column is the scalar table except for the explicit
 * cross-kernel rows (adcScan/seed, fastscanPq4/gather), whose
 * baseline is the row's stated reference. The bvhPacket rows go to
 * their own array: packet-walk vs single-ray Mray/s and their ratio.
 */
void
writeSnapshot(const std::string &path)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    out << "{\n  \"bench\": \"micro_kernels\",\n  \"build\": "
        << buildInfoJson() << ",\n  \"host\": " << hostInfoJson()
        << ",\n  \"dispatch\": \""
        << simd::levelName(simd::bestSupported())
        << "\",\n  \"kernels\": [\n";
    for (std::size_t i = 0; i < g_rows.size(); ++i) {
        const auto &r = g_rows[i];
        out << "    {\"kernel\": \"" << r.kernel << "\", \"shape\": \""
            << r.shape << "\", \"baseline_gops\": "
            << r.baseline_ops * 1e-9 << ", \"dispatched_gops\": "
            << r.dispatched_ops * 1e-9 << ", \"speedup\": "
            << r.dispatched_ops / r.baseline_ops << ", \"unit\": \""
            << r.unit << "\"}" << (i + 1 < g_rows.size() ? "," : "")
            << "\n";
    }
    out << "  ],\n  \"bvh_packet\": [\n";
    for (std::size_t i = 0; i < g_packet_rows.size(); ++i) {
        const auto &r = g_packet_rows[i];
        out << "    {\"shape\": \"" << r.shape << "\", \"level\": \""
            << r.level << "\", \"single_mrays\": " << r.single_rays * 1e-6
            << ", \"packet_mrays\": " << r.packet_rays * 1e-6
            << ", \"ratio\": " << r.packet_rays / r.single_rays << "}"
            << (i + 1 < g_packet_rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("snapshot written to %s\n", path.c_str());
}

std::vector<float>
randomVec(Rng &rng, std::size_t n)
{
    std::vector<float> v(n);
    for (auto &x : v)
        x = rng.uniform(-1.0f, 1.0f);
    return v;
}

/** Scalar-vs-dispatched rows for the reduction kernels. */
void
benchReductions(const simd::Kernels &scalar, const simd::Kernels &best)
{
    Rng rng(1);
    for (idx_t d : {idx_t(16), idx_t(128), idx_t(200)}) {
        const auto a = randomVec(rng, static_cast<std::size_t>(d));
        const auto b = randomVec(rng, static_cast<std::size_t>(d));
        // 3 flops per element for l2 (sub, mul, add), 2 for ip.
        const auto flops_l2 = static_cast<std::size_t>(3 * d);
        const auto flops_ip = static_cast<std::size_t>(2 * d);
        volatile float sink = 0.0f;

        const double s_l2 = opsPerSecond(flops_l2, [&] {
            sink = scalar.l2_sqr(a.data(), b.data(), d);
        });
        const double v_l2 = opsPerSecond(flops_l2, [&] {
            sink = best.l2_sqr(a.data(), b.data(), d);
        });
        printRow("l2Sqr", "d=" + std::to_string(d), s_l2, v_l2, "GF/s");

        const double s_ip = opsPerSecond(flops_ip, [&] {
            sink = scalar.inner_product(a.data(), b.data(), d);
        });
        const double v_ip = opsPerSecond(flops_ip, [&] {
            sink = best.inner_product(a.data(), b.data(), d);
        });
        printRow("innerProduct", "d=" + std::to_string(d), s_ip, v_ip,
                 "GF/s");
        (void)sink;
    }
}

void
benchBatch(const simd::Kernels &scalar, const simd::Kernels &best)
{
    Rng rng(2);
    const idx_t n = 4096;
    for (idx_t d : {idx_t(2), idx_t(96), idx_t(128)}) {
        const auto q = randomVec(rng, static_cast<std::size_t>(d));
        const auto rows = randomVec(
            rng, static_cast<std::size_t>(n) *
                     static_cast<std::size_t>(d));
        std::vector<float> out(static_cast<std::size_t>(n));
        const auto flops = static_cast<std::size_t>(3 * n * d);
        const double s = opsPerSecond(flops, [&] {
            scalar.l2_sqr_batch(q.data(), rows.data(), n, d, out.data());
        });
        const double v = opsPerSecond(flops, [&] {
            best.l2_sqr_batch(q.data(), rows.data(), n, d, out.data());
        });
        printRow("l2SqrBatch",
                 "n=" + std::to_string(n) + ",d=" + std::to_string(d), s,
                 v, "GF/s");
    }
}

void
benchGemm(const simd::Kernels &scalar, const simd::Kernels &best)
{
    Rng rng(3);
    const idx_t m = 64, k = 128, n = 256;
    const auto a = randomVec(rng, static_cast<std::size_t>(m * k));
    const auto b = randomVec(rng, static_cast<std::size_t>(k * n));
    std::vector<float> c(static_cast<std::size_t>(m * n));
    const auto flops = static_cast<std::size_t>(2) *
                       static_cast<std::size_t>(m) *
                       static_cast<std::size_t>(k) *
                       static_cast<std::size_t>(n);
    const double s = opsPerSecond(flops, [&] {
        scalar.gemm(a.data(), b.data(), c.data(), m, k, n);
    });
    const double v = opsPerSecond(flops, [&] {
        best.gemm(a.data(), b.data(), c.data(), m, k, n);
    });
    printRow("gemm",
             std::to_string(m) + "x" + std::to_string(k) + "x" +
                 std::to_string(n),
             s, v, "GF/s");

    // Batch-width sweep: per-row cost of the dispatched GEMM as the
    // row-block (query-batch) height grows. m = 1 runs the tile
    // under-occupied — the per-query dispatch regime the serving
    // layer's micro-batcher exists to avoid; the cross-row
    // amortisation saturates around the 4-row tile times the
    // register-block depth (m ~ 16), which is why the serving bench
    // chunks micro-batches in 16s.
    const idx_t width_k = 96, width_n = 1024;
    const auto wa = randomVec(rng, static_cast<std::size_t>(64 * width_k));
    const auto wb =
        randomVec(rng, static_cast<std::size_t>(width_k * width_n));
    std::vector<float> wc(static_cast<std::size_t>(64) *
                          static_cast<std::size_t>(width_n));
    for (idx_t rows : {1, 4, 16, 64}) {
        const auto row_flops = static_cast<std::size_t>(2) *
                               static_cast<std::size_t>(rows) *
                               static_cast<std::size_t>(width_k) *
                               static_cast<std::size_t>(width_n);
        const double sw = opsPerSecond(row_flops, [&] {
            scalar.gemm(wa.data(), wb.data(), wc.data(), rows, width_k,
                        width_n);
        });
        const double vw = opsPerSecond(row_flops, [&] {
            best.gemm(wa.data(), wb.data(), wc.data(), rows, width_k,
                      width_n);
        });
        printRow("gemmBatchWidth",
                 "m=" + std::to_string(rows) + ",k=" +
                     std::to_string(width_k) + ",n=" +
                     std::to_string(width_n),
                 sw, vw, "GF/s");
    }
}

void
benchAdcScan(const simd::Kernels &scalar, const simd::Kernels &best)
{
    Rng rng(4);
    const int subspaces = 48;
    const idx_t entries = 256;
    const idx_t num_points = 8192;
    const auto lut_flat = randomVec(
        rng, static_cast<std::size_t>(subspaces) *
                 static_cast<std::size_t>(entries));
    std::vector<entry_t> codes(static_cast<std::size_t>(num_points) *
                               static_cast<std::size_t>(subspaces));
    for (auto &c : codes)
        c = static_cast<entry_t>(rng.uniform() *
                                 static_cast<double>(entries)) %
            static_cast<entry_t>(entries);
    std::vector<idx_t> ids(static_cast<std::size_t>(num_points));
    for (idx_t i = 0; i < num_points; ++i)
        ids[static_cast<std::size_t>(i)] = i;
    std::vector<float> out(static_cast<std::size_t>(num_points));
    // One gather + add per (point, subspace).
    const auto ops = static_cast<std::size_t>(num_points) *
                     static_cast<std::size_t>(subspaces);

    // The scan loop exactly as the index ran it before the SIMD layer:
    // FloatMatrix::at() per cell (bounds-asserted row indexing) and a
    // per-point accumulator. This is the baseline the dispatched scan
    // replaced in ivfpq_index.cc.
    FloatMatrix lut(subspaces, entries);
    std::copy(lut_flat.begin(), lut_flat.end(), lut.data());
    const double seed = opsPerSecond(ops, [&] {
        for (idx_t i = 0; i < num_points; ++i) {
            const entry_t *pc =
                codes.data() + static_cast<std::size_t>(ids[
                                   static_cast<std::size_t>(i)]) *
                                   static_cast<std::size_t>(subspaces);
            float acc = 0.0f;
            for (int s = 0; s < subspaces; ++s)
                acc += lut.at(s, pc[s]);
            out[static_cast<std::size_t>(i)] = acc;
        }
    });
    const double s = opsPerSecond(ops, [&] {
        scalar.adc_scan(lut_flat.data(), entries, subspaces, codes.data(),
                        static_cast<std::size_t>(subspaces), ids.data(),
                        ids.size(), 0.0f, out.data());
    });
    const double v = opsPerSecond(ops, [&] {
        best.adc_scan(lut_flat.data(), entries, subspaces, codes.data(),
                      static_cast<std::size_t>(subspaces), ids.data(),
                      ids.size(), 0.0f, out.data());
    });
    const std::string shape = "S=" + std::to_string(subspaces) + ",n=" +
                              std::to_string(num_points);
    printRow("adcScan", shape, s, v, "Gop/s");
    printRow("adcScan/seed", shape, seed, v, "Gop/s");

    // Interleaved streaming scan on the same codes: one "list"
    // holding every point, re-materialised in 32-point blocks.
    PQCodes pq_codes;
    pq_codes.num_points = num_points;
    pq_codes.num_subspaces = subspaces;
    pq_codes.codes = codes;
    std::vector<std::vector<idx_t>> lists(1);
    lists[0] = ids;
    InterleavedLists inter;
    inter.build(lists, pq_codes, static_cast<int>(entries));
    const double si = opsPerSecond(ops, [&] {
        scalar.adc_scan_interleaved(lut_flat.data(), entries, subspaces,
                                    inter.listBlocks(0), ids.size(),
                                    0.0f, out.data());
    });
    const double vi = opsPerSecond(ops, [&] {
        best.adc_scan_interleaved(lut_flat.data(), entries, subspaces,
                                  inter.listBlocks(0), ids.size(), 0.0f,
                                  out.data());
    });
    printRow("adcScanInter", shape, si, vi, "Gop/s");
    // Layout change alone: dispatched interleaved vs dispatched gather.
    printRow("adcScanInter/gthr", shape, v, vi, "Gop/s");
}

/**
 * The 4-bit fast-scan path against the dispatched legacy gather on
 * identical lists: same points, same subspaces, PQ4 codes. The
 * "fastscanPq4/gather" row is the ISSUE's acceptance metric and the
 * --check-fastscan CI gate.
 */
void
benchFastScan(const simd::Kernels &scalar, const simd::Kernels &best)
{
    Rng rng(7);
    const int subspaces = 48;
    const idx_t entries = 16;
    const idx_t num_points = 8192;
    const auto lut_flat = randomVec(
        rng, static_cast<std::size_t>(subspaces) *
                 static_cast<std::size_t>(entries));
    PQCodes codes;
    codes.num_points = num_points;
    codes.num_subspaces = subspaces;
    codes.codes.resize(static_cast<std::size_t>(num_points) *
                       static_cast<std::size_t>(subspaces));
    for (auto &c : codes.codes)
        c = static_cast<entry_t>(rng.uniform() *
                                 static_cast<double>(entries)) %
            static_cast<entry_t>(entries);
    std::vector<idx_t> ids(static_cast<std::size_t>(num_points));
    for (idx_t i = 0; i < num_points; ++i)
        ids[static_cast<std::size_t>(i)] = i;
    std::vector<std::vector<idx_t>> lists(1);
    lists[0] = ids;
    InterleavedLists inter;
    inter.build(lists, codes, static_cast<int>(entries));

    FloatMatrix lut(subspaces, entries);
    std::copy(lut_flat.begin(), lut_flat.end(), lut.data());
    QuantizedLut qlut;
    quantizeLut(lut, static_cast<int>(entries), qlut);

    std::vector<float> out(static_cast<std::size_t>(num_points));
    std::vector<std::uint16_t> qsums(
        static_cast<std::size_t>(num_points));
    const auto ops = static_cast<std::size_t>(num_points) *
                     static_cast<std::size_t>(subspaces);
    const std::string shape = "S=" + std::to_string(subspaces) +
                              ",E=16,n=" + std::to_string(num_points);

    const double gather = opsPerSecond(ops, [&] {
        best.adc_scan(lut_flat.data(), entries, subspaces,
                      codes.codes.data(),
                      static_cast<std::size_t>(subspaces), ids.data(),
                      ids.size(), 0.0f, out.data());
    });
    const double s = opsPerSecond(ops, [&] {
        scalar.fastscan_pq4(inter.listPacked(0), subspaces,
                            qlut.table.data(), ids.size(),
                            qsums.data());
    });
    const double v = opsPerSecond(ops, [&] {
        best.fastscan_pq4(inter.listPacked(0), subspaces,
                          qlut.table.data(), ids.size(), qsums.data());
    });
    printRow("fastscanPq4", shape, s, v, "Gop/s");
    printRow("fastscanPq4/gthr", shape, gather, v, "Gop/s");
    g_fastscan_vs_gather = v / gather;
}

void
benchCompact(const simd::Kernels &scalar, const simd::Kernels &best)
{
    Rng rng(5);
    const std::size_t n = 8192;
    std::vector<float> acc(n);
    std::vector<std::int32_t> hits(n, 0);
    std::vector<idx_t> list(n);
    for (std::size_t i = 0; i < n; ++i) {
        acc[i] = rng.uniform(-1.0f, 1.0f);
        // ~5% touched: the sparse regime JUNO's selective LUT creates.
        hits[i] = rng.uniform() < 0.05 ? 1 : 0;
        list[i] = static_cast<idx_t>(i);
    }
    std::vector<Neighbor> out;
    out.reserve(n);
    const double s = opsPerSecond(n, [&] {
        out.clear();
        scalar.compact_candidates(acc.data(), hits.data(), list.data(), n,
                                  0.0f, out);
    });
    const double v = opsPerSecond(n, [&] {
        out.clear();
        best.compact_candidates(acc.data(), hits.data(), list.data(), n,
                                0.0f, out);
    });
    printRow("compactCand", "n=" + std::to_string(n) + ",5%", s, v,
             "Gop/s");
}

/** Original spot-checks, kept so regressions here stay visible too. */
void
benchTopKAndBvh()
{
    Rng rng(6);
    const idx_t n = 10000, k = 100;
    std::vector<float> scores(static_cast<std::size_t>(n));
    for (auto &s : scores)
        s = rng.uniform(0.0f, 1.0f);
    const double topk_ops = opsPerSecond(
        static_cast<std::size_t>(n), [&] {
            TopK top(k, Metric::kL2);
            for (idx_t i = 0; i < n; ++i)
                top.push(i, scores[static_cast<std::size_t>(i)]);
            volatile std::size_t sink = top.take().size();
            (void)sink;
        });
    std::printf("%-18s %-20s %9.2f %-6s\n", "topK",
                "n=10000,k=100", topk_ops * 1e-9, "Gop/s");

    std::vector<rt::Sphere> spheres(4096);
    for (std::size_t i = 0; i < spheres.size(); ++i) {
        spheres[i].center = {rng.uniform(-1.0f, 1.0f),
                             rng.uniform(-1.0f, 1.0f), 1.0f};
        spheres[i].radius = 1.0f;
        spheres[i].user_id = i;
    }
    rt::Bvh bvh;
    bvh.build(spheres);
    rt::Ray ray;
    ray.origin = {0.1f, -0.1f, 0.0f};
    ray.dir = {0, 0, 1};
    ray.tmax = 0.3f;
    rt::TraversalStats stats;
    const double trav_ops = opsPerSecond(1, [&] {
        int hits = 0;
        bvh.traverse(ray, spheres, stats, [&](const rt::Hit &) {
            ++hits;
            return true;
        });
        volatile int sink = hits;
        (void)sink;
    });
    std::printf("%-18s %-20s %9.2f %-6s\n", "bvhTraverse",
                "spheres=4096", trav_ops * 1e-6, "Mray/s");
}

/**
 * Traces @p rays as packets of @p lanes consecutive rays with the
 * packet-walk kernel, each recording its subspace's @p row spheres
 * into the packet's [e][lane] tile, the way the LUT builder does. A
 * packet's subspace is that of its first ray: kRayLanes consecutive
 * rays share one.
 */
void
tracePackets(const rt::Bvh &bvh, const std::vector<rt::Sphere> &spheres,
             const std::vector<rt::Ray> &rays, int lanes, std::size_t row,
             int subspaces, rt::TraversalStats &stats, float *cells)
{
    const auto width = static_cast<std::size_t>(lanes);
    const auto block = static_cast<std::size_t>(simd::kRayLanes);
    for (std::size_t first = 0; first < rays.size(); first += width) {
        const std::size_t s =
            first / block % static_cast<std::size_t>(subspaces);
        const rt::RecordRange record{static_cast<std::uint32_t>(s * row),
                                     static_cast<std::uint32_t>(row)};
        bvh.traceTile(rays.data() + first, lanes, spheres, record,
                      cells + first * row, stats);
    }
}

/**
 * The selective-LUT access pattern: a JUNO-shaped scene (S planes of E
 * radius-1 spheres at z = 4s + 1) and groups of kRayLanes +z probe
 * rays from one plane, each with its own tmax gate. The single-ray
 * walk stores each hit's thit in its ray's row of E cells; the
 * packet-walk kernel stores each hit sphere's lanes into the packet's
 * [e][lane] tile with one masked store.
 * Two packings of the same rays: one query's 8 probe rays per packet,
 * and two queries' rays in one kRayLanes packet (the cross-query
 * group). Rays per second of each against the same rays walked one at
 * a time, at the active dispatch level, or at the best one when that
 * is scalar (the gate pins the SIMD win). Every packing's tile must
 * equal the single-ray cells bit for bit.
 */
void
benchBvhPacket()
{
    Rng rng(8);
    const int subspaces = 16, entries = 256, groups = 32;
    const int lanes = simd::kRayLanes;
    const int query_lanes = 8; // one query's nprobe = 8 probe rays
    std::vector<rt::Sphere> spheres;
    for (int s = 0; s < subspaces; ++s)
        for (int e = 0; e < entries; ++e) {
            rt::Sphere sphere;
            sphere.center = {rng.uniform(-0.8f, 0.8f),
                             rng.uniform(-0.8f, 0.8f),
                             4.0f * static_cast<float>(s) + 1.0f};
            sphere.radius = 1.0f;
            sphere.user_id = spheres.size();
            spheres.push_back(sphere);
        }
    rt::Bvh bvh;
    bvh.build(spheres);
    std::vector<rt::Ray> rays(static_cast<std::size_t>(groups * lanes));
    for (std::size_t i = 0; i < rays.size(); ++i) {
        const int s = static_cast<int>(i / static_cast<std::size_t>(lanes)) %
                      subspaces;
        const float r = rng.uniform(0.2f, 0.5f); // gate radius
        rays[i].origin = {rng.uniform(-0.8f, 0.8f), rng.uniform(-0.8f, 0.8f),
                          4.0f * static_cast<float>(s)};
        rays[i].tmin = -1e-4f;
        rays[i].tmax = 1.0f - std::sqrt(1.0f - r * r);
    }
    const auto row = static_cast<std::size_t>(entries);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    std::vector<float> cells(rays.size() * row, nan);

    rt::TraversalStats stats;
    const auto traceSingle = [&] {
        for (std::size_t i = 0; i < rays.size(); ++i)
            bvh.traverse(rays[i], spheres, stats, [&](const rt::Hit &hit) {
                cells[i * row + hit.user_id % row] = hit.thit;
                return true;
            });
    };
    traceSingle();
    const std::vector<float> want = cells;
    const double single = opsPerSecond(rays.size(), traceSingle);

    const simd::Level saved = simd::level();
    if (saved == simd::Level::kScalar)
        simd::setLevel(simd::bestSupported());
    const simd::Kernels &kernels = simd::active();
    for (int width : {query_lanes, lanes}) {
        // Bit-for-bit check of one untimed pass from a NaN tile: lane
        // `lane` of the packet at `first` owns tile column
        // first * row + e * width + lane.
        std::fill(cells.begin(), cells.end(), nan);
        tracePackets(bvh, spheres, rays, width, row, subspaces, stats,
                     cells.data());
        const auto w = static_cast<std::size_t>(width);
        for (std::size_t i = 0; i < rays.size(); ++i) {
            const std::size_t first = i / w * w;
            for (std::size_t e = 0; e < row; ++e) {
                const float got = cells[first * row + e * w + (i - first)];
                if (std::memcmp(&got, &want[i * row + e], sizeof got) != 0)
                    ++g_packet_mismatches;
            }
        }
        const double packet = opsPerSecond(rays.size(), [&] {
            tracePackets(bvh, spheres, rays, width, row, subspaces, stats,
                         cells.data());
        });
        const std::string shape = "S=" + std::to_string(subspaces) +
                                  ",E=" + std::to_string(entries) +
                                  ",lanes=" + std::to_string(width);
        std::printf("%-18s %-20s %9.2f %-6s %9.2f %-6s %6.2fx (%s)\n",
                    "bvhPacket", shape.c_str(), single * 1e-6, "Mray/s",
                    packet * 1e-6, "Mray/s", packet / single,
                    kernels.name);
        g_packet_rows.push_back({shape, kernels.name, single, packet});
        if (width == lanes)
            g_packet_vs_single = packet / single;
    }
    simd::setLevel(saved);
}

} // namespace
} // namespace juno

int
main(int argc, char **argv)
{
    using namespace juno;
    // --json <path>: dump the measured rows (BENCH_adc.json is this
    // snapshot). --check-fastscan: exit nonzero unless the dispatched
    // 4-bit fast-scan beats the dispatched legacy gather (CI gate).
    // --check-packet: exit nonzero unless the packet BVH walk beats the
    // single-ray walk on the same rays and stores the same bits (CI
    // gate).
    std::string json_path;
    bool check_fastscan = false;
    bool check_packet = false;
    for (int a = 1; a < argc; ++a) {
        const std::string arg = argv[a];
        if (arg == "--json" && a + 1 < argc)
            json_path = argv[++a];
        else if (arg == "--check-fastscan")
            check_fastscan = true;
        else if (arg == "--check-packet")
            check_packet = true;
    }

    const auto &scalar = simd::table(simd::Level::kScalar);
    const auto &best = simd::table(simd::bestSupported());
    std::printf("SIMD dispatch: best supported level = %s "
                "(active = %s)\n\n",
                simd::levelName(simd::bestSupported()),
                simd::active().name);
    std::printf("%-18s %-20s %9s %-6s %9s %-6s %7s\n", "kernel", "shape",
                "scalar", "", "dispatch", "", "speedup");
    benchReductions(scalar, best);
    benchBatch(scalar, best);
    benchGemm(scalar, best);
    benchAdcScan(scalar, best);
    benchFastScan(scalar, best);
    benchCompact(scalar, best);
    std::printf("\n");
    benchTopKAndBvh();
    benchBvhPacket();

    if (!json_path.empty())
        writeSnapshot(json_path);
    int status = 0;
    if (check_packet) {
        // Bit-for-bit on every host: a tile that differs is a bug.
        std::printf("packet tiles vs single-ray cells: %zu cells differ\n",
                    g_packet_mismatches);
        if (g_packet_mismatches != 0) {
            std::fprintf(stderr,
                         "FAIL: %zu packet tile cells differ from the "
                         "single-ray cells\n",
                         g_packet_mismatches);
            status = 1;
        }
    }
    if ((check_fastscan || check_packet) &&
        simd::bestSupported() == simd::Level::kScalar) {
        // The scalar fast-scan and packet kernels only restructure the
        // same scalar work; the speed gates exist to pin the SIMD wins.
        std::printf("SIMD speed gates skipped: host has no SIMD tier "
                    "(scalar dispatch only)\n");
        return status;
    }
    if (check_fastscan) {
        std::printf("fast-scan vs legacy gather: %.2fx\n",
                    g_fastscan_vs_gather);
        if (g_fastscan_vs_gather <= 1.0) {
            std::fprintf(stderr,
                         "FAIL: fast-scan (%.2fx) does not beat the "
                         "legacy gather on the same lists\n",
                         g_fastscan_vs_gather);
            status = 1;
        }
    }
    if (check_packet) {
        std::printf("packet walk vs single-ray walks: %.2fx\n",
                    g_packet_vs_single);
        if (g_packet_vs_single <= 1.0) {
            std::fprintf(stderr,
                         "FAIL: the packet walk (%.2fx) does not beat "
                         "single-ray walks on the same rays\n",
                         g_packet_vs_single);
            status = 1;
        }
    }
    return status;
}
