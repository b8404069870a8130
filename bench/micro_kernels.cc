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
 * queries' kRayLanes-ray packets vs the same rays traced alone, which
 * RtDevice does on the dense gate)
 * and the dense-gate rows (sphereGate: a lone ray on the gate vs the
 * one-lane walk, at L2 and inner-product geometry; gateOccupancy: the
 * walk vs the gate per ray for packets of 1..kRayLanes rays, and the
 * occupancy where the walk starts to win).
 *
 *   --json <path>     dump the kernel, bvhPacket and gate rows
 *                     (BENCH_adc.json)
 *   --check-fastscan  exit 1 unless fast scan beats the float
 *                     interleaved scan
 *   --check-packet    exit 1 unless the kRayLanes packet walk beats
 *                     the same rays traced alone (the dense gate) and
 *                     every packing's tile equals the scalar
 *                     rt::intersectSphere cells bit for bit
 *   --check-permscan  exit 1 unless the interleaved scan (permute and
 *                     gather paths) and the flag count equal the scalar
 *                     reference bit for bit at every level, and, on an
 *                     AVX-512 host, the permute scan is not slower than
 *                     the gather scan at E=128
 *   --check-gate      exit 1 unless, at every level, RtDevice's dense
 *                     gate (lone rays under kRtCore, packets of
 *                     1..kRayLanes under kCudaFallback) writes the walk's
 *                     tile bit for bit and counts exactly count rays,
 *                     count * E prim tests, its written cells as hits
 *                     and no node visits or box tests
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
#include "rtcore/device.h"

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

/** One bvhPacket row: a packing's walk vs the same rays traced alone. */
struct PacketRecord {
    std::string shape;
    std::string level; ///< dispatch level the packet walk ran at
    double lone_rays = 0.0; ///< rays/s, each ray alone (the dense gate)
    double packet_rays = 0.0; ///< rays/s, packet walk
};

std::vector<PacketRecord> g_packet_rows;

/** One sphereGate row: lone rays on the gate vs the one-lane walk. */
struct GateRecord {
    std::string shape;
    std::string level;
    double walk_rays = 0.0; ///< rays/s, one-ray packets on the walk
    double gate_rays = 0.0; ///< rays/s, lone rays on the dense gate
    double hits_per_test = 0.0;
};

std::vector<GateRecord> g_gate_rows;

/** One gateOccupancy point: packets of `count` rays, walk vs gate. */
struct OccupancyRecord {
    std::string geometry;
    int count = 0;
    double walk_rays = 0.0;
    double gate_rays = 0.0;
};

std::vector<OccupancyRecord> g_occupancy_rows;

/** Tile cells or counters of the gate that differ from the walk's. */
std::size_t g_gate_mismatches = 0;

/** Dispatched fast scan vs dispatched float interleaved scan (CI gate). */
double g_fastscan_vs_inter = 0.0;

/** Packet walk at the best level vs lone rays on the gate (CI gate). */
double g_packet_vs_lone = 0.0;

/** Tile cells of any packing that differ from the scalar reference. */
std::size_t g_packet_mismatches = 0;

/** Permute vs gather interleaved scan at E=128 (AVX-512 CI gate). */
double g_perm_vs_gather_128 = 0.0;

/** Scan outputs and flag counts of any level that differ from scalar. */
std::size_t g_permscan_mismatches = 0;

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
 * cross-kernel row fastscanPq4/inter, whose baseline is the dispatched
 * float interleaved scan, and the adcScanInter/gather rows, whose
 * baseline is the dispatched table's gather path on the same lists.
 * The bvhPacket rows go to their own array: packet-walk vs lone-ray
 * (dense gate) Mray/s and their ratio; so do the sphereGate rows
 * (one-lane walk vs lone-ray gate, rays/s) and the gateOccupancy sweep
 * (walk vs gate rays/s per packet occupancy).
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
            << r.level << "\", \"lone_mrays\": " << r.lone_rays * 1e-6
            << ", \"packet_mrays\": " << r.packet_rays * 1e-6
            << ", \"ratio\": " << r.packet_rays / r.lone_rays << "}"
            << (i + 1 < g_packet_rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"sphere_gate\": [\n";
    for (std::size_t i = 0; i < g_gate_rows.size(); ++i) {
        const auto &r = g_gate_rows[i];
        out << "    {\"shape\": \"" << r.shape << "\", \"level\": \""
            << r.level << "\", \"walk_rays\": " << r.walk_rays
            << ", \"gate_rays\": " << r.gate_rays
            << ", \"ratio\": " << r.gate_rays / r.walk_rays
            << ", \"hits_per_test\": " << r.hits_per_test << "}"
            << (i + 1 < g_gate_rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"gate_occupancy\": [\n";
    for (std::size_t i = 0; i < g_occupancy_rows.size(); ++i) {
        const auto &r = g_occupancy_rows[i];
        out << "    {\"geometry\": \"" << r.geometry
            << "\", \"count\": " << r.count
            << ", \"walk_rays\": " << r.walk_rays
            << ", \"gate_rays\": " << r.gate_rays << "}"
            << (i + 1 < g_occupancy_rows.size() ? "," : "") << "\n";
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

/**
 * One list holding points [0, num_points) with random codes below
 * @p entries, built into @p inter: the interleaved blocks the index
 * scans, plus the nibble plane when entries <= 16.
 */
void
buildRandomList(Rng &rng, int subspaces, idx_t entries, idx_t num_points,
                InterleavedLists &inter)
{
    PQCodes codes;
    codes.num_points = num_points;
    codes.num_subspaces = subspaces;
    codes.codes.resize(static_cast<std::size_t>(num_points) *
                       static_cast<std::size_t>(subspaces));
    for (auto &c : codes.codes)
        c = static_cast<entry_t>(rng.uniform() *
                                 static_cast<double>(entries)) %
            static_cast<entry_t>(entries);
    std::vector<std::vector<idx_t>> lists(1);
    for (idx_t i = 0; i < num_points; ++i)
        lists[0].push_back(i);
    inter.build(lists, codes, static_cast<int>(entries));
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
    InterleavedLists inter;
    buildRandomList(rng, subspaces, entries, num_points, inter);
    std::vector<float> out(static_cast<std::size_t>(num_points));
    // One gather + add per (point, subspace).
    const auto ops = static_cast<std::size_t>(num_points) *
                     static_cast<std::size_t>(subspaces);
    const std::string shape = "S=" + std::to_string(subspaces) + ",n=" +
                              std::to_string(num_points);
    const double s = opsPerSecond(ops, [&] {
        scalar.adc_scan_interleaved(lut_flat.data(), entries, entries,
                                    subspaces, inter.listBlocks(0),
                                    out.size(), 0.0f, out.data());
    });
    const double v = opsPerSecond(ops, [&] {
        best.adc_scan_interleaved(lut_flat.data(), entries, entries,
                                  subspaces, inter.listBlocks(0),
                                  out.size(), 0.0f, out.data());
    });
    printRow("adcScanInter", shape, s, v, "Gop/s");
}

/**
 * The in-register (permute) interleaved scan against the gather path
 * of the same dispatched table on identical lists, at E = 32..256. The
 * LUT rows sit at a stride past simd::kAdcPermuteMaxEntries, so passing
 * that stride as the row length sends the same rows down the gather
 * path (it reads only the cells the codes name); at E = 256 both calls
 * gather, so that row reads about 1x. Also the --check-permscan
 * parity pass: on a list with a partial tail block, every supported
 * level's scan (both paths) must equal the scalar table bit for bit.
 */
void
benchPermuteScan(const simd::Kernels &best)
{
    Rng rng(11);
    const int subspaces = 48;
    const idx_t stride = 512;
    static_assert(simd::kAdcPermuteMaxEntries < 512,
                  "a 512-cell row must take the gather path");
    const idx_t num_points = 8192;
    const idx_t check_points = 1013;
    const auto lut = randomVec(rng, static_cast<std::size_t>(subspaces) *
                                        static_cast<std::size_t>(stride));
    for (idx_t entries : {idx_t(32), idx_t(64), idx_t(128), idx_t(256)}) {
        InterleavedLists inter;
        buildRandomList(rng, subspaces, entries, num_points, inter);
        std::vector<float> out(static_cast<std::size_t>(num_points));
        const auto ops = static_cast<std::size_t>(num_points) *
                         static_cast<std::size_t>(subspaces);
        const auto scan = [&](const simd::Kernels &k, idx_t row_length,
                              const InterleavedLists &list,
                              std::vector<float> &dst) {
            k.adc_scan_interleaved(lut.data(), stride, row_length,
                                   subspaces, list.listBlocks(0),
                                   dst.size(), 0.0f, dst.data());
        };
        // Best of three alternating windows per side: one window on a
        // shared host swings by tens of percent, and the E=128 ratio is
        // a CI gate.
        double gather = 0.0, permute = 0.0;
        for (int round = 0; round < 3; ++round) {
            gather = std::max(gather, opsPerSecond(ops, [&] {
                                  scan(best, stride, inter, out);
                              }));
            permute = std::max(permute, opsPerSecond(ops, [&] {
                                   scan(best, entries, inter, out);
                               }));
        }
        printRow("adcScanInter/gather",
                 "S=" + std::to_string(subspaces) + ",E=" +
                     std::to_string(entries) + ",n=" +
                     std::to_string(num_points),
                 gather, permute, "Gop/s");
        if (entries == 128)
            g_perm_vs_gather_128 = permute / gather;

        InterleavedLists check;
        buildRandomList(rng, subspaces, entries, check_points, check);
        std::vector<float> want(static_cast<std::size_t>(check_points));
        std::vector<float> got(want.size());
        scan(simd::table(simd::Level::kScalar), entries, check, want);
        for (simd::Level level : {simd::Level::kAvx2, simd::Level::kAvx512}) {
            if (!simd::supported(level))
                continue;
            for (idx_t row_length : {entries, stride}) {
                scan(simd::table(level), row_length, check, got);
                for (std::size_t i = 0; i < want.size(); ++i)
                    g_permscan_mismatches +=
                        std::memcmp(&want[i], &got[i], sizeof(float)) != 0;
            }
        }
    }
}

/**
 * Interleaved flag count (JUNO's dense hit counts) over bit rows laid
 * out like an nprobe=8 L2 LUT: E=128 (four words a row), consecutive
 * subspace rows 8 rows apart. Its parity pass joins --check-permscan.
 */
void
benchFlagCount(const simd::Kernels &scalar, const simd::Kernels &best)
{
    Rng rng(12);
    const int subspaces = 48;
    const idx_t entries = 128;
    const idx_t words = entries / 32;
    const idx_t word_stride = 8 * words;
    const idx_t num_points = 8192;
    std::vector<std::uint32_t> bits(static_cast<std::size_t>(subspaces) *
                                    static_cast<std::size_t>(word_stride));
    for (auto &w : bits)
        w = static_cast<std::uint32_t>(rng.below(1ull << 32));
    InterleavedLists inter;
    buildRandomList(rng, subspaces, entries, num_points, inter);
    std::vector<std::int32_t> out(static_cast<std::size_t>(num_points));
    const auto count = [&](const simd::Kernels &k,
                           std::vector<std::int32_t> &dst, std::size_t n) {
        k.flag_count_interleaved(bits.data(), word_stride, entries,
                                 subspaces, inter.listBlocks(0), n,
                                 dst.data());
    };
    const auto ops = static_cast<std::size_t>(num_points) *
                     static_cast<std::size_t>(subspaces);
    const double s = opsPerSecond(ops, [&] { count(scalar, out, out.size()); });
    const double v = opsPerSecond(ops, [&] { count(best, out, out.size()); });
    printRow("flagCount",
             "S=" + std::to_string(subspaces) + ",E=" +
                 std::to_string(entries) + ",n=" +
                 std::to_string(num_points),
             s, v, "Gop/s");

    // Parity on a prefix that ends inside a block.
    const std::size_t n = out.size() - 19;
    std::vector<std::int32_t> want(n), got(n);
    count(scalar, want, n);
    for (simd::Level level : {simd::Level::kAvx2, simd::Level::kAvx512}) {
        if (!simd::supported(level))
            continue;
        count(simd::table(level), got, n);
        for (std::size_t i = 0; i < n; ++i)
            g_permscan_mismatches += want[i] != got[i];
    }
}

/**
 * The 4-bit fast-scan path against the dispatched float interleaved
 * scan on identical lists: same points, same subspaces, PQ4 codes. The
 * float scan is what IVFPQ streams when a list has no nibble plane, so
 * the "fastscanPq4/inter" row is the fast scan's win over the index's
 * own fallback and the --check-fastscan CI gate.
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
    InterleavedLists inter;
    buildRandomList(rng, subspaces, entries, num_points, inter);

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

    const double s = opsPerSecond(ops, [&] {
        scalar.fastscan_pq4(inter.listPacked(0), subspaces,
                            qlut.table.data(), qsums.size(),
                            qsums.data());
    });
    // Best of three alternating windows per side: the ratio is a CI
    // gate, and one window on a shared host swings by tens of percent.
    double inter_float = 0.0, v = 0.0;
    for (int round = 0; round < 3; ++round) {
        inter_float = std::max(inter_float, opsPerSecond(ops, [&] {
            best.adc_scan_interleaved(lut_flat.data(), entries, entries,
                                      subspaces, inter.listBlocks(0),
                                      out.size(), 0.0f, out.data());
        }));
        v = std::max(v, opsPerSecond(ops, [&] {
            best.fastscan_pq4(inter.listPacked(0), subspaces,
                              qlut.table.data(), qsums.size(),
                              qsums.data());
        }));
    }
    printRow("fastscanPq4", shape, s, v, "Gop/s");
    printRow("fastscanPq4/inter", shape, inter_float, v, "Gop/s");
    g_fastscan_vs_inter = v / inter_float;
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
        // ~5% of the points are candidates (some subspace selected),
        // as under a tight gate; at juno-batch's gates most points are.
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
    for (auto &sphere : spheres) {
        sphere.center = {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f),
                         1.0f};
        sphere.radius = 1.0f;
    }
    rt::Bvh bvh;
    bvh.build(spheres);
    rt::Ray ray;
    ray.origin = {0.1f, -0.1f, 0.0f};
    ray.dir = {0, 0, 1};
    ray.tmax = 0.3f;
    rt::TraversalStats stats;
    // A one-ray packet (the one-lane walk) recording every sphere.
    std::vector<float> tile(spheres.size());
    const rt::RecordRange record{0, static_cast<std::uint32_t>(tile.size())};
    const double trav_ops = opsPerSecond(1, [&] {
        bvh.traceTile(&ray, 1, spheres, record, tile.data(), stats);
    });
    std::printf("%-18s %-20s %9.0f %-6s\n", "bvhTraverse",
                "spheres=4096", trav_ops, "ray/s");
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
 * rays from one plane, each with its own tmax gate. A lone ray (what
 * RtDevice traces on the dense gate) stores each hit's thit in its
 * ray's row of E cells; the packet-walk kernel stores each hit
 * sphere's lanes into the packet's [e][lane] tile with one masked
 * store.
 * Two packings of the same rays: one query's 8 probe rays per packet,
 * and two queries' rays in one kRayLanes packet (the cross-query
 * group). Rays per second of each against the same rays traced alone,
 * at the active dispatch level, or at the best one when that is scalar
 * (the speed check pins a SIMD claim). Every packing's tile must equal
 * the cells of the scalar rt::intersectSphere over each ray's subspace
 * bit for bit.
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
            spheres.push_back(sphere);
        }
    rt::Scene scene;
    scene.addSpheres(spheres);
    scene.build();
    const rt::Bvh &bvh = scene.bvh();
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

    // The reference cells: each ray against its subspace's spheres one
    // by one with the scalar rt::intersectSphere, no BVH and no vector
    // code, into its own row of E cells.
    for (std::size_t i = 0; i < rays.size(); ++i) {
        const std::size_t s = i / static_cast<std::size_t>(lanes) %
                              static_cast<std::size_t>(subspaces);
        for (std::size_t e = 0; e < row; ++e) {
            float t;
            if (rt::intersectSphere(rays[i], spheres[s * row + e], t))
                cells[i * row + e] = t;
        }
    }
    const std::vector<float> want = cells;

    rt::RtDevice device(rt::ExecMode::kRtCore);
    rt::TraversalStats stats;
    // Each ray alone as the device traces a lone ray (the dense gate),
    // into its own row of E cells.
    const auto traceLone = [&] {
        for (std::size_t i = 0; i < rays.size(); ++i) {
            const std::size_t s =
                i / static_cast<std::size_t>(lanes) %
                static_cast<std::size_t>(subspaces);
            const rt::RecordRange record{static_cast<std::uint32_t>(s * row),
                                         static_cast<std::uint32_t>(row)};
            device.traceTile(scene, &rays[i], 1, record,
                             cells.data() + i * row);
        }
    };

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
        // Best of three alternating windows per side: the 16-lane ratio
        // is a CI gate, and one window on a shared host swings by tens
        // of percent.
        double lone = 0.0, packet = 0.0;
        for (int round = 0; round < 3; ++round) {
            lone = std::max(lone, opsPerSecond(rays.size(), traceLone));
            packet = std::max(packet, opsPerSecond(rays.size(), [&] {
                tracePackets(bvh, spheres, rays, width, row, subspaces,
                             stats, cells.data());
            }));
        }
        const std::string shape = "S=" + std::to_string(subspaces) +
                                  ",E=" + std::to_string(entries) +
                                  ",lanes=" + std::to_string(width);
        std::printf("%-18s %-20s %9.2f %-6s %9.2f %-6s %6.2fx (%s)\n",
                    "bvhPacket", shape.c_str(), lone * 1e-6, "Mray/s",
                    packet * 1e-6, "Mray/s", packet / lone, kernels.name);
        g_packet_rows.push_back({shape, kernels.name, lone, packet});
        if (width == lanes)
            g_packet_vs_lone = packet / lone;
    }
    simd::setLevel(saved);
}

/** Probe rays per subspace in the gate rows' pool. */
constexpr int kGatePool = 48;

/**
 * A JUNO-shaped scene for the gate rows: S planes of E = 128 spheres
 * at z = 4s + 1 (prim s * E + e), and kGatePool +z probe rays per
 * subspace from its plane, subspace-major.
 *  - L2 (DEEP-like, D = 96 so S = 48): radius-1 spheres, gate radius
 *    0.2-0.5, as JunoScene::makeRay sets tmax for a kappa-scaled L2
 *    threshold;
 *  - IP (TTI-like, D = 200 so S = 100): centres in the unit disc,
 *    radii inflated to sqrt(1 + |c|^2) (JunoScene's inner-product
 *    spheres), tmin = 1 - max radius, and a low similarity floor
 *    (tmax 0.7-1.0), so nearly every sphere in the plane is hit and
 *    the BVH culls little.
 */
struct GateGeometry {
    std::string name;
    int subspaces = 0;
    int entries = 128;
    rt::Scene scene;
    std::vector<rt::Ray> rays;

    rt::RecordRange
    record(int s) const
    {
        return {static_cast<std::uint32_t>(s * entries),
                static_cast<std::uint32_t>(entries)};
    }
};

GateGeometry
gateGeometry(Metric metric)
{
    const bool l2 = metric == Metric::kL2;
    Rng rng(l2 ? 31 : 37);
    GateGeometry g;
    g.subspaces = l2 ? 48 : 100;
    g.name = std::string(l2 ? "L2" : "IP") + ",S=" +
             std::to_string(g.subspaces) + ",E=" +
             std::to_string(g.entries);
    const auto inDisc = [&rng](float &x, float &y) {
        do {
            x = rng.uniform(-1.0f, 1.0f);
            y = rng.uniform(-1.0f, 1.0f);
        } while (x * x + y * y > 1.0f);
    };
    float max_radius = 1.0f;
    for (int s = 0; s < g.subspaces; ++s)
        for (int e = 0; e < g.entries; ++e) {
            rt::Sphere sphere;
            sphere.center.z = 4.0f * static_cast<float>(s) + 1.0f;
            sphere.radius = 1.0f;
            if (l2) {
                sphere.center.x = rng.uniform(-0.8f, 0.8f);
                sphere.center.y = rng.uniform(-0.8f, 0.8f);
            } else {
                inDisc(sphere.center.x, sphere.center.y);
                sphere.radius = std::sqrt(
                    1.0f + sphere.center.x * sphere.center.x +
                    sphere.center.y * sphere.center.y);
            }
            max_radius = std::max(max_radius, sphere.radius);
            g.scene.addSphere(sphere);
        }
    g.scene.build();
    for (int s = 0; s < g.subspaces; ++s)
        for (int i = 0; i < kGatePool; ++i) {
            rt::Ray ray;
            ray.origin.z = 4.0f * static_cast<float>(s);
            if (l2) {
                ray.origin.x = rng.uniform(-0.8f, 0.8f);
                ray.origin.y = rng.uniform(-0.8f, 0.8f);
                const float r = rng.uniform(0.2f, 0.5f);
                ray.tmin = -1e-4f;
                ray.tmax = 1.0f - std::sqrt(1.0f - r * r);
            } else {
                inDisc(ray.origin.x, ray.origin.y);
                ray.tmin = 1.0f - max_radius - 1e-4f;
                ray.tmax = rng.uniform(0.7f, 1.0f);
            }
            g.rays.push_back(ray);
        }
    return g;
}

/**
 * Traces @p g's pool as packets of @p count rays from one subspace
 * (kGatePool / count packets per subspace), through @p device (the
 * dense gate under kCudaFallback; the walk under kRtCore when count
 * > 1) or, with a null device, through the packet walk itself
 * (Scene::traceTile, one lane for count 1). Returns the rays traced.
 */
std::size_t
traceGatePackets(const GateGeometry &g, int count, rt::RtDevice *device,
                 float *tile, rt::TraversalStats &stats)
{
    const int packets = kGatePool / count;
    for (int s = 0; s < g.subspaces; ++s)
        for (int p = 0; p < packets; ++p) {
            const rt::Ray *rays =
                g.rays.data() + static_cast<std::size_t>(s * kGatePool +
                                                         p * count);
            if (device != nullptr)
                device->traceTile(g.scene, rays, count, g.record(s), tile);
            else
                g.scene.traceTile(rays, count, g.record(s), tile, stats);
        }
    return static_cast<std::size_t>(g.subspaces * packets * count);
}

/**
 * The --check-gate pass over @p g at the active level: every lone ray
 * under kRtCore and every packet of 1..kRayLanes rays under
 * kCudaFallback must write the packet walk's tile bit for bit (from a
 * NaN tile) and count exactly count rays, count * E prim tests, its
 * written cells as hits and no node visits or box tests. Adds each
 * differing cell or counter to g_gate_mismatches.
 */
void
checkGate(const GateGeometry &g)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const auto entries = static_cast<std::size_t>(g.entries);
    std::vector<float> want(entries * simd::kRayLanes);
    std::vector<float> got(want.size());
    for (int count = 1; count <= simd::kRayLanes; ++count) {
        const auto cells = entries * static_cast<std::size_t>(count);
        for (rt::ExecMode mode :
             {rt::ExecMode::kRtCore, rt::ExecMode::kCudaFallback}) {
            if (mode == rt::ExecMode::kRtCore && count > 1)
                continue; // the walk itself
            for (int s = 0; s < g.subspaces; ++s)
                for (int first = 0; first + count <= kGatePool;
                     first += count) {
                    const rt::Ray *rays = g.rays.data() +
                        static_cast<std::size_t>(s * kGatePool + first);
                    std::fill(want.begin(), want.end(), nan);
                    std::fill(got.begin(), got.end(), nan);
                    rt::TraversalStats walked;
                    g.scene.traceTile(rays, count, g.record(s), want.data(),
                                      walked);
                    rt::RtDevice device(mode);
                    device.traceTile(g.scene, rays, count, g.record(s),
                                     got.data());
                    std::uint64_t written = 0;
                    for (std::size_t c = 0; c < cells; ++c) {
                        if (std::memcmp(&want[c], &got[c], sizeof(float)))
                            ++g_gate_mismatches;
                        written += std::isnan(got[c]) ? 0 : 1;
                    }
                    const rt::TraversalStats &st = device.totalStats();
                    const auto n = static_cast<std::uint64_t>(count);
                    g_gate_mismatches +=
                        (st.rays != n) + (st.prim_tests != n * entries) +
                        (st.hits != written) + (st.node_visits != 0) +
                        (st.aabb_tests != 0);
                }
        }
    }
}

/**
 * The dense-gate rows at L2 and inner-product geometry (gateGeometry),
 * at the active level, or at the best one when that is scalar:
 *  - sphereGate: lone rays on the gate (RtDevice, kRtCore) vs the same
 *    rays as one-ray packets on the walk (Scene::traceTile), rays/s,
 *    best of three alternating windows per side, with the gate's hits
 *    per sphere test;
 *  - gateOccupancy: packets of 1..kRayLanes rays from one subspace,
 *    the walk (Scene::traceTile) vs the gate (RtDevice, kCudaFallback)
 *    per ray, best of three alternating windows per side, and the
 *    crossover: the smallest occupancy at which the walk is faster.
 *    RtDevice::traceTile's rule does not follow it: packets of two or
 *    more stay on the walk under kRtCore because the walk's counters
 *    stand in for the RT core's work (DESIGN.md, "Walk or gate").
 * With @p check, first runs checkGate at every supported level.
 */
void
benchSphereGate(bool check)
{
    const GateGeometry geometries[] = {gateGeometry(Metric::kL2),
                                       gateGeometry(Metric::kInnerProduct)};
    const simd::Level saved = simd::level();
    if (check)
        for (simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2,
                                  simd::Level::kAvx512})
            if (simd::setLevel(level))
                for (const GateGeometry &g : geometries)
                    checkGate(g);
    simd::setLevel(saved);
    if (saved == simd::Level::kScalar)
        simd::setLevel(simd::bestSupported());
    const char *level = simd::active().name;
    std::vector<float> tile(static_cast<std::size_t>(geometries[0].entries) *
                            simd::kRayLanes);
    for (const GateGeometry &g : geometries) {
        rt::TraversalStats stats;
        rt::RtDevice gate(rt::ExecMode::kRtCore);
        double walk = 0.0, dense = 0.0;
        for (int round = 0; round < 3; ++round) {
            walk = std::max(walk, opsPerSecond(g.rays.size(), [&] {
                traceGatePackets(g, 1, nullptr, tile.data(), stats);
            }));
            dense = std::max(dense, opsPerSecond(g.rays.size(), [&] {
                traceGatePackets(g, 1, &gate, tile.data(), stats);
            }));
        }
        const rt::TraversalStats &gs = gate.totalStats();
        const double hits_per_test = static_cast<double>(gs.hits) /
                                     static_cast<double>(gs.prim_tests);
        std::printf("%-18s %-20s %9.0f %-6s %9.0f %-6s %6.2fx (%s, "
                    "hits/test %.2f)\n",
                    "sphereGate", g.name.c_str(), walk, "ray/s", dense,
                    "ray/s", dense / walk, level, hits_per_test);
        g_gate_rows.push_back({g.name, level, walk, dense, hits_per_test});
    }
    for (const GateGeometry &g : geometries) {
        const std::string geometry = g.name + "," + level;
        int crossover = 0;
        std::printf("%-18s %-20s %5s %12s %12s %7s\n", "gateOccupancy",
                    geometry.c_str(), "count", "walk ray/s", "gate ray/s",
                    "gate/walk");
        for (int count = 1; count <= simd::kRayLanes; ++count) {
            rt::TraversalStats stats;
            rt::RtDevice gate(rt::ExecMode::kCudaFallback);
            const std::size_t rays = traceGatePackets(g, count, nullptr,
                                                tile.data(), stats);
            double walk = 0.0, dense = 0.0;
            for (int round = 0; round < 3; ++round) {
                walk = std::max(walk, opsPerSecond(rays, [&] {
                    traceGatePackets(g, count, nullptr, tile.data(), stats);
                }));
                dense = std::max(dense, opsPerSecond(rays, [&] {
                    traceGatePackets(g, count, &gate, tile.data(), stats);
                }));
            }
            std::printf("%-18s %-20s %5d %12.0f %12.0f %6.2fx\n", "", "",
                        count, walk, dense, dense / walk);
            g_occupancy_rows.push_back({geometry, count, walk, dense});
            if (crossover == 0 && walk > dense)
                crossover = count;
        }
        if (crossover == 0)
            std::printf("%-18s %-20s the gate wins at every occupancy\n",
                        "", "");
        else
            std::printf("%-18s %-20s the walk wins from %d rays per "
                        "packet\n",
                        "", "", crossover);
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
    // 4-bit fast scan beats the dispatched float interleaved scan (CI
    // gate).
    // --check-packet: exit nonzero unless the packet BVH walk beats the
    // same rays traced alone on the dense gate and stores the scalar
    // intersectSphere bits (CI gate).
    // --check-permscan: exit nonzero if any level's interleaved scan or
    // flag count differs from the scalar table's bits, or if an AVX-512
    // host's permute scan is slower than its gather scan at E=128 (CI
    // gate).
    // --check-gate: exit nonzero if the dense gate's tile or counters
    // differ from the walk's tile and the exact gate counts at any
    // level (CI gate).
    std::string json_path;
    bool check_fastscan = false;
    bool check_packet = false;
    bool check_permscan = false;
    bool check_gate = false;
    for (int a = 1; a < argc; ++a) {
        const std::string arg = argv[a];
        if (arg == "--json" && a + 1 < argc)
            json_path = argv[++a];
        else if (arg == "--check-fastscan")
            check_fastscan = true;
        else if (arg == "--check-packet")
            check_packet = true;
        else if (arg == "--check-permscan")
            check_permscan = true;
        else if (arg == "--check-gate")
            check_gate = true;
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
    benchPermuteScan(best);
    benchFlagCount(scalar, best);
    benchFastScan(scalar, best);
    benchCompact(scalar, best);
    std::printf("\n");
    benchTopKAndBvh();
    benchBvhPacket();
    benchSphereGate(check_gate);

    if (!json_path.empty())
        writeSnapshot(json_path);
    int status = 0;
    if (check_packet) {
        // Bit-for-bit on every host: a tile that differs is a bug.
        std::printf("packet tiles vs scalar intersectSphere cells: %zu "
                    "cells differ\n",
                    g_packet_mismatches);
        if (g_packet_mismatches != 0) {
            std::fprintf(stderr,
                         "FAIL: %zu packet tile cells differ from the "
                         "scalar intersectSphere cells\n",
                         g_packet_mismatches);
            status = 1;
        }
    }
    if (check_gate) {
        // Bit-for-bit and exact counters on every host.
        std::printf("dense gate vs walk tiles and exact counters: %zu "
                    "cells or counters differ\n",
                    g_gate_mismatches);
        if (g_gate_mismatches != 0) {
            std::fprintf(stderr,
                         "FAIL: %zu dense-gate cells or counters differ "
                         "from the walk's tile or the exact counts\n",
                         g_gate_mismatches);
            status = 1;
        }
    }
    if (check_permscan) {
        std::printf("interleaved scan and flag count vs scalar: %zu "
                    "outputs differ\n",
                    g_permscan_mismatches);
        if (g_permscan_mismatches != 0) {
            std::fprintf(stderr,
                         "FAIL: %zu interleaved scan or flag count "
                         "outputs differ from the scalar table\n",
                         g_permscan_mismatches);
            status = 1;
        }
        if (simd::bestSupported() == simd::Level::kAvx512) {
            std::printf("permute vs gather interleaved scan at E=128: "
                        "%.2fx\n",
                        g_perm_vs_gather_128);
            if (g_perm_vs_gather_128 < 1.0) {
                std::fprintf(stderr,
                             "FAIL: the permute scan (%.2fx) is slower "
                             "than the gather scan at E=128\n",
                             g_perm_vs_gather_128);
                status = 1;
            }
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
        std::printf("fast-scan vs float interleaved scan: %.2fx\n",
                    g_fastscan_vs_inter);
        if (g_fastscan_vs_inter <= 1.0) {
            std::fprintf(stderr,
                         "FAIL: fast-scan (%.2fx) does not beat the "
                         "float interleaved scan on the same lists\n",
                         g_fastscan_vs_inter);
            status = 1;
        }
    }
    if (check_packet) {
        std::printf("packet walk vs lone rays on the gate: %.2fx\n",
                    g_packet_vs_lone);
        if (g_packet_vs_lone <= 1.0) {
            std::fprintf(stderr,
                         "FAIL: the packet walk (%.2fx) does not beat "
                         "the same rays traced alone on the dense gate\n",
                         g_packet_vs_lone);
            status = 1;
        }
    }
    return status;
}
