#include "core/juno_index.h"

#include <algorithm>
#include <array>

#include "common/logging.h"
#include "engine/probe_loop.h"
#include "registry/index_spec.h"
#include "registry/snapshot.h"

namespace juno {

JunoParams
junoPresetH(JunoParams base)
{
    base.mode = SearchMode::kExactDistance;
    base.threshold_scale = 1.0;
    return base;
}

JunoParams
junoPresetM(JunoParams base)
{
    base.mode = SearchMode::kRewardPenalty;
    base.threshold_scale = 1.0;
    return base;
}

JunoParams
junoPresetL(JunoParams base)
{
    base.mode = SearchMode::kHitCount;
    base.threshold_scale = 0.8;
    return base;
}

JunoIndex::JunoIndex(Metric metric, FloatMatrixView points,
                     const JunoParams &params)
    : metric_(metric), num_points_(points.rows()), dim_(points.cols()),
      params_(params),
      device_(params.use_rt_core ? rt::ExecMode::kRtCore
                                 : rt::ExecMode::kCudaFallback)
{
    JUNO_REQUIRE(dim_ % 2 == 0,
                 "JUNO requires an even dimension (2-D subspaces), got "
                     << dim_);
    JUNO_REQUIRE(params.nprobs > 0, "nprobs must be positive");
    JUNO_REQUIRE(params.threshold_scale > 0.0 &&
                     params.threshold_scale <= 1.0,
                 "threshold_scale must be in (0, 1]");

    const int subspaces = static_cast<int>(dim_ / 2);

    // Offline step 1: coarse clustering + inverted lists (Alg. 1, 2-3).
    InvertedFileIndex::Params ivf_params;
    ivf_params.clusters = params.clusters;
    ivf_params.seed = params.seed;
    ivf_params.max_training_points = params.max_training_points;
    ivf_.build(points, ivf_params);

    // Offline steps 2-3: residuals + per-subspace codebooks (Alg. 1,
    // 4-9). M = 2 is mandatory for the RT mapping.
    FloatMatrix residuals(num_points_, dim_);
    for (idx_t p = 0; p < num_points_; ++p)
        ivf_.residual(points.row(p), ivf_.label(p), residuals.row(p));

    PQParams pq_params;
    pq_params.num_subspaces = subspaces;
    pq_params.entries = params.pq_entries;
    pq_params.seed = params.seed + 1;
    pq_params.max_training_points = params.max_training_points;
    pq_.train(residuals.view(), pq_params);
    codes_ = pq_.encode(residuals.view());

    // Offline step 4: density map + threshold regressors. L2 thresholds
    // live in residual space (rays start at residual projections); IP
    // thresholds live in raw query space (the LUT is probe-invariant).
    const FloatMatrixView policy_domain =
        metric_ == Metric::kL2 ? residuals.view() : points;
    density_.build(policy_domain, subspaces, params.density_grid);
    ThresholdPolicy::Params policy_params = params.policy;
    policy_params.seed = params.seed + 2;
    policy_.train(metric_, policy_domain, subspaces, density_,
                  policy_params);
    policy_.setMode(params.threshold_mode);

    finishConstruction();
}

void
JunoIndex::finishConstruction()
{
    // Subspace-level inverted index (Alg. 1, 12-14) and the traversable
    // scene (Alg. 1, 10-11); both derive deterministically from the
    // trained state, so load() rebuilds them instead of storing them.
    interest_.build(ivf_, codes_, params_.pq_entries);
    if (!interleaved_.built()) {
        // Float-scan plane only: JUNO's dense regime never runs the
        // 4-bit fast scan, so the nibble plane would be dead weight.
        // A snapshot open() restores the plane instead (fast-scan
        // state is persisted, not re-laid-out).
        interleaved_.build(ivf_.lists(), codes_, params_.pq_entries,
                           /*with_packed4=*/false);
    }
    scene_.build(metric_, pq_, policy_, params_.scene);
    device_.setMode(params_.use_rt_core ? rt::ExecMode::kRtCore
                                        : rt::ExecMode::kCudaFallback);
    lut_builder_ = std::make_unique<SelectiveLutBuilder>(scene_, policy_,
                                                         ivf_, device_);
    calc_ = std::make_unique<DistanceCalculator>(ivf_, interest_,
                                                 &interleaved_);
}

namespace {
/** Snapshot meta-section format of this index type. */
constexpr std::uint32_t kFormatVersion = 1;

/** Shared by save and spec(): every build/search knob, in order. */
void
writeParams(Writer &meta, const JunoParams &params)
{
    meta.writePod<std::int32_t>(params.clusters);
    meta.writePod<std::int32_t>(params.pq_entries);
    meta.writePod<std::int64_t>(params.nprobs);
    meta.writePod<std::int32_t>(static_cast<std::int32_t>(params.mode));
    meta.writePod(params.threshold_scale);
    meta.writePod<std::int32_t>(
        static_cast<std::int32_t>(params.threshold_mode));
    meta.writePod(params.miss_penalty);
    meta.writePod<std::uint8_t>(params.use_rt_core ? 1 : 0);
    meta.writePod<std::uint8_t>(params.pipelined ? 1 : 0);
    meta.writePod<std::uint8_t>(1); // retired interleaved knob, always on
    meta.writePod<std::int32_t>(params.density_grid);
    meta.writePod<std::int64_t>(params.policy.train_samples);
    meta.writePod<std::int64_t>(params.policy.ref_samples);
    meta.writePod<std::int64_t>(params.policy.contain_topk);
    meta.writePod<std::int32_t>(params.policy.poly_degree);
    meta.writePod<std::uint64_t>(params.policy.seed);
    meta.writePod(params.scene.gate_radius);
    meta.writePod(params.scene.max_gate_fraction);
    meta.writePod<std::uint64_t>(params.seed);
    meta.writePod<std::int64_t>(params.max_training_points);
}

JunoParams
readParams(Reader &meta)
{
    JunoParams params;
    params.clusters = meta.readPod<std::int32_t>();
    params.pq_entries = meta.readPod<std::int32_t>();
    params.nprobs = meta.readPod<std::int64_t>();
    const auto mode = meta.readPod<std::int32_t>();
    JUNO_REQUIRE(mode >= 0 && mode <= 2, "corrupt search mode tag");
    params.mode = static_cast<SearchMode>(mode);
    params.threshold_scale = meta.readPod<double>();
    const auto tmode = meta.readPod<std::int32_t>();
    JUNO_REQUIRE(tmode >= 0 && tmode <= 2,
                 "corrupt threshold mode tag");
    params.threshold_mode = static_cast<ThresholdMode>(tmode);
    params.miss_penalty = meta.readPod<double>();
    params.use_rt_core = meta.readPod<std::uint8_t>() != 0;
    params.pipelined = meta.readPod<std::uint8_t>() != 0;
    meta.readPod<std::uint8_t>(); // retired interleaved knob
    params.density_grid = meta.readPod<std::int32_t>();
    params.policy.train_samples = meta.readPod<std::int64_t>();
    params.policy.ref_samples = meta.readPod<std::int64_t>();
    params.policy.contain_topk = meta.readPod<std::int64_t>();
    params.policy.poly_degree = meta.readPod<std::int32_t>();
    params.policy.seed = meta.readPod<std::uint64_t>();
    params.scene.gate_radius = meta.readPod<float>();
    params.scene.max_gate_fraction = meta.readPod<float>();
    params.seed = meta.readPod<std::uint64_t>();
    params.max_training_points = meta.readPod<std::int64_t>();
    return params;
}

const char *
modeKey(SearchMode mode)
{
    switch (mode) {
    case SearchMode::kExactDistance:
        return "h";
    case SearchMode::kRewardPenalty:
        return "m";
    case SearchMode::kHitCount:
        return "l";
    }
    return "h";
}

const char *
thresholdModeKey(ThresholdMode mode)
{
    switch (mode) {
    case ThresholdMode::kDynamic:
        return "dyn";
    case ThresholdMode::kStaticSmall:
        return "small";
    case ThresholdMode::kStaticLarge:
        return "large";
    }
    return "dyn";
}

} // namespace

std::string
JunoIndex::spec() const
{
    IndexSpec spec;
    spec.type = "juno";
    spec.setInt("nlist", params_.clusters);
    spec.setInt("entries", params_.pq_entries);
    spec.setInt("nprobe", params_.nprobs);
    spec.set("mode", modeKey(params_.mode));
    spec.setDouble("scale", params_.threshold_scale);
    spec.set("tmode", thresholdModeKey(params_.threshold_mode));
    spec.setDouble("penalty", params_.miss_penalty);
    spec.setBool("rt", params_.use_rt_core);
    spec.setBool("pipelined", params_.pipelined);
    spec.setInt("grid", params_.density_grid);
    spec.setInt("psamples", params_.policy.train_samples);
    spec.setInt("prefs", params_.policy.ref_samples);
    spec.setInt("ptopk", params_.policy.contain_topk);
    spec.setInt("pdeg", params_.policy.poly_degree);
    spec.setDouble("radius", params_.scene.gate_radius);
    spec.setDouble("gatefrac", params_.scene.max_gate_fraction);
    spec.setInt("seed", static_cast<long>(params_.seed));
    spec.setInt("train", params_.max_training_points);
    // policy.seed is intentionally absent: the constructor always
    // derives it from seed (+2), so it cannot diverge.
    return spec.toString();
}

void
JunoIndex::saveSections(SnapshotWriter &writer) const
{
    Writer &meta = writer.section("meta");
    meta.writePod<std::uint32_t>(kFormatVersion);
    writeMetricTag(meta, metric_);
    meta.writePod<std::int64_t>(num_points_);
    meta.writePod<std::int64_t>(dim_);
    writeParams(meta, params_);
    meta.writePod<std::int64_t>(codes_.num_points);
    meta.writePod<std::int32_t>(codes_.num_subspaces);
    meta.writePod<std::uint8_t>(1); // interleaved plane present

    ivf_.save(writer.section("ivf"));
    pq_.save(writer.section("pq"));
    writer.addBlob("codes", codes_.data(),
                   codes_.count() * sizeof(entry_t));
    density_.save(writer.section("density"));
    policy_.save(writer.section("policy"));
    interleaved_.save(writer, "ileav.");
}

std::unique_ptr<JunoIndex>
JunoIndex::open(SnapshotReader &reader)
{
    const std::string what = reader.path() + " [juno]";
    auto meta = reader.stream("meta");
    checkFormatVersion(meta, kFormatVersion, what);
    std::unique_ptr<JunoIndex> index(new JunoIndex());
    index->metric_ = readMetricTag(meta);
    index->num_points_ = meta.readPod<std::int64_t>();
    index->dim_ = meta.readPod<std::int64_t>();
    JUNO_REQUIRE(index->num_points_ > 0 && index->dim_ > 0 &&
                     index->dim_ % 2 == 0,
                 what << ": corrupt index header");
    index->params_ = readParams(meta);
    index->codes_.num_points = meta.readPod<std::int64_t>();
    index->codes_.num_subspaces = meta.readPod<std::int32_t>();
    const bool has_interleaved = meta.readPod<std::uint8_t>() != 0;
    JUNO_REQUIRE(index->codes_.num_points == index->num_points_ &&
                     index->codes_.num_subspaces > 0 &&
                     index->codes_.num_subspaces ==
                         static_cast<int>(index->dim_ / 2),
                 what << ": corrupt PQ codes shape");
    // Overflow guard: the code-plane product must not wrap before the
    // blob-size comparison below.
    JUNO_REQUIRE(static_cast<std::uint64_t>(index->codes_.num_points) <=
                     kMaxSerializedPayloadBytes / sizeof(entry_t) /
                         static_cast<std::uint64_t>(
                             index->codes_.num_subspaces),
                 what << ": implausible code plane (corrupt file)");

    auto ivf_stream = reader.stream("ivf");
    index->ivf_.load(ivf_stream);
    auto pq_stream = reader.stream("pq");
    index->pq_.load(pq_stream);
    const auto codes_blob = reader.blob("codes");
    if (codes_blob.bytes != index->codes_.count() * sizeof(entry_t))
        fatal(what + ": PQ code payload size mismatch (corrupt file)");
    index->codes_.adoptView(
        reinterpret_cast<const entry_t *>(codes_blob.data),
        codes_blob.keepalive);
    auto density_stream = reader.stream("density");
    index->density_.load(density_stream);
    auto policy_stream = reader.stream("policy");
    index->policy_.load(policy_stream, index->density_);
    index->policy_.setMode(index->params_.threshold_mode);
    if (has_interleaved) {
        index->interleaved_.load(reader, "ileav.");
        JUNO_REQUIRE(index->interleaved_.numLists() ==
                             index->ivf_.numClusters() &&
                         index->interleaved_.subspaces() ==
                             index->codes_.num_subspaces,
                     what << ": interleaved layout shape mismatch");
    }

    index->finishConstruction();
    return index;
}

std::unique_ptr<JunoIndex>
JunoIndex::load(const std::string &path)
{
    SnapshotReader reader(path);
    const IndexSpec spec = IndexSpec::parse(reader.spec());
    JUNO_REQUIRE(spec.type == "juno",
                 path << " holds a '" << spec.type
                      << "' index, not a JUNO index (use openIndex)");
    return open(reader);
}

std::string
JunoIndex::name() const
{
    std::string n = searchModeName(params_.mode);
    n += "(C=" + std::to_string(ivf_.numClusters());
    n += ",E=" + std::to_string(pq_.entries());
    n += ",scale=" + std::to_string(params_.threshold_scale).substr(0, 4);
    if (!params_.use_rt_core)
        n += ",noRT";
    n += ")";
    return n;
}

void
JunoIndex::setNprobs(idx_t nprobs)
{
    JUNO_REQUIRE(nprobs > 0, "nprobs must be positive");
    params_.nprobs = nprobs;
}

void
JunoIndex::setThresholdScale(double scale)
{
    JUNO_REQUIRE(scale > 0.0 && scale <= 1.0,
                 "threshold_scale must be in (0, 1]");
    params_.threshold_scale = scale;
}

void
JunoIndex::setThresholdMode(ThresholdMode mode)
{
    params_.threshold_mode = mode;
    policy_.setMode(mode);
}

void
JunoIndex::setUseRtCore(bool use_rt)
{
    params_.use_rt_core = use_rt;
    device_.setMode(use_rt ? rt::ExecMode::kRtCore
                           : rt::ExecMode::kCudaFallback);
}

void
JunoIndex::setMissPenalty(double penalty)
{
    JUNO_REQUIRE(penalty >= 0.0, "miss_penalty must be non-negative");
    params_.miss_penalty = penalty;
}

SelectiveLutParams
JunoIndex::lutParams() const
{
    SelectiveLutParams lp;
    lp.threshold_scale = params_.threshold_scale;
    lp.miss_penalty = params_.miss_penalty;
    lp.inner_gate = params_.mode == SearchMode::kRewardPenalty;
    return lp;
}

std::vector<Neighbor>
JunoIndex::probe(const float *query) const
{
    return ivf_.probe(metric_, query, params_.nprobs);
}

SelectiveLut
JunoIndex::buildLut(const float *query,
                    const std::vector<Neighbor> &probes) const
{
    return lut_builder_->build(query, probes, lutParams());
}

/**
 * Per-worker search state: a private RT device (so traversal counters
 * accumulate without contention), the RT-LUT builder and distance
 * calculator bound to it, and the reusable LUT buffers. Lives in a
 * SearchContext, so it persists across chunks and batches.
 */
struct JunoIndex::Worker {
    explicit Worker(JunoIndex &owner)
        : device(owner.device_.mode()),
          builder(owner.scene_, owner.policy_, owner.ivf_, device),
          calc(owner.ivf_, owner.interest_, &owner.interleaved_)
    {
    }

    /** One query's plan and its stage-B output. */
    struct Slot {
        ProbePlan plan;
        SelectiveLut lut;
    };

    rt::RtDevice device;
    SelectiveLutBuilder builder;
    DistanceCalculator calc;
    /** One list's scored points (scan side only). */
    std::vector<Neighbor> candidates;
    /**
     * Pipelined, query i uses slot i % size(): at most kPipelineDepth
     * + 2 queries are live. The unpipelined path uses slot 0.
     */
    std::array<Slot, kPipelineDepth + 2> ring;
};

void
JunoIndex::searchChunk(const SearchChunk &chunk, SearchContext &ctx)
{
    auto &w = ctx.scratch<Worker>(
        [this] { return std::make_unique<Worker>(*this); });
    // Search-time knobs may have flipped since the worker was created.
    w.device.setMode(device_.mode());
    w.calc.setDenseThreshold(calc_->denseThreshold());
    const idx_t k = std::min(chunk.k, num_points_);
    const Metric ranking = rankingMetric(metric_, params_.mode);
    ProbeLoop loop(ctx);

    // The three per-query steps; only the thread that runs each
    // differs between the unpipelined and pipelined paths.
    const auto plan = [&](idx_t qi, Worker::Slot &sl) {
        loop.plan(qi, params_.nprobs, sl.plan,
                  [&](idx_t n, std::vector<Neighbor> &probes) {
                      probes =
                          ivf_.probe(metric_, chunk.queries.row(qi), n);
                  });
    };
    const auto rtLut = [&](idx_t qi, Worker::Slot &sl) {
        w.builder.buildInto(chunk.queries.row(qi), sl.plan.probes,
                            lutParams(), sl.lut);
    };
    const auto scan = [&](idx_t qi, const Worker::Slot &sl) {
        TopK top(k, ranking);
        loop.scan(qi, sl.plan, [&](const PlannedProbe &pp) {
            w.candidates.clear();
            w.calc.accumulateList(params_.mode, pp.list, pp.rank, sl.lut,
                                  w.candidates);
            for (const auto &cand : w.candidates)
                top.push(cand.id, cand.score);
        });
        (*chunk.results)[static_cast<std::size_t>(qi)] = top.take();
    };

    if (!params_.pipelined) {
        Worker::Slot &sl = w.ring[0];
        for (idx_t qi = chunk.begin; qi < chunk.end; ++qi) {
            {
                StageScope t(ctx, Stage::kFilter);
                plan(qi, sl);
            }
            {
                StageScope t(ctx, Stage::kRtLut);
                rtLut(qi, sl);
            }
            StageScope t(ctx, Stage::kScan);
            scan(qi, sl);
        }
    } else {
        // Pipelined mode: stage 1 = plan + RT LUT (the paper's
        // RT-core side), stage 2 = the list scans (the Tensor-core
        // side), overlapped across the queries of this chunk. Stages
        // touch disjoint ring slots. Either may mark a query degraded,
        // but never the same one: a plan-time cut leaves one probe, so
        // its scan has no between-list cut.
        const auto slot = [&w](idx_t i) -> Worker::Slot & {
            return w.ring[static_cast<std::size_t>(i) % w.ring.size()];
        };
        auto stage1 = [&](idx_t i) {
            plan(chunk.begin + i, slot(i));
            rtLut(chunk.begin + i, slot(i));
        };
        auto stage2 = [&](idx_t i) { scan(chunk.begin + i, slot(i)); };
        const auto pipe = runTwoStagePipeline(
            chunk.end - chunk.begin, stage1, stage2, true);
        ctx.timers().add(Stage::kRtLut, pipe.stage1_seconds);
        ctx.timers().add(Stage::kScan, pipe.stage2_seconds);
        ctx.timers().add(Stage::kPipelineWall, pipe.wall_seconds);
    }

    MutexLock lock(stats_mutex_);
    device_.mergeStats(w.device.totalStats());
    w.device.resetStats();
}

} // namespace juno
