#include "core/juno_index.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "engine/probe_loop.h"
#include "registry/index_spec.h"
#include "registry/snapshot.h"

namespace juno {

namespace {
/** Snapshot meta-section format of this index type. */
constexpr std::uint32_t kFormatVersion = 2;

/** Spec spellings of the enum knobs, for spec() and fromSpec(). */
template <typename E> using Spellings = std::pair<E, const char *>[3];
constexpr Spellings<SearchMode> kModeKeys = {
    {SearchMode::kExactDistance, "h"},
    {SearchMode::kRewardPenalty, "m"},
    {SearchMode::kHitCount, "l"}};
constexpr Spellings<ThresholdMode> kThresholdModeKeys = {
    {ThresholdMode::kDynamic, "dyn"},
    {ThresholdMode::kStaticSmall, "small"},
    {ThresholdMode::kStaticLarge, "large"}};

template <typename E>
const char *
spelling(const Spellings<E> &keys, E value)
{
    for (const auto &kv : keys)
        if (kv.first == value)
            return kv.second;
    return keys[0].second;
}

template <typename E>
E
parseSpelling(const Spellings<E> &keys, const IndexSpec &spec,
              const char *key, E fallback)
{
    if (!spec.has(key))
        return fallback;
    const std::string value = spec.get(key);
    for (const auto &kv : keys)
        if (value == kv.second)
            return kv.first;
    fatal("unknown JUNO " + std::string(key) + " '" + value +
          "' (use " + keys[0].second + ", " + keys[1].second + " or " +
          keys[2].second + ")");
}

/** Range checks shared by the constructor and fromSpec(). */
void
checkParams(const JunoParams &params)
{
    JUNO_REQUIRE(params.nprobs > 0, "nprobs must be positive");
    JUNO_REQUIRE(params.threshold_scale > 0.0 &&
                     params.threshold_scale <= 1.0,
                 "threshold_scale must be in (0, 1]");
    JUNO_REQUIRE(params.miss_penalty >= 0.0,
                 "miss_penalty must be non-negative");
}

} // namespace

SelectiveLutParams
JunoParams::lutParams() const
{
    SelectiveLutParams lp;
    lp.threshold_scale = threshold_scale;
    lp.miss_penalty = miss_penalty;
    lp.inner_gate = mode == SearchMode::kRewardPenalty;
    return lp;
}

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
    checkParams(params);

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

    // Float-scan plane only: JUNO's scan never runs the 4-bit fast
    // scan, so the nibble plane would be dead weight. open()
    // restores the plane instead of re-laying it out.
    interleaved_.build(ivf_.lists(), codes_, params.pq_entries,
                       /*with_packed4=*/false);

    finishConstruction();
}

void
JunoIndex::finishConstruction()
{
    // The traversable scene (Alg. 1, 10-11) derives deterministically
    // from the trained state, so load() rebuilds it instead of storing
    // it.
    scene_.build(metric_, pq_, policy_, params_.scene);
    device_.setMode(params_.use_rt_core ? rt::ExecMode::kRtCore
                                        : rt::ExecMode::kCudaFallback);
    calc_ = std::make_unique<DistanceCalculator>(ivf_, interleaved_);
}

JunoParams
JunoIndex::fromSpec(const IndexSpec &spec)
{
    spec.requireKnown({"nlist", "entries", "nprobe", "mode", "scale",
                       "tmode", "penalty", "rt", "pipelined", "grid",
                       "psamples", "prefs", "ptopk", "pdeg", "radius",
                       "gatefrac", "seed", "train"});
    JunoParams p;
    p.clusters = static_cast<int>(spec.getInt("nlist", p.clusters));
    p.pq_entries = static_cast<int>(spec.getInt("entries", p.pq_entries));
    p.nprobs = spec.getInt("nprobe", p.nprobs);
    p.mode = parseSpelling(kModeKeys, spec, "mode", p.mode);
    p.threshold_scale = spec.getDouble("scale", p.threshold_scale);
    p.threshold_mode =
        parseSpelling(kThresholdModeKeys, spec, "tmode", p.threshold_mode);
    p.miss_penalty = spec.getDouble("penalty", p.miss_penalty);
    p.use_rt_core = spec.getBool("rt", p.use_rt_core);
    p.pipelined = spec.getBool("pipelined", p.pipelined);
    p.density_grid = static_cast<int>(spec.getInt("grid", p.density_grid));
    p.policy.train_samples = spec.getInt("psamples", p.policy.train_samples);
    p.policy.ref_samples = spec.getInt("prefs", p.policy.ref_samples);
    p.policy.contain_topk = spec.getInt("ptopk", p.policy.contain_topk);
    p.policy.poly_degree =
        static_cast<int>(spec.getInt("pdeg", p.policy.poly_degree));
    p.scene.gate_radius = static_cast<float>(
        spec.getDouble("radius", p.scene.gate_radius));
    p.scene.max_gate_fraction = static_cast<float>(
        spec.getDouble("gatefrac", p.scene.max_gate_fraction));
    p.seed = static_cast<std::uint64_t>(
        spec.getInt("seed", static_cast<long>(p.seed)));
    p.max_training_points = spec.getInt("train", p.max_training_points);
    checkParams(p);
    return p;
}

std::string
JunoIndex::spec() const
{
    IndexSpec spec;
    spec.type = "juno";
    spec.setInt("nlist", params_.clusters);
    spec.setInt("entries", params_.pq_entries);
    spec.setInt("nprobe", params_.nprobs);
    spec.set("mode", spelling(kModeKeys, params_.mode));
    spec.setDouble("scale", params_.threshold_scale);
    spec.set("tmode", spelling(kThresholdModeKeys, params_.threshold_mode));
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
    meta.writePod<std::int64_t>(codes_.num_points);
    meta.writePod<std::int32_t>(codes_.num_subspaces);

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
    index->params_ = fromSpec(IndexSpec::parse(reader.spec()));
    index->metric_ = readMetricTag(meta);
    index->num_points_ = meta.readPod<std::int64_t>();
    index->dim_ = meta.readPod<std::int64_t>();
    JUNO_REQUIRE(index->num_points_ > 0 && index->dim_ > 0 &&
                     index->dim_ % 2 == 0,
                 what << ": corrupt index header");
    index->codes_.num_points = meta.readPod<std::int64_t>();
    index->codes_.num_subspaces = meta.readPod<std::int32_t>();
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
    JUNO_REQUIRE(index->ivf_.numClusters() == index->params_.clusters &&
                     index->pq_.entries() == index->params_.pq_entries,
                 what << ": spec nlist/entries disagree with the trained "
                         "IVF/PQ");
    const auto codes_blob = reader.blob("codes");
    if (codes_blob.bytes != index->codes_.count() * sizeof(entry_t))
        fatal(what + ": PQ code payload size mismatch (corrupt file)");
    index->codes_.adoptView(
        reinterpret_cast<const entry_t *>(codes_blob.data),
        codes_blob.keepalive);
    auto density_stream = reader.stream("density");
    index->density_.load(density_stream);
    // Every point falls in one cell per subspace, so no count exceeds
    // the point count; the threshold policy tabulates up to the largest.
    for (int s = 0; s < index->density_.numSubspaces(); ++s)
        JUNO_REQUIRE(index->density_.subspace(s).maxCount() <=
                         index->num_points_,
                     what << ": density count exceeds the point count "
                             "(corrupt file)");
    auto policy_stream = reader.stream("policy");
    index->policy_.load(policy_stream, index->density_);
    index->policy_.setMode(index->params_.threshold_mode);
    index->interleaved_.load(reader, "ileav.");
    JUNO_REQUIRE(index->interleaved_.numLists() ==
                         index->ivf_.numClusters() &&
                     index->interleaved_.subspaces() ==
                         index->codes_.num_subspaces,
                 what << ": interleaved layout shape mismatch");
    // The scan indexes LUT rows of E cells by these codes.
    const InterleavedLists &plane = index->interleaved_;
    for (cluster_t c = 0; c < plane.numLists(); ++c) {
        const entry_t *first = plane.listBlocks(c);
        const entry_t *last =
            first + plane.listBlocksBytes(c) / sizeof(entry_t);
        JUNO_REQUIRE(std::all_of(first, last,
                                 [&](entry_t e) {
                                     return e < index->params_.pq_entries;
                                 }),
                     what << ": code out of range (corrupt file)");
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

std::vector<Neighbor>
JunoIndex::probe(const float *query) const
{
    return ivf_.probe(metric_, query, params_.nprobs);
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
          calc(owner.ivf_, owner.interleaved_)
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
     * Groups of G slots. Pipelined, group i uses slots [(i % (
     * kPipelineDepth + 2)) * G, +G): at most kPipelineDepth + 2 groups
     * are live. The unpipelined path uses group 0.
     */
    std::vector<Slot> ring;
    /** The group being traced (stage-1 side only). */
    std::vector<LutRequest> requests;
};

void
JunoIndex::searchChunk(const SearchChunk &chunk, SearchContext &ctx)
{
    auto &w = ctx.scratch<Worker>(
        [this] { return std::make_unique<Worker>(*this); });
    // Search-time knobs may have flipped since the worker was created.
    w.device.setMode(device_.mode());
    const idx_t k = std::min(chunk.k, num_points_);
    const Metric ranking = rankingMetric(metric_, params_.mode);
    ProbeLoop loop(ctx);

    // Queries are planned, traced and scanned in groups of G: one RT
    // launch packs the group's rays (SelectiveLutBuilder::groupSize).
    // Budgets and deadline cuts stay per query.
    const auto group_size = static_cast<idx_t>(w.builder.groupSize(
        static_cast<std::size_t>(ctx.scaledNprobes(params_.nprobs))));
    const idx_t queries = chunk.end - chunk.begin;
    const idx_t groups = (queries + group_size - 1) / group_size;
    const std::size_t ring_groups = params_.pipelined ? kPipelineDepth + 2
                                                      : 1;
    if (w.ring.size() < ring_groups * static_cast<std::size_t>(group_size))
        w.ring.resize(ring_groups * static_cast<std::size_t>(group_size));
    const auto firstSlot = [&](idx_t gi) {
        return static_cast<std::size_t>(gi) % ring_groups *
               static_cast<std::size_t>(group_size);
    };
    const auto groupBegin = [&](idx_t gi) {
        return chunk.begin + gi * group_size;
    };
    const auto groupEnd = [&](idx_t gi) {
        return std::min(chunk.end, groupBegin(gi) + group_size);
    };

    // The three per-group steps; only the thread that runs each
    // differs between the unpipelined and pipelined paths.
    const auto plan = [&](idx_t gi) {
        Worker::Slot *sl = &w.ring[firstSlot(gi)];
        for (idx_t qi = groupBegin(gi); qi < groupEnd(gi); ++qi, ++sl)
            loop.plan(qi, params_.nprobs, sl->plan,
                      [&](idx_t n, std::vector<Neighbor> &probes) {
                          probes =
                              ivf_.probe(metric_, chunk.queries.row(qi), n);
                      });
    };
    const auto rtLut = [&](idx_t gi) {
        Worker::Slot *sl = &w.ring[firstSlot(gi)];
        w.requests.clear();
        for (idx_t qi = groupBegin(gi); qi < groupEnd(gi); ++qi, ++sl)
            w.requests.push_back(
                {chunk.queries.row(qi), &sl->plan.probes, &sl->lut});
        w.builder.buildGroup(w.requests.data(), w.requests.size(),
                             params_.lutParams());
    };
    const auto scan = [&](idx_t gi) {
        const Worker::Slot *sl = &w.ring[firstSlot(gi)];
        for (idx_t qi = groupBegin(gi); qi < groupEnd(gi); ++qi, ++sl) {
            TopK top(k, ranking);
            loop.scan(qi, sl->plan, [&](const PlannedProbe &pp) {
                w.candidates.clear();
                w.calc.accumulateList(params_.mode, pp.list, pp.rank,
                                      sl->lut, w.candidates);
                for (const auto &cand : w.candidates)
                    top.push(cand.id, cand.score);
            });
            (*chunk.results)[static_cast<std::size_t>(qi)] = top.take();
        }
    };

    if (!params_.pipelined) {
        for (idx_t gi = 0; gi < groups; ++gi) {
            {
                StageScope t(ctx, Stage::kFilter);
                plan(gi);
            }
            {
                StageScope t(ctx, Stage::kRtLut);
                rtLut(gi);
            }
            StageScope t(ctx, Stage::kScan);
            scan(gi);
        }
    } else {
        // Pipelined mode: stage 1 = plan + RT LUT of a group (the
        // paper's RT-core side), stage 2 = its list scans (the
        // Tensor-core side), overlapped across the groups of this
        // chunk. Stages touch disjoint ring slots. Either may mark a
        // query degraded, but never the same one: a plan-time cut
        // leaves one probe, so its scan has no between-list cut.
        auto stage1 = [&](idx_t gi) {
            plan(gi);
            rtLut(gi);
        };
        const auto pipe = runTwoStagePipeline(groups, stage1, scan);
        ctx.timers().add(Stage::kRtLut, pipe.stage1_seconds);
        ctx.timers().add(Stage::kScan, pipe.stage2_seconds);
        ctx.timers().add(Stage::kPipelineWall, pipe.wall_seconds);
    }

    MutexLock lock(stats_mutex_);
    device_.mergeStats(w.device.totalStats());
    w.device.resetStats();
}

} // namespace juno
