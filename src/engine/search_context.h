/**
 * @file
 * Per-worker search scratch: every worker thread of a batched search
 * owns one SearchContext and reuses its buffers across queries and
 * across batches, so the hot loops never allocate per query.
 *
 * Thread-safety contract: a context is only ever touched by the worker
 * it is assigned to; its StageTimers accumulate privately and are
 * merged into the index-wide ledger on the calling thread after the
 * batch completes (merge-on-completion, no locks on the hot path).
 */
#ifndef JUNO_ENGINE_SEARCH_CONTEXT_H
#define JUNO_ENGINE_SEARCH_CONTEXT_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <typeindex>
#include <unordered_map>
#include <vector>

#include "common/matrix.h"
#include "common/timer.h"
#include "common/topk.h"
#include "common/types.h"
#include "obs/trace.h"

namespace juno {

/**
 * Epoch-stamped visited set over ids [0, n): clear() is O(1) amortised
 * (bump the epoch) instead of O(n), which is what makes it a per-query
 * reusable buffer for graph traversals (HNSW beam search).
 */
class VisitedSet {
  public:
    /** Prepares the set for ids in [0, n) and clears it. */
    void
    reset(idx_t n)
    {
        const auto sz = static_cast<std::size_t>(n);
        if (marks_.size() < sz)
            marks_.assign(sz, 0);
        clear();
    }

    /** Forgets all visited ids (O(1) unless the epoch wraps). */
    void
    clear()
    {
        if (++epoch_ == 0) { // wrapped: marks are stale, scrub them
            std::fill(marks_.begin(), marks_.end(), 0);
            epoch_ = 1;
        }
    }

    /** Marks @p id visited; true when it was not visited before. */
    bool
    insert(idx_t id)
    {
        auto &m = marks_[static_cast<std::size_t>(id)];
        if (m == epoch_)
            return false;
        m = epoch_;
        return true;
    }

    bool
    contains(idx_t id) const
    {
        return marks_[static_cast<std::size_t>(id)] == epoch_;
    }

  private:
    std::vector<std::uint32_t> marks_;
    std::uint32_t epoch_ = 0;
};

/** Reusable per-worker state for one index's search hot loop. */
class SearchContext {
  public:
    SearchContext() = default;
    SearchContext(const SearchContext &) = delete;
    SearchContext &operator=(const SearchContext &) = delete;

    /** Private timing ledger, merged into the index after the batch. */
    StageTimers &timers() { return timers_; }

    /**
     * Trace of the batch this worker is currently executing, stamped
     * by the engine around each chunk (null when the batch is not
     * sampled). Stage instrumentation reads it through StageScope.
     */
    Trace *trace = nullptr;

    // -- Overload-resilience state, stamped by the engine around each
    // chunk exactly like `trace` (see SearchOptions for semantics) --

    /** Cooperative deadline; time_point::max() = none. */
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    /** Probe-budget scale in (0, 1]; 1.0 = full budget. */
    double nprobe_scale = 1.0;
    /** Fast-scan prefilter tightening in [0, 1); 0 = exact rule. */
    double scan_tighten = 0.0;
    /** Per-query degraded flags of the whole batch (null = untracked).
     * Each slot has one writer (chunks never overlap), so marking
     * needs no synchronisation. */
    std::vector<std::uint8_t> *degraded = nullptr;

    bool
    hasDeadline() const
    {
        return deadline !=
               std::chrono::steady_clock::time_point::max();
    }

    /** One clock read — callers short-circuit via hasDeadline() so an
     * undeadlined scan never pays it. */
    bool
    pastDeadline() const
    {
        return hasDeadline() &&
               std::chrono::steady_clock::now() >= deadline;
    }

    /** Effective probe budget under the current scale; scale == 1.0
     * returns @p nprobs unchanged (the bitwise-parity branch). */
    idx_t
    scaledNprobes(idx_t nprobs) const
    {
        if (nprobe_scale == 1.0)
            return nprobs;
        const auto scaled = static_cast<idx_t>(
            std::lround(static_cast<double>(nprobs) * nprobe_scale));
        return std::max<idx_t>(1, scaled);
    }

    /** Flags query @p qi as degraded (no-op when untracked). */
    void
    markDegraded(idx_t qi) const
    {
        if (degraded != nullptr)
            (*degraded)[static_cast<std::size_t>(qi)] = 1;
    }

    // -- Common scratch buffers shared by several index types --

    /** Residual / projection buffer (D floats). */
    std::vector<float> residual;
    /** Dense per-candidate score buffer for the batched SIMD kernels. */
    std::vector<float> scores;
    /** Dense LUT scratch (subspaces x entries), reused across probes. */
    FloatMatrix lut;
    /** Graph-traversal visited set (HNSW). */
    VisitedSet visited;

    /**
     * Index-specific scratch: created on first use by @p make (which
     * must return std::unique_ptr<T>) and kept for the lifetime of the
     * context, so expensive per-worker state (RT-LUT builders, sparse
     * LUTs, accumulators) persists across batches.
     */
    template <typename T, typename MakeFn>
    T &
    scratch(MakeFn &&make)
    {
        auto &slot = extras_[std::type_index(typeid(T))];
        if (!slot) {
            auto holder = std::make_unique<Holder<T>>();
            holder->value = make();
            slot = std::move(holder);
        }
        return *static_cast<Holder<T> &>(*slot).value;
    }

  private:
    struct HolderBase {
        virtual ~HolderBase() = default;
    };
    template <typename T> struct Holder : HolderBase {
        std::unique_ptr<T> value;
    };

    StageTimers timers_;
    std::unordered_map<std::type_index, std::unique_ptr<HolderBase>>
        extras_;
};

/**
 * Stage instrumentation in one RAII handle: always accumulates into
 * the context's StageTimers; additionally emits a trace span when the
 * batch is sampled. With no trace attached the extra cost over a bare
 * ScopedStageTimer is one pointer test.
 */
class StageScope {
  public:
    StageScope(SearchContext &ctx, Stage stage)
        : span_(ctx.trace, stageName(stage)), timer_(ctx.timers(), stage)
    {
    }

    StageScope(const StageScope &) = delete;
    StageScope &operator=(const StageScope &) = delete;

  private:
    TraceSpan span_;
    ScopedStageTimer timer_;
};

} // namespace juno

#endif // JUNO_ENGINE_SEARCH_CONTEXT_H
