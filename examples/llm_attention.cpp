/**
 * @file
 * LLM-serving scenario (the paper's Sec. 6.5 motivation): use JUNO's
 * MIPS search to retrieve the most significant keys of a long-context
 * attention head, computing attention only over the retrieved subset.
 *
 *   ./build/examples/llm_attention
 */
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/distance.h"
#include "common/rng.h"
#include "core/juno_index.h"

using namespace juno;

int
main()
{
    // A long context window: one key vector per past token.
    const idx_t context_len = 4096;
    const idx_t head_dim = 128;
    Rng rng(2026);
    FloatMatrix keys(context_len, head_dim);
    FloatMatrix values(context_len, head_dim);
    for (idx_t i = 0; i < context_len; ++i)
        for (idx_t j = 0; j < head_dim; ++j) {
            keys.at(i, j) = static_cast<float>(rng.gaussian(0.0, 1.0));
            values.at(i, j) = static_cast<float>(rng.gaussian(0.0, 1.0));
        }
    // Give ~5% of tokens strong norms so attention is concentrated,
    // matching the head statistics the paper's Fig. 15 relies on.
    for (idx_t i = 0; i < context_len; ++i)
        if (rng.uniform() < 0.05)
            for (idx_t j = 0; j < head_dim; ++j)
                keys.at(i, j) *= 3.0f;

    // Index the keys under inner product — attention logits ARE inner
    // products, so MIPS retrieval selects the heaviest keys.
    JunoParams params = junoPresetH();
    params.clusters = 64;
    params.pq_entries = 64;
    params.nprobs = 24;
    JunoIndex index(Metric::kInnerProduct, keys.view(), params);
    std::printf("indexed %lld keys of a %lld-dim attention head\n",
                static_cast<long long>(context_len),
                static_cast<long long>(head_dim));

    // Serve a few decode steps: each new query attends to the top 8%
    // of keys instead of the full context.
    const idx_t kept = context_len * 8 / 100;
    const double inv_sqrt_d =
        1.0 / std::sqrt(static_cast<double>(head_dim));
    double total_mass = 0.0;
    const int steps = 16;
    for (int step = 0; step < steps; ++step) {
        std::vector<float> q(static_cast<std::size_t>(head_dim));
        for (auto &v : q)
            v = static_cast<float>(rng.gaussian(0.0, 1.0));

        // Exact softmax normaliser for scoring.
        std::vector<double> w(static_cast<std::size_t>(context_len));
        double max_logit = -1e300;
        for (idx_t i = 0; i < context_len; ++i) {
            w[static_cast<std::size_t>(i)] =
                innerProduct(q.data(), keys.row(i), head_dim) *
                inv_sqrt_d;
            max_logit =
                std::max(max_logit, w[static_cast<std::size_t>(i)]);
        }
        double z = 0.0;
        for (auto &lw : w) {
            lw = std::exp(lw - max_logit);
            z += lw;
        }

        // ANN-retrieved sparse attention.
        const auto top = index.search(SearchRequest(
            FloatMatrixView(q.data(), 1, head_dim), kept))[0];
        double mass = 0.0;
        for (const auto &nb : top)
            mass += w[static_cast<std::size_t>(nb.id)] / z;
        total_mass += mass;
        if (step < 4)
            std::printf("decode step %d: attended %lld/%lld keys, "
                        "softmax mass retained %.3f\n",
                        step, static_cast<long long>(top.size()),
                        static_cast<long long>(context_len), mass);
    }
    std::printf("\nmean softmax mass retained over %d steps at 8%% keys: "
                "%.3f\n",
                steps, total_mass / steps);
    std::printf("(the paper's Fig. 15: <20%% of attention suffices for "
                "Llama-7B quality)\n");
    return 0;
}
