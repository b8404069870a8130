/**
 * @file
 * Reproduces paper Fig. 15 in spirit: the claim that transformer
 * attention is an ideal MIPS-ANN client because keeping only the most
 * significant attention entries preserves model quality.
 *
 * The paper measures Llama-7B perplexity vs. the fraction of attention
 * retained. Without model weights we build the synthetic equivalent
 * (DESIGN.md substitution table): low-rank-structured query/key
 * vectors, softmax attention, and two quality proxies measured as the
 * kept fraction shrinks — retained softmax mass and attention-output
 * relative error. The keys kept are retrieved with a real JUNO MIPS
 * index, exercising the exact code path an LLM serving stack would.
 */
#include <algorithm>
#include <cmath>
#include <functional>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/distance.h"
#include "common/rng.h"
#include "core/juno_index.h"
#include "harness/reporter.h"

using namespace juno;

namespace {

/** Synthetic attention workload with low-rank Q/K structure. */
struct AttentionData {
    FloatMatrix keys;    // seq_len x d
    FloatMatrix queries; // num_queries x d
    FloatMatrix values;  // seq_len x d
};

AttentionData
makeAttention(idx_t seq_len, idx_t d, idx_t num_queries,
              std::uint64_t seed)
{
    Rng rng(seed);
    // Low-rank structure: keys/queries are combinations of r basis
    // directions plus noise, mimicking attention-head geometry where
    // few keys dominate each query's scores.
    const idx_t r = 8;
    FloatMatrix basis(r, d);
    for (idx_t i = 0; i < r; ++i)
        for (idx_t j = 0; j < d; ++j)
            basis.at(i, j) = static_cast<float>(rng.gaussian(0.0, 1.0));

    auto sample = [&](FloatMatrix &m, double noise) {
        for (idx_t i = 0; i < m.rows(); ++i) {
            // One dominant basis direction per vector (sparse mixing).
            const idx_t dom = static_cast<idx_t>(rng.below(r));
            const double w = rng.uniform() * 2.0 + 1.0;
            for (idx_t j = 0; j < d; ++j)
                m.at(i, j) = static_cast<float>(
                    w * basis.at(dom, j) + rng.gaussian(0.0, noise));
        }
    };
    AttentionData data;
    data.keys = FloatMatrix(seq_len, d);
    data.queries = FloatMatrix(num_queries, d);
    data.values = FloatMatrix(seq_len, d);
    sample(data.keys, 0.4);
    sample(data.queries, 0.4);
    for (idx_t i = 0; i < seq_len; ++i)
        for (idx_t j = 0; j < d; ++j)
            data.values.at(i, j) =
                static_cast<float>(rng.gaussian(0.0, 1.0));
    return data;
}

} // namespace

int
main()
{
    printBanner("Fig. 15 (proxy): attention quality vs ANN top-k "
                "fraction");
    const idx_t seq_len = bench::largeScale() ? 8192 : 2048;
    const idx_t d = 128;
    const idx_t num_queries = 32;
    const auto data = makeAttention(seq_len, d, num_queries, 777);

    // MIPS index over the keys (attention scores are inner products).
    JunoParams jp = junoPresetH();
    jp.clusters = 64;
    jp.pq_entries = 64;
    // Probe every cluster: the kept-fraction knob, not the coarse
    // filter, must control coverage (keep = 1.0 has to be lossless).
    jp.nprobs = 64;
    jp.policy.ref_samples = 2000;
    jp.density_grid = 50;
    JunoIndex index(Metric::kInnerProduct, data.keys.view(), jp);

    const double inv_sqrt_d = 1.0 / std::sqrt(static_cast<double>(d));
    // Two mass columns: the exhaustive top-k mass isolates the
    // attention head's inherent concentration; the ANN column shows
    // what JUNO's retrieval actually captures of it.
    TablePrinter table({"kept fraction", "exact_topk_mass",
                        "ann_mass_retained", "attention_output_rel_err"});

    for (double keep : {1.0, 0.5, 0.2, 0.1, 0.05, 0.02}) {
        const idx_t k = std::max<idx_t>(
            1, static_cast<idx_t>(keep * static_cast<double>(seq_len)));
        double mass_acc = 0.0, err_acc = 0.0, exact_mass_acc = 0.0;
        for (idx_t qi = 0; qi < num_queries; ++qi) {
            const float *q = data.queries.row(qi);

            // Exact softmax over all keys.
            std::vector<double> logits(static_cast<std::size_t>(seq_len));
            double max_logit = -1e300;
            for (idx_t i = 0; i < seq_len; ++i) {
                logits[static_cast<std::size_t>(i)] =
                    innerProduct(q, data.keys.row(i), d) * inv_sqrt_d;
                max_logit = std::max(max_logit,
                                     logits[static_cast<std::size_t>(i)]);
            }
            double z = 0.0;
            for (auto &l : logits) {
                l = std::exp(l - max_logit);
                z += l;
            }
            std::vector<double> exact_out(static_cast<std::size_t>(d),
                                          0.0);
            for (idx_t i = 0; i < seq_len; ++i) {
                const double w = logits[static_cast<std::size_t>(i)] / z;
                for (idx_t j = 0; j < d; ++j)
                    exact_out[static_cast<std::size_t>(j)] +=
                        w * data.values.at(i, j);
            }

            // Exhaustive top-k mass (the head's inherent concentration).
            {
                std::vector<double> sorted_w(logits);
                std::partial_sort(sorted_w.begin(),
                                  sorted_w.begin() +
                                      static_cast<std::ptrdiff_t>(k),
                                  sorted_w.end(), std::greater<double>());
                double m = 0.0;
                for (idx_t i = 0; i < k; ++i)
                    m += sorted_w[static_cast<std::size_t>(i)] / z;
                exact_mass_acc += m;
            }

            // ANN-retrieved top-k keys; softmax restricted to them.
            const auto kept =
                index.search(SearchRequest(FloatMatrixView(q, 1, d), k))[0];
            double kept_mass = 0.0, zk = 0.0;
            std::vector<double> approx_out(static_cast<std::size_t>(d),
                                           0.0);
            for (const auto &nb : kept) {
                kept_mass += logits[static_cast<std::size_t>(nb.id)] / z;
                zk += logits[static_cast<std::size_t>(nb.id)];
            }
            for (const auto &nb : kept) {
                const double w =
                    logits[static_cast<std::size_t>(nb.id)] / zk;
                for (idx_t j = 0; j < d; ++j)
                    approx_out[static_cast<std::size_t>(j)] +=
                        w * data.values.at(nb.id, j);
            }
            double num = 0.0, den = 0.0;
            for (idx_t j = 0; j < d; ++j) {
                const double diff =
                    approx_out[static_cast<std::size_t>(j)] -
                    exact_out[static_cast<std::size_t>(j)];
                num += diff * diff;
                den += exact_out[static_cast<std::size_t>(j)] *
                       exact_out[static_cast<std::size_t>(j)];
            }
            mass_acc += kept_mass;
            err_acc += std::sqrt(num / (den + 1e-12));
        }
        table.addRow({TablePrinter::num(keep),
                      TablePrinter::num(exact_mass_acc / num_queries),
                      TablePrinter::num(mass_acc / num_queries),
                      TablePrinter::num(err_acc / num_queries)});
    }
    table.print();
    std::printf("\npaper: Llama-7B keeps usable perplexity with < 20%% of "
                "attention retained.\nreading: the exact column shows the "
                "head's mass concentrates in few keys (flat far\nbelow "
                "keep=0.2); the ANN column tracks it closely, so MIPS "
                "retrieval captures the\nsignificant attention — the "
                "paper's claim.\n");
    return 0;
}
