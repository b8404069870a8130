/**
 * @file
 * Table/CSV output helpers so every bench prints its figure data in a
 * uniform, diff-able format (rows mirror the paper's plots).
 */
#ifndef JUNO_HARNESS_REPORTER_H
#define JUNO_HARNESS_REPORTER_H

#include <string>
#include <vector>

namespace juno {

struct EvalPoint;
struct WilsonInterval;

/** Fixed-column text table accumulated row by row. */
class TablePrinter {
  public:
    explicit TablePrinter(std::vector<std::string> headers);

    /** Adds a data row; must match the header count. */
    void addRow(std::vector<std::string> cells);

    /** Formats numbers consistently (6 significant digits). */
    static std::string num(double v);

    /** A recall with its 95% interval: "0.912 [0.880, 0.937]". */
    static std::string recall(double v, const WilsonInterval &ci);

    /** Renders the table to a string (header, rule, rows). */
    std::string render() const;

    /** Renders and writes to stdout. */
    void print() const;

    /** Renders as CSV. */
    std::string csv() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Prints a section banner ("== Fig. 12: ... ==") to stdout. */
void printBanner(const std::string &title);

/**
 * Prints the effective-QPS table of a thread-scaling run (one row per
 * worker count, speedup relative to the first row). Points come from
 * evaluateThreadScaling(); recall is printed once per row to confirm
 * results did not change with the thread count.
 */
void printThreadScaling(const std::vector<EvalPoint> &points);

} // namespace juno

#endif // JUNO_HARNESS_REPORTER_H
