#include "harness/reporter.h"

#include <cstdio>
#include <sstream>

#include "common/logging.h"
#include "harness/workload.h"

namespace juno {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    JUNO_REQUIRE(!headers_.empty(), "table needs at least one column");
}

void
TablePrinter::addRow(std::vector<std::string> cells)
{
    JUNO_REQUIRE(cells.size() == headers_.size(),
                 "row has " << cells.size() << " cells, expected "
                            << headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
TablePrinter::num(double v)
{
    std::ostringstream oss;
    oss.precision(6);
    oss << v;
    return oss.str();
}

std::string
TablePrinter::recall(double v, const WilsonInterval &ci)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f [%.3f, %.3f]", v, ci.lo, ci.hi);
    return buf;
}

std::string
TablePrinter::render() const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    std::ostringstream oss;
    auto emit_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            oss << row[c];
            if (c + 1 < row.size())
                oss << std::string(widths[c] - row[c].size() + 2, ' ');
        }
        oss << "\n";
    };
    emit_row(headers_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
    oss << std::string(total, '-') << "\n";
    for (const auto &row : rows_)
        emit_row(row);
    return oss.str();
}

void
TablePrinter::print() const
{
    std::fputs(render().c_str(), stdout);
    std::fflush(stdout);
}

std::string
TablePrinter::csv() const
{
    std::ostringstream oss;
    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            oss << row[c];
            if (c + 1 < row.size())
                oss << ",";
        }
        oss << "\n";
    };
    emit(headers_);
    for (const auto &row : rows_)
        emit(row);
    return oss.str();
}

void
printBanner(const std::string &title)
{
    std::printf("\n== %s ==\n", title.c_str());
    std::fflush(stdout);
}

void
printThreadScaling(const std::vector<EvalPoint> &points)
{
    if (points.empty())
        return;
    TablePrinter table({"index", "threads", "QPS", "speedup", "R1@k"});
    const double base_qps = points.front().qps;
    for (const auto &p : points)
        table.addRow({p.index_name, std::to_string(p.threads),
                      TablePrinter::num(p.qps),
                      TablePrinter::num(base_qps > 0.0 ? p.qps / base_qps
                                                       : 0.0),
                      TablePrinter::num(p.recall1_at_k)});
    table.print();
}

} // namespace juno
