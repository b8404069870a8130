/**
 * @file
 * JSON text helpers and the stamp block every result file carries: the
 * build (sha, compiler, build type, SIMD level) and the host (cores, CPU
 * model, cache sizes from sysfs, total RAM) that produced the numbers.
 */
#ifndef JUNO_BENCHSUITE_STAMP_H
#define JUNO_BENCHSUITE_STAMP_H

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "common/build_info.h"

namespace juno {
namespace suite {

/** @p s as a JSON string literal. */
inline std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/** @p v with every digit it has (round-trip exact); null if not finite. */
inline std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

namespace detail {

inline std::string
firstLine(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

/** Value of the first "key : value" line of a /proc file. */
inline std::string
procField(const std::string &path, const std::string &key)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, key.size(), key) != 0)
            continue;
        const auto colon = line.find(':');
        if (colon == std::string::npos)
            return "";
        const auto start = line.find_first_not_of(" \t", colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
    }
    return "";
}

/** Size of the cpu0 cache at @p level ("2", "3") from sysfs, or "". */
inline std::string
cacheSize(const std::string &level)
{
    for (int i = 0; i < 8; ++i) {
        const std::string dir =
            "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
        if (firstLine(dir + "/level") == level &&
            firstLine(dir + "/type") != "Instruction")
            return firstLine(dir + "/size");
    }
    return "";
}

} // namespace detail

/** The build + host stamp as a JSON object. */
inline std::string
stampJson()
{
    const long pages = ::sysconf(_SC_PHYS_PAGES);
    const long page_size = ::sysconf(_SC_PAGESIZE);
    const double ram_gib =
        pages > 0 && page_size > 0
            ? static_cast<double>(pages) * static_cast<double>(page_size) /
                  (1024.0 * 1024.0 * 1024.0)
            : 0.0;
    std::string out = "{\"build\": " + buildInfoJson();
    out += ", \"host\": {\"nproc\": " +
           std::to_string(std::thread::hardware_concurrency());
    out += ", \"cpu\": " +
           jsonString(detail::procField("/proc/cpuinfo", "model name"));
    out += ", \"l2\": " + jsonString(detail::cacheSize("2"));
    out += ", \"l3\": " + jsonString(detail::cacheSize("3"));
    out += ", \"ram_gib\": " + jsonNumber(ram_gib) + "}}";
    return out;
}

} // namespace suite
} // namespace juno

#endif // JUNO_BENCHSUITE_STAMP_H
