#include "common/build_info.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <thread>

#include "common/simd.h"

// CMake stamps these as per-file compile definitions (see the
// build_info block in CMakeLists.txt). The sha is captured at
// configure time, so it can lag HEAD until the next cmake run — good
// enough for attributing bench snapshots, not a release fingerprint.
#ifndef JUNO_GIT_SHA
#define JUNO_GIT_SHA "unknown"
#endif
#ifndef JUNO_BUILD_TYPE
#define JUNO_BUILD_TYPE "unknown"
#endif

namespace juno {

namespace {

std::string
compilerString()
{
#if defined(__clang__)
    return std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

std::string
firstLine(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

/** Value of the first "key : value" line of a /proc file, or "". */
std::string
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

/** Size of the cpu0 data/unified cache at @p level, or "". */
std::string
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

} // namespace

BuildInfo
buildInfo()
{
    BuildInfo info;
    info.git_sha = JUNO_GIT_SHA;
    info.compiler = compilerString();
    info.build_type = JUNO_BUILD_TYPE;
    info.simd_level = simd::levelName(simd::level());
    return info;
}

std::string
buildInfoJson()
{
    const BuildInfo info = buildInfo();
    std::string out = "{";
    out += "\"git_sha\": \"" + jsonEscape(info.git_sha) + "\", ";
    out += "\"compiler\": \"" + jsonEscape(info.compiler) + "\", ";
    out += "\"build_type\": \"" + jsonEscape(info.build_type) + "\", ";
    out += "\"simd_level\": \"" + jsonEscape(info.simd_level) + "\"";
    out += "}";
    return out;
}

std::string
hostInfoJson()
{
    const long pages = ::sysconf(_SC_PHYS_PAGES);
    const long page_size = ::sysconf(_SC_PAGESIZE);
    const double ram_gib =
        pages > 0 && page_size > 0
            ? static_cast<double>(pages) * static_cast<double>(page_size) /
                  (1024.0 * 1024.0 * 1024.0)
            : 0.0;
    char ram[32];
    std::snprintf(ram, sizeof ram, "%.3f", ram_gib);
    std::string out = "{\"nproc\": " +
                      std::to_string(std::thread::hardware_concurrency());
    out += ", \"cpu\": \"" +
           jsonEscape(procField("/proc/cpuinfo", "model name")) + "\"";
    out += ", \"l2\": \"" + jsonEscape(cacheSize("2")) + "\"";
    out += ", \"l3\": \"" + jsonEscape(cacheSize("3")) + "\"";
    out += std::string(", \"ram_gib\": ") + ram + "}";
    return out;
}

std::vector<std::pair<std::string, std::string>>
buildInfoLabels()
{
    const BuildInfo info = buildInfo();
    return {{"git_sha", info.git_sha},
            {"compiler", info.compiler},
            {"build_type", info.build_type},
            {"simd_level", info.simd_level}};
}

} // namespace juno
