#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace juno {

/**
 * Strict numeric parsing for CLI flags and environment knobs.
 *
 * std::stol / std::stod are the wrong tool at trust boundaries: they
 * accept trailing junk unless the caller re-checks, report overflow by
 * throwing, and under-flag builds their unchecked cousins (atoi,
 * strtol without errno) turn "9999999999999999999999" into silent UB
 * or a wrapped value. Every helper here:
 *
 *   - consumes the ENTIRE string ("12x", "1 2", "" all fail),
 *   - rejects leading whitespace (flags are machine-written; a stray
 *     space is a quoting bug worth surfacing),
 *   - reports overflow/underflow as parse failure instead of throwing
 *     or saturating silently,
 *   - returns std::nullopt on failure so the caller owns the
 *     diagnostic (CLI fatal(), env-var warn-and-ignore, ...).
 */

/** Base-10 signed integer; nullopt on junk, partial parse or overflow. */
std::optional<std::int64_t> parseInt64(const std::string &text);

/**
 * parseInt64 plus an inclusive [lo, hi] range check. Out-of-range
 * values fail the parse — the caller cannot accidentally keep them.
 */
std::optional<std::int64_t> parseInt64InRange(const std::string &text,
                                              std::int64_t lo,
                                              std::int64_t hi);

/**
 * Finite double; nullopt on junk, partial parse, overflow to +/-inf,
 * or explicit "inf"/"nan" spellings (no knob in this codebase wants a
 * non-finite value, and NaN silently poisons threshold comparisons).
 */
std::optional<double> parseFloat64(const std::string &text);

/**
 * Byte size with optional k/m/g suffix (case-insensitive, powers of
 * 1024): "512", "64m", "2G". Rejects negatives, junk, and values that
 * would overflow std::int64_t after scaling. This is the single
 * parser behind every hot-list budget input (the tools' --mem-budget
 * flags and juno_cli serve's environment fallback).
 */
std::optional<std::int64_t> parseByteSize(const std::string &text);

} // namespace juno
