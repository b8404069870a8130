/**
 * @file
 * Minimal binary serialization for index persistence.
 *
 * Two concrete classes carry the typed surface (PODs, vectors,
 * strings, matrices):
 *  - Writer appends to an in-memory byte buffer (snapshot sections
 *    and the snapshot TOC are staged through it before landing in the
 *    container file);
 *  - Reader is a bounds-checked window over caller memory (a buffered
 *    section copy or a memory-mapped snapshot region).
 *
 * Primitives are little-endian PODs; containers are a u64 count
 * followed by elements. The Reader validates counts against a sanity
 * bound before allocating, so corrupt files fail fast with ConfigError
 * instead of attempting gigabyte allocations, and every short read
 * surfaces as ConfigError rather than silent zero-fill.
 */
#ifndef JUNO_COMMON_SERIALIZE_H
#define JUNO_COMMON_SERIALIZE_H

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/logging.h"
#include "common/matrix.h"

namespace juno {

/** Upper bound on any single container payload: 16 GiB. */
constexpr std::uint64_t kMaxSerializedPayloadBytes = 16ull << 30;

/** Streaming binary writer into an owned in-memory buffer. */
class Writer {
  public:
    template <typename T>
    void
    writePod(const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        writeRaw(&value, sizeof(T));
    }

    template <typename T>
    void
    writeVector(const std::vector<T> &values)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        writeArray(values.data(), values.size());
    }

    /** u64 count followed by @p count raw elements (nullptr-safe at 0). */
    template <typename T>
    void
    writeArray(const T *data, std::size_t count)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        writePod<std::uint64_t>(count);
        // An empty vector's data() may be null; never forward it.
        if (count != 0)
            writeRaw(data, count * sizeof(T));
    }

    void writeString(const std::string &s);
    void writeMatrix(FloatMatrixView m);

    /** Appends @p bytes raw bytes. */
    void writeRaw(const void *data, std::size_t bytes);

    const std::string &buffer() const { return buffer_; }
    void clear() { buffer_.clear(); }

  private:
    std::string buffer_;
};

/**
 * Bounds-checked streaming reader over caller-owned memory. The window
 * must outlive the reader; reading past the end throws ConfigError
 * (this is how truncated snapshot sections are detected).
 */
class Reader {
  public:
    /** @p name labels error messages (file path and section). */
    Reader(const void *data, std::size_t bytes, std::string name);

    template <typename T>
    T
    readPod()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value{};
        readRaw(&value, sizeof(T));
        return value;
    }

    template <typename T>
    std::vector<T>
    readVector()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const auto count = readPod<std::uint64_t>();
        boundCheck(count, sizeof(T));
        std::vector<T> values(static_cast<std::size_t>(count));
        if (count != 0)
            readRaw(values.data(),
                    static_cast<std::size_t>(count) * sizeof(T));
        return values;
    }

    std::string readString();
    FloatMatrix readMatrix();

    /** Fills @p bytes raw bytes; throws ConfigError on short reads. */
    void readRaw(void *data, std::size_t bytes);

    std::size_t remaining() const { return end_ - cursor_; }

  private:
    /**
     * Rejects implausible element counts before any allocation; the
     * multiplication is overflow-checked so a forged 2^60 count cannot
     * wrap into a small byte total.
     */
    void boundCheck(std::uint64_t count, std::uint64_t elem_bytes) const;

    const std::uint8_t *cursor_ = nullptr;
    const std::uint8_t *end_ = nullptr;
    std::string name_;
};

} // namespace juno

#endif // JUNO_COMMON_SERIALIZE_H
