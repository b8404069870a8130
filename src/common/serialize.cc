#include "common/serialize.h"

#include <cstring>
#include <utility>

namespace juno {

void
Writer::writeString(const std::string &s)
{
    writePod<std::uint64_t>(s.size());
    if (!s.empty())
        writeRaw(s.data(), s.size());
}

void
Writer::writeMatrix(FloatMatrixView m)
{
    writePod<std::int64_t>(m.rows());
    writePod<std::int64_t>(m.cols());
    const std::size_t count = static_cast<std::size_t>(m.rows()) *
                              static_cast<std::size_t>(m.cols());
    if (count != 0)
        writeRaw(m.data(), count * sizeof(float));
}

void
Reader::boundCheck(std::uint64_t count, std::uint64_t elem_bytes) const
{
    if (elem_bytes == 0 ||
        count > kMaxSerializedPayloadBytes / elem_bytes)
        fatal(name_ + ": implausible payload size (corrupt file)");
}

std::string
Reader::readString()
{
    const auto count = readPod<std::uint64_t>();
    boundCheck(count, 1);
    std::string s(static_cast<std::size_t>(count), '\0');
    if (count != 0)
        readRaw(s.data(), static_cast<std::size_t>(count));
    return s;
}

FloatMatrix
Reader::readMatrix()
{
    const auto rows = readPod<std::int64_t>();
    const auto cols = readPod<std::int64_t>();
    if (rows < 0 || cols < 0)
        fatal(name_ + ": negative matrix shape (corrupt file)");
    // Guard the product itself before boundCheck: 2^32 x 2^32 would
    // wrap to a tiny (even zero) element count and sail through.
    if (cols != 0 &&
        static_cast<std::uint64_t>(rows) >
            kMaxSerializedPayloadBytes / static_cast<std::uint64_t>(cols))
        fatal(name_ + ": implausible matrix shape (corrupt file)");
    boundCheck(static_cast<std::uint64_t>(rows) *
                   static_cast<std::uint64_t>(cols),
               sizeof(float));
    FloatMatrix m(rows, cols);
    const std::size_t count = static_cast<std::size_t>(rows) *
                              static_cast<std::size_t>(cols);
    if (count != 0)
        readRaw(m.data(), count * sizeof(float));
    return m;
}

void
Writer::writeRaw(const void *data, std::size_t bytes)
{
    if (bytes == 0)
        return;
    buffer_.append(static_cast<const char *>(data), bytes);
}

Reader::Reader(const void *data, std::size_t bytes, std::string name)
    : cursor_(static_cast<const std::uint8_t *>(data)),
      end_(static_cast<const std::uint8_t *>(data) + bytes),
      name_(std::move(name))
{
}

void
Reader::readRaw(void *data, std::size_t bytes)
{
    if (bytes == 0)
        return;
    if (bytes > remaining())
        fatal(name_ + ": truncated or corrupt stream");
    std::memcpy(data, cursor_, bytes);
    cursor_ += bytes;
}

} // namespace juno
