#include "registry/snapshot.h"

#include <array>
#include <cstring>

#include "common/fault_injection.h"

namespace juno {
namespace {

constexpr char kSnapshotMagic[8] = {'J', 'U', 'N', 'O',
                                    'S', 'N', 'A', 'P'};
constexpr std::uint32_t kContainerVersion = 1;
constexpr std::uint64_t kHeaderBytes = 64;
constexpr std::uint64_t kSectionAlign = 64;
/** TOC sanity bound: no real snapshot has more sections than this. */
constexpr std::uint32_t kMaxSections = 4096;

std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t bytes, std::uint32_t seed)
{
    static const auto table = makeCrcTable();
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < bytes; ++i)
        c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// SnapshotWriter
// ---------------------------------------------------------------------------

SnapshotWriter::SnapshotWriter(const std::string &path,
                               const std::string &spec)
    : out_(path, std::ios::binary), path_(path)
{
    if (!out_)
        fatal("cannot open " + path + " for writing");
    JUNO_REQUIRE(!spec.empty(), "snapshot requires a non-empty spec");
    // Header with zeroed patch fields; finish() fills them in.
    char header[kHeaderBytes] = {};
    std::memcpy(header, kSnapshotMagic, 8);
    std::memcpy(header + 8, &kContainerVersion, 4);
    out_.write(header, static_cast<std::streamsize>(kHeaderBytes));
    if (!out_)
        fatal("short write to " + path_);
    addBlob("spec", spec.data(), spec.size());
}

SnapshotWriter::~SnapshotWriter()
{
    if (!finished_)
        warn("snapshot " + path_ +
             " discarded without finish(); file is not loadable");
}

void
SnapshotWriter::checkName(const std::string &name) const
{
    JUNO_REQUIRE(!name.empty(), "snapshot section needs a name");
    for (const auto &e : toc_)
        JUNO_REQUIRE(e.name != name,
                     "duplicate snapshot section '" << name << "'");
}

std::uint64_t
SnapshotWriter::alignTo64()
{
    auto pos = static_cast<std::uint64_t>(out_.tellp());
    if (pos % kSectionAlign != 0) {
        const char zeros[kSectionAlign] = {};
        const auto pad = kSectionAlign - pos % kSectionAlign;
        out_.write(zeros, static_cast<std::streamsize>(pad));
        pos += pad;
    }
    if (!out_)
        fatal("short write to " + path_);
    return pos;
}

Writer &
SnapshotWriter::section(const std::string &name)
{
    JUNO_REQUIRE(!finished_, "snapshot already finished");
    flushPending();
    checkName(name);
    pending_name_ = name;
    pending_open_ = true;
    pending_.clear();
    return pending_;
}

void
SnapshotWriter::flushPending()
{
    if (!pending_open_)
        return;
    pending_open_ = false;
    addBlob(pending_name_, pending_.buffer().data(),
            pending_.buffer().size());
    pending_.clear();
}

void
SnapshotWriter::addBlob(const std::string &name, const void *data,
                        std::size_t bytes)
{
    JUNO_REQUIRE(!finished_, "snapshot already finished");
    // addBlob() may be re-entered from flushPending(): only flush when
    // a *different* staged section is still open.
    if (pending_open_ && pending_name_ != name)
        flushPending();
    checkName(name);
    Entry entry;
    entry.name = name;
    entry.offset = alignTo64();
    entry.bytes = bytes;
    entry.crc = crc32(data, bytes);
    if (bytes != 0) {
        out_.write(static_cast<const char *>(data),
                   static_cast<std::streamsize>(bytes));
        if (!out_)
            fatal("short write to " + path_);
    }
    toc_.push_back(std::move(entry));
}

void
SnapshotWriter::finish()
{
    JUNO_REQUIRE(!finished_, "snapshot already finished");
    flushPending();
    finished_ = true;

    const auto toc_offset = static_cast<std::uint64_t>(out_.tellp());
    BufferWriter toc;
    for (const auto &e : toc_) {
        toc.writeString(e.name);
        toc.writePod<std::uint64_t>(e.offset);
        toc.writePod<std::uint64_t>(e.bytes);
        toc.writePod<std::uint32_t>(e.crc);
    }
    const std::uint32_t toc_crc =
        crc32(toc.buffer().data(), toc.buffer().size());
    out_.write(toc.buffer().data(),
               static_cast<std::streamsize>(toc.buffer().size()));
    out_.write(reinterpret_cast<const char *>(&toc_crc), 4);

    const std::uint64_t file_bytes =
        toc_offset + toc.buffer().size() + 4;
    const auto section_count = static_cast<std::uint32_t>(toc_.size());
    out_.seekp(12);
    out_.write(reinterpret_cast<const char *>(&section_count), 4);
    out_.write(reinterpret_cast<const char *>(&toc_offset), 8);
    out_.write(reinterpret_cast<const char *>(&file_bytes), 8);
    out_.flush();
    if (!out_)
        fatal("short write to " + path_);
}

// ---------------------------------------------------------------------------
// SnapshotReader
// ---------------------------------------------------------------------------

SnapshotReader::SnapshotReader(const std::string &path,
                               const SnapshotOptions &options)
    : path_(path), options_(options)
{
    if (options_.use_mmap)
        blob_ = MappedBlob::map(path);

    std::vector<std::uint8_t> owned; // header + TOC in buffered mode
    const std::uint8_t *file = nullptr;
    std::uint64_t actual_bytes = 0;
    std::ifstream in;
    if (blob_ != nullptr) {
        file = blob_->data();
        actual_bytes = blob_->size();
    } else {
        in.open(path, std::ios::binary);
        if (!in)
            fatal("cannot open " + path);
        in.seekg(0, std::ios::end);
        actual_bytes = static_cast<std::uint64_t>(in.tellg());
        in.seekg(0);
    }

    if (actual_bytes < kHeaderBytes)
        fatal(path + ": not a JUNO snapshot (file too small)");

    std::uint8_t header[kHeaderBytes];
    if (blob_ != nullptr) {
        std::memcpy(header, file, kHeaderBytes);
    } else {
        in.read(reinterpret_cast<char *>(header), kHeaderBytes);
        if (!in)
            fatal(path + ": truncated snapshot header");
    }
    if (std::memcmp(header, kSnapshotMagic, 8) != 0)
        fatal(path + ": bad magic (not a JUNO snapshot)");
    std::uint32_t version, section_count;
    std::uint64_t toc_offset, file_bytes;
    std::memcpy(&version, header + 8, 4);
    std::memcpy(&section_count, header + 12, 4);
    std::memcpy(&toc_offset, header + 16, 8);
    std::memcpy(&file_bytes, header + 24, 8);
    if (version != kContainerVersion)
        fatal(path + ": snapshot container version " +
              std::to_string(version) + " unsupported (expected " +
              std::to_string(kContainerVersion) + ")");
    if (file_bytes != actual_bytes)
        fatal(path + ": truncated snapshot (" +
              std::to_string(actual_bytes) + " bytes, expected " +
              std::to_string(file_bytes) + ")");
    // Subtraction forms only: additions on attacker-controlled u64
    // offsets can wrap and defeat the range checks.
    if (section_count == 0 || section_count > kMaxSections ||
        toc_offset < kHeaderBytes || toc_offset > file_bytes - 4)
        fatal(path + ": corrupt snapshot header");

    // TOC + trailing crc32.
    const auto toc_bytes =
        static_cast<std::size_t>(file_bytes - toc_offset - 4);
    std::vector<std::uint8_t> toc_buf;
    const std::uint8_t *toc_data = nullptr;
    std::uint32_t stored_crc = 0;
    if (blob_ != nullptr) {
        toc_data = file + toc_offset;
        std::memcpy(&stored_crc, file + file_bytes - 4, 4);
    } else {
        toc_buf.resize(toc_bytes + 4);
        in.seekg(static_cast<std::streamoff>(toc_offset));
        in.read(reinterpret_cast<char *>(toc_buf.data()),
                static_cast<std::streamsize>(toc_buf.size()));
        if (!in)
            fatal(path + ": truncated snapshot TOC");
        toc_data = toc_buf.data();
        std::memcpy(&stored_crc, toc_buf.data() + toc_bytes, 4);
    }
    if (crc32(toc_data, toc_bytes) != stored_crc)
        fatal(path + ": snapshot TOC checksum mismatch (corrupt file)");

    BoundedMemReader toc(toc_data, toc_bytes, path + " [toc]");
    toc_.reserve(section_count);
    for (std::uint32_t i = 0; i < section_count; ++i) {
        Entry e;
        e.name = toc.readString();
        e.offset = toc.readPod<std::uint64_t>();
        e.bytes = toc.readPod<std::uint64_t>();
        e.crc = toc.readPod<std::uint32_t>();
        if (e.offset < kHeaderBytes || e.offset % kSectionAlign != 0 ||
            e.offset > toc_offset || e.bytes > toc_offset - e.offset)
            fatal(path + ": corrupt snapshot TOC entry '" + e.name +
                  "'");
        toc_.push_back(std::move(e));
    }
    if (toc.remaining() != 0)
        fatal(path + ": corrupt snapshot TOC (trailing bytes)");
    if (!has("spec"))
        fatal(path + ": snapshot has no spec section");

    // stream() verifies the checksum in both modes — a corrupt spec
    // must never dispatch to the wrong loader.
    auto spec_stream = stream("spec");
    spec_.resize(spec_stream.remaining());
    if (!spec_.empty())
        spec_stream.readRaw(spec_.data(), spec_.size());
    if (spec_.empty())
        fatal(path + ": snapshot has an empty spec");
}

bool
SnapshotReader::has(const std::string &name) const
{
    for (const auto &e : toc_)
        if (e.name == name)
            return true;
    return false;
}

std::vector<std::string>
SnapshotReader::sections() const
{
    std::vector<std::string> names;
    for (const auto &e : toc_)
        names.push_back(e.name);
    return names;
}

const SnapshotReader::Entry &
SnapshotReader::find(const std::string &name) const
{
    for (const auto &e : toc_)
        if (e.name == name)
            return e;
    fatal(path_ + ": snapshot has no '" + name +
          "' section (incompatible or corrupt file)");
}

std::shared_ptr<std::vector<std::uint8_t>>
SnapshotReader::readCopy(const Entry &e)
{
    // Chaos hook: injected delays model slow/contended snapshot IO;
    // injected errors surface as the same exception path a real read
    // failure would take.
    fault::inject("snapshot.read");
    auto buf = std::make_shared<std::vector<std::uint8_t>>(
        static_cast<std::size_t>(e.bytes));
    if (e.bytes != 0) {
        std::ifstream in(path_, std::ios::binary);
        if (!in)
            fatal("cannot open " + path_);
        in.seekg(static_cast<std::streamoff>(e.offset));
        in.read(reinterpret_cast<char *>(buf->data()),
                static_cast<std::streamsize>(e.bytes));
        if (!in)
            fatal(path_ + ": truncated snapshot section '" + e.name +
                  "'");
    }
    if (crc32(buf->data(), buf->size()) != e.crc)
        fatal(path_ + ": checksum mismatch in section '" + e.name +
              "' (corrupt file)");
    return buf;
}

BoundedMemReader
SnapshotReader::stream(const std::string &name)
{
    const Entry &e = find(name);
    const std::string label = path_ + " [" + name + "]";
    if (blob_ != nullptr) {
        const std::uint8_t *data = blob_->data() + e.offset;
        // Stream sections are small; verifying them even in mmap mode
        // costs a few pages and catches corrupt metadata up front.
        if (crc32(data, static_cast<std::size_t>(e.bytes)) != e.crc)
            fatal(label + ": checksum mismatch (corrupt file)");
        return BoundedMemReader(data, static_cast<std::size_t>(e.bytes),
                                label);
    }
    auto copy = readCopy(e);
    retained_.push_back(copy);
    return BoundedMemReader(copy->data(), copy->size(), label);
}

SnapshotReader::Blob
SnapshotReader::blob(const std::string &name)
{
    const Entry &e = find(name);
    Blob out;
    out.bytes = static_cast<std::size_t>(e.bytes);
    if (blob_ != nullptr) {
        out.data = blob_->data() + e.offset;
        out.keepalive =
            std::shared_ptr<const void>(blob_, blob_->data());
        if (options_.paranoid_checksums &&
            crc32(out.data, out.bytes) != e.crc)
            fatal(path_ + ": checksum mismatch in section '" + name +
                  "' (corrupt file)");
        return out;
    }
    auto copy = readCopy(e);
    out.data = copy->data();
    out.keepalive = copy;
    return out;
}

} // namespace juno
