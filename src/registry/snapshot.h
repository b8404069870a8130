/**
 * @file
 * Versioned snapshot container: the one on-disk format every index
 * type persists through (DESIGN.md "Index lifecycle & persistence").
 *
 * Layout (all integers little-endian):
 *
 *   0    "JUNOSNAP"                      8-byte magic
 *   8    u32  container_version (= 1)
 *   12   u32  section_count
 *   16   u64  toc_offset
 *   24   u64  file_bytes                 (fast truncation check)
 *   32   zero padding to 64
 *   64   section payloads, each padded so its payload starts on a
 *        64-byte boundary (mmap views of float/code planes are
 *        cache-line- and SIMD-aligned for free)
 *   ...  TOC: per section { string name, u64 offset, u64 bytes,
 *        u32 crc32 }, then u32 crc32 of the TOC bytes themselves
 *
 * Two section flavours by convention:
 *  - "meta"-style streams: small typed payloads staged through a
 *    BufferWriter (params, shapes, list offsets). Always read through
 *    a buffered, crc-checked copy.
 *  - bulk blobs: large flat payloads (raw vectors, PQ code planes,
 *    adjacency) written directly from index memory. In mmap mode
 *    open() hands out pointers into the mapping (zero-copy; checksum
 *    verification is optional there, since eagerly touching every
 *    page would defeat lazy page-in).
 *
 * The first section of every index snapshot is "spec": the
 * IndexSpec string (registry/index_spec.h) naming the index type and
 * its build parameters; openIndex() dispatches on it.
 */
#ifndef JUNO_REGISTRY_SNAPSHOT_H
#define JUNO_REGISTRY_SNAPSHOT_H

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/mmap_blob.h"
#include "common/serialize.h"

namespace juno {

/** crc32 (IEEE 802.3 polynomial) of @p bytes. */
std::uint32_t crc32(const void *data, std::size_t bytes,
                    std::uint32_t seed = 0);

/** How openIndex()/SnapshotReader bring sections into memory. */
struct SnapshotOptions {
    /**
     * Map the file and view bulk sections in place (zero-copy) when
     * the platform allows; false reads every section into owned
     * buffers. Loaders fall back to buffered reads automatically when
     * mapping fails.
     */
    bool use_mmap = true;
    /**
     * Verify bulk-blob checksums even in mmap mode (touches every
     * page up front). Stream sections are always verified.
     */
    bool paranoid_checksums = false;
};

/**
 * Writes one snapshot file. Usage:
 *
 *   SnapshotWriter w(path, spec_string);
 *   Writer &meta = w.section("meta");   // staged typed stream
 *   meta.writePod(...);
 *   w.addBlob("points", data, bytes);   // bulk payload, 64-aligned
 *   w.finish();                         // TOC + header patch
 *
 * section() auto-closes the previously open stream; finish() is
 * mandatory (a snapshot without a TOC is rejected by the reader).
 */
class SnapshotWriter {
  public:
    SnapshotWriter(const std::string &path, const std::string &spec);
    ~SnapshotWriter();

    SnapshotWriter(const SnapshotWriter &) = delete;
    SnapshotWriter &operator=(const SnapshotWriter &) = delete;

    /** Begins a staged stream section; valid until the next call. */
    Writer &section(const std::string &name);

    /** Writes a bulk section directly from caller memory. */
    void addBlob(const std::string &name, const void *data,
                 std::size_t bytes);

    /** Writes the TOC and patches the header. Call exactly once. */
    void finish();

  private:
    struct Entry {
        std::string name;
        std::uint64_t offset = 0;
        std::uint64_t bytes = 0;
        std::uint32_t crc = 0;
    };

    void flushPending();
    std::uint64_t alignTo64();
    void checkName(const std::string &name) const;

    std::ofstream out_;
    std::string path_;
    std::vector<Entry> toc_;
    BufferWriter pending_;
    std::string pending_name_;
    bool pending_open_ = false;
    bool finished_ = false;
};

/** Read access to one snapshot file (buffered or memory-mapped). */
class SnapshotReader {
  public:
    /**
     * Opens and validates @p path: magic, container version, file
     * size, TOC checksum. Throws ConfigError on anything suspicious
     * (missing file, foreign magic, truncation, bad checksum).
     */
    SnapshotReader(const std::string &path,
                   const SnapshotOptions &options = {});

    /** The IndexSpec string stored at save time. */
    const std::string &spec() const { return spec_; }

    const std::string &path() const { return path_; }

    /** True when the file is memory-mapped (zero-copy blobs). */
    bool mapped() const { return blob_ != nullptr; }

    bool has(const std::string &name) const;
    /** Section names in file order ("spec" first). */
    std::vector<std::string> sections() const;

    /**
     * Typed stream over section @p name. The payload is crc-verified;
     * the returned reader borrows storage owned by this
     * SnapshotReader, so it must not outlive it (index loaders
     * consume streams inside open()).
     */
    BoundedMemReader stream(const std::string &name);

    /** One bulk section: pointer + keepalive for zero-copy views. */
    struct Blob {
        const std::uint8_t *data = nullptr;
        std::size_t bytes = 0;
        /** Keeps the mapping (or the buffered copy) alive. */
        std::shared_ptr<const void> keepalive;

        /**
         * Typed view; throws if the payload size does not match.
         * @p count is usually read from a (possibly forged) meta
         * section, so the byte-count comparison must not be reachable
         * through a wrapped multiplication.
         */
        template <typename T>
        PinnedArray<T>
        array(std::size_t count, const std::string &what) const
        {
            if (count > kMaxSerializedPayloadBytes / sizeof(T) ||
                bytes != count * sizeof(T))
                fatal(what + ": payload size mismatch (corrupt file)");
            return PinnedArray<T>(reinterpret_cast<const T *>(data),
                                  count, keepalive);
        }

        /** Typed matrix view; throws on size mismatch (overflow-safe). */
        PinnedMatrix
        matrix(idx_t rows, idx_t cols, const std::string &what) const
        {
            if (rows < 0 || cols < 0 ||
                (cols != 0 &&
                 static_cast<std::uint64_t>(rows) >
                     kMaxSerializedPayloadBytes /
                         static_cast<std::uint64_t>(cols)))
                fatal(what + ": payload size mismatch (corrupt file)");
            const auto count = static_cast<std::size_t>(rows) *
                               static_cast<std::size_t>(cols);
            if (count > kMaxSerializedPayloadBytes / sizeof(float) ||
                bytes != count * sizeof(float))
                fatal(what + ": payload size mismatch (corrupt file)");
            return PinnedMatrix(
                FloatMatrixView(reinterpret_cast<const float *>(data),
                                rows, cols),
                keepalive);
        }
    };

    /**
     * Bulk access to section @p name: a pointer into the mapping in
     * mmap mode (page-in on first touch), an owned copy otherwise.
     */
    Blob blob(const std::string &name);

  private:
    struct Entry {
        std::string name;
        std::uint64_t offset = 0;
        std::uint64_t bytes = 0;
        std::uint32_t crc = 0;
    };

    const Entry &find(const std::string &name) const;
    /** Reads a section into an owned buffer (buffered mode). */
    std::shared_ptr<std::vector<std::uint8_t>> readCopy(const Entry &e);

    std::string path_;
    SnapshotOptions options_;
    std::shared_ptr<MappedBlob> blob_; ///< null in buffered mode
    std::vector<Entry> toc_;
    std::string spec_;
    /** Buffered stream() payloads kept alive for borrowing readers. */
    std::vector<std::shared_ptr<std::vector<std::uint8_t>>> retained_;
};

/** Meta-section helper: metric as a validated i32 tag. */
inline void
writeMetricTag(Writer &writer, Metric metric)
{
    writer.writePod<std::int32_t>(metric == Metric::kL2 ? 0 : 1);
}

inline Metric
readMetricTag(Reader &reader)
{
    const auto tag = reader.readPod<std::int32_t>();
    if (tag != 0 && tag != 1)
        fatal("corrupt metric tag in snapshot");
    return tag == 0 ? Metric::kL2 : Metric::kInnerProduct;
}

/** Meta-section helper: per-index format version gate. */
inline void
checkFormatVersion(Reader &reader, std::uint32_t expected,
                   const std::string &what)
{
    const auto version = reader.readPod<std::uint32_t>();
    if (version != expected)
        fatal(what + ": format version " + std::to_string(version) +
              " unsupported (expected " + std::to_string(expected) +
              ")");
}

} // namespace juno

#endif // JUNO_REGISTRY_SNAPSHOT_H
