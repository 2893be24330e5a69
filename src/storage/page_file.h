#ifndef WALRUS_STORAGE_PAGE_FILE_H_
#define WALRUS_STORAGE_PAGE_FILE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/status.h"

namespace walrus {

/// Reference to a blob stored in a PageFile: the head page of its chain and
/// its total byte length.
struct BlobRef {
  uint32_t head_page = 0;
  uint64_t length = 0;
};

/// Fixed-size-page file with a chained-page blob layer; the disk substrate
/// beneath the persistent image/region catalog (the paper stores region
/// signatures and bitmaps in a disk-based index).
///
/// Layout: page 0 is the header (magic, page size, page count). Every data
/// page starts with an 8-byte header: u32 next-page id (0 = end of chain)
/// and u32 payload bytes used in this page. The last 4 bytes of every page
/// (header page included) hold a CRC-32 of the rest of the page, stamped on
/// write and verified on every read, so media or software corruption
/// surfaces as Status::Corruption instead of silently wrong data. There is
/// no read cache: the catalog and the paged R-tree each read every page
/// once, at open, into their own resident form. Only a file Create made is
/// written: Open is read-only, and writes through it fail.
class PageFile {
 public:
  static constexpr uint32_t kDefaultPageSize = 4096;
  /// Bytes of each page reserved for the CRC-32 trailer.
  static constexpr uint32_t kChecksumBytes = 4;

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;
  PageFile(PageFile&&) noexcept;
  PageFile& operator=(PageFile&&) noexcept;
  ~PageFile();

  /// Creates (truncates) a page file at `path`.
  static Result<PageFile> Create(const std::string& path,
                                 uint32_t page_size = kDefaultPageSize);

  /// Opens an existing page file read-only and validates its header.
  static Result<PageFile> Open(const std::string& path);

  uint32_t page_size() const { return page_size_; }
  uint32_t page_count() const { return page_count_; }
  /// Payload capacity per data page (page minus chain header and checksum).
  uint32_t PagePayload() const { return page_size_ - 8 - kChecksumBytes; }

  /// Appends a new zeroed page; returns its id.
  Result<uint32_t> AllocatePage();

  /// Overwrites page `id` with `data` (must be exactly page_size bytes).
  /// The last kChecksumBytes of the page are reserved: they are replaced by
  /// the CRC-32 trailer, so only the first page_size - kChecksumBytes bytes
  /// of `data` round-trip through ReadPage.
  Status WritePage(uint32_t id, const std::vector<uint8_t>& data);

  /// Reads page `id` from the file and verifies its checksum.
  Result<std::vector<uint8_t>> ReadPage(uint32_t id);

  /// Stores `bytes` across a fresh chain of pages.
  Result<BlobRef> WriteBlob(const std::vector<uint8_t>& bytes);

  /// Reads back a blob written by WriteBlob.
  Result<std::vector<uint8_t>> ReadBlob(const BlobRef& ref);

  /// Flushes buffered writes and the header to disk.
  Status Sync();

  /// Checksum sweep: re-reads every page, header included, and verifies
  /// its CRC-32 trailer. Returns Corruption naming the first bad page.
  /// O(file size); a scrub tool for a file that stays open (readers that
  /// load at open, like DiskRStarTree, already checked every page they
  /// read).
  Status ValidateChecksums();

 private:
  PageFile() = default;

  Status WriteHeader();
  /// Stamps the CRC trailer into `data` and writes it at page `id`.
  Status WritePageInternal(uint32_t id, std::vector<uint8_t> data);
  /// Reads page `id` (header page included) into `page` (one page long)
  /// and verifies its CRC-32 trailer.
  Status ReadVerified(uint32_t id, std::vector<uint8_t>* page);

  std::FILE* file_ = nullptr;
  std::string path_;
  uint32_t page_size_ = kDefaultPageSize;
  uint32_t page_count_ = 1;  // header page
  bool writable_ = false;  // made by Create
};

}  // namespace walrus

#endif  // WALRUS_STORAGE_PAGE_FILE_H_
