#ifndef PHOEBE_IO_PAGE_FILE_H_
#define PHOEBE_IO_PAGE_FILE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/constants.h"
#include "common/status.h"
#include "io/env.h"
#include "io/io_stats.h"
#include "io/throttle.h"

namespace phoebe {

/// Page-checksum helpers (CRC32C over the page with the crc field zeroed).
/// Stamped at write-back — by the async I/O threads for batched write-back,
/// keeping the CRC off the evicting worker's critical path — and verified
/// after every load.
void StampPageCrc(char* page);
Status VerifyPageCrc(const char* page, PageId id);

/// A file of fixed-size (kPageSize) pages: the on-disk Data Page File of
/// Section 5.1. Pages are addressed by PageId; freed pages are recycled via
/// an in-memory free list (persisted state is reconstructed at recovery from
/// the B-Tree, so the free list is best-effort). The file also knows which
/// ids the published checkpoint image may reference (InImage), so that no
/// writer overwrites them between two checkpoints.
class PageFile {
 public:
  /// Opens (creating if needed) the page file at `path`.
  static Result<std::unique_ptr<PageFile>> Open(Env* env,
                                                const std::string& path,
                                                bool direct_io = false);

  /// Reads page `id` into `buf` (must hold kPageSize bytes). Transient
  /// kIOError failures are absorbed by a bounded retry-with-backoff; a
  /// quarantined page fails immediately with kCorruption.
  Status ReadPage(PageId id, char* buf) const;

  /// Writes page `id` from `buf` (kPageSize bytes), with bounded retry on
  /// transient kIOError failures.
  Status WritePage(PageId id, const char* buf);

  /// Marks `id` as delivering corrupt data even after a CRC re-read; all
  /// further reads fail fast with kCorruption instead of handing callers
  /// bad bytes. Degradation, not crash: unaffected pages stay serviceable.
  void QuarantinePage(PageId id);
  bool IsQuarantined(PageId id) const;

  /// Allocates a fresh page id (recycling freed ids when available).
  PageId AllocatePage();

  /// Returns page `id` to the free list. With deferred frees enabled the id
  /// is parked on a pending list instead and only becomes reusable after
  /// PublishFrees(): page images referenced by the last durable catalog must
  /// not be overwritten until a newer catalog is durable.
  void FreePage(PageId id);

  /// Records that a durable catalog now references a checkpoint image made
  /// of pages allocated so far, and turns on deferred frees. Before the
  /// first call (fresh database, or an unclean catalog that full replay
  /// rebuilds) no image exists and frees recycle immediately.
  void PublishImage();
  /// True exactly while a published checkpoint image exists.
  bool deferred_frees_enabled() const {
    return defer_frees_.load(std::memory_order_relaxed);
  }

  /// True if page `id` may belong to the published checkpoint image, i.e.
  /// an image exists and `id` was not allocated since its publication. Such
  /// a page must not be overwritten before the next publication.
  bool InImage(PageId id) const;

  /// Moves all pending frees to the free list. Call only after the catalog
  /// that no longer references those pages has been made durable.
  void PublishFrees();

  /// Pending deferred frees (for tests/stats).
  size_t pending_free_count() const;

  Status Sync() { return file_->Sync(); }

  uint64_t num_pages() const {
    return next_page_.load(std::memory_order_relaxed);
  }

  /// Optional bandwidth throttle applied to reads and writes (Exp 9).
  void set_throttle(BandwidthThrottle* throttle) { throttle_ = throttle; }

 private:
  PageFile(std::unique_ptr<File> file, uint64_t existing_pages)
      : file_(std::move(file)), next_page_(existing_pages) {}

  std::unique_ptr<File> file_;
  std::atomic<uint64_t> next_page_;
  mutable std::mutex free_mu_;
  std::vector<PageId> free_list_;
  std::vector<PageId> pending_free_;
  // Ids at or above image_end_, and the ids in recycled_, were allocated
  // since the last PublishImage().
  PageId image_end_ = 0;
  std::unordered_set<PageId> recycled_;
  std::atomic<bool> defer_frees_{false};
  mutable std::mutex quarantine_mu_;
  std::unordered_set<PageId> quarantined_;
  BandwidthThrottle* throttle_ = nullptr;
};

}  // namespace phoebe

#endif  // PHOEBE_IO_PAGE_FILE_H_
