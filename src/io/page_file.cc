#include "io/page_file.h"

#include <cstring>

#include "common/crc32.h"
#include "io/io_retry.h"

namespace phoebe {

void StampPageCrc(char* page) {
  memset(page + kPageCrcOffset, 0, 4);
  uint32_t crc = Crc32c(page, kPageSize);
  memcpy(page + kPageCrcOffset, &crc, 4);
}

Status VerifyPageCrc(const char* page, PageId id) {
  uint32_t stored;
  memcpy(&stored, page + kPageCrcOffset, 4);
  char scratch[4] = {0, 0, 0, 0};
  // Compute with the crc bytes zeroed, without copying the page: CRC over
  // [0, off) + zeros + (off+4, end).
  uint32_t crc = Crc32c(page, kPageCrcOffset);
  crc = Crc32c(scratch, 4, crc);
  crc = Crc32c(page + kPageCrcOffset + 4, kPageSize - kPageCrcOffset - 4,
               crc);
  if (crc != stored) {
    return Status::Corruption("page checksum mismatch on page " +
                              std::to_string(id));
  }
  return Status::OK();
}

Result<std::unique_ptr<PageFile>> PageFile::Open(Env* env,
                                                 const std::string& path,
                                                 bool direct_io) {
  Env::OpenOptions opts;
  opts.create = true;
  opts.direct_io = direct_io;
  std::unique_ptr<File> file;
  Status st = env->OpenFile(path, opts, &file);
  if (!st.ok()) return Result<std::unique_ptr<PageFile>>(st);
  uint64_t pages = file->Size() / kPageSize;
  return Result<std::unique_ptr<PageFile>>(
      std::unique_ptr<PageFile>(new PageFile(std::move(file), pages)));
}

Status PageFile::ReadPage(PageId id, char* buf) const {
  if (IsQuarantined(id)) {
    return Status::Corruption("page quarantined: " + std::to_string(id));
  }
  if (throttle_ != nullptr) throttle_->Acquire(kPageSize);
  auto& stats = IoStats::Global();
  PHOEBE_RETURN_IF_ERROR(
      RetryIo(DefaultIoRetryPolicy(), &stats.read_retries, [&] {
        size_t got = 0;
        PHOEBE_RETURN_IF_ERROR(
            file_->Read(id * kPageSize, kPageSize, buf, &got));
        if (got != kPageSize) {
          // A genuine short read (EOF) is deterministic: not retried.
          return Status::Corruption("short page read at page " +
                                    std::to_string(id));
        }
        return Status::OK();
      }));
  stats.data_bytes_read.fetch_add(kPageSize, std::memory_order_relaxed);
  stats.data_reads.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status PageFile::WritePage(PageId id, const char* buf) {
  if (throttle_ != nullptr) throttle_->Acquire(kPageSize);
  auto& stats = IoStats::Global();
  PHOEBE_RETURN_IF_ERROR(
      RetryIo(DefaultIoRetryPolicy(), &stats.write_retries, [&] {
        return file_->Write(id * kPageSize, Slice(buf, kPageSize));
      }));
  stats.data_bytes_written.fetch_add(kPageSize, std::memory_order_relaxed);
  stats.data_writes.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void PageFile::QuarantinePage(PageId id) {
  std::lock_guard<std::mutex> lk(quarantine_mu_);
  if (quarantined_.insert(id).second) {
    IoStats::Global().pages_quarantined.fetch_add(1,
                                                  std::memory_order_relaxed);
  }
}

bool PageFile::IsQuarantined(PageId id) const {
  std::lock_guard<std::mutex> lk(quarantine_mu_);
  return !quarantined_.empty() && quarantined_.count(id) > 0;
}

PageId PageFile::AllocatePage() {
  {
    std::lock_guard<std::mutex> lk(free_mu_);
    if (!free_list_.empty()) {
      PageId id = free_list_.back();
      free_list_.pop_back();
      if (id < image_end_) recycled_.insert(id);
      return id;
    }
  }
  return next_page_.fetch_add(1, std::memory_order_relaxed);
}

void PageFile::FreePage(PageId id) {
  std::lock_guard<std::mutex> lk(free_mu_);
  if (defer_frees_.load(std::memory_order_relaxed)) {
    pending_free_.push_back(id);
  } else {
    free_list_.push_back(id);
  }
}

void PageFile::PublishImage() {
  std::lock_guard<std::mutex> lk(free_mu_);
  image_end_ = next_page_.load(std::memory_order_relaxed);
  recycled_.clear();
  defer_frees_.store(true, std::memory_order_relaxed);
}

bool PageFile::InImage(PageId id) const {
  if (!deferred_frees_enabled()) return false;
  std::lock_guard<std::mutex> lk(free_mu_);
  return id < image_end_ && recycled_.count(id) == 0;
}

void PageFile::PublishFrees() {
  std::lock_guard<std::mutex> lk(free_mu_);
  free_list_.insert(free_list_.end(), pending_free_.begin(),
                    pending_free_.end());
  pending_free_.clear();
}

size_t PageFile::pending_free_count() const {
  std::lock_guard<std::mutex> lk(free_mu_);
  return pending_free_.size();
}

}  // namespace phoebe
