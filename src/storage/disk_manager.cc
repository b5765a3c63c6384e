#include "storage/disk_manager.h"

#include <fcntl.h>
#include <limits.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "util/coding.h"
#include "util/crc32.h"

namespace bulkdel {

thread_local IoAttribution* DiskManager::tls_attribution_ = nullptr;

DiskManager::AttributionScope::AttributionScope(IoAttribution* attribution)
    : previous_(tls_attribution_) {
  tls_attribution_ = attribution;
}

DiskManager::AttributionScope::~AttributionScope() {
  tls_attribution_ = previous_;
}

DiskManager::DiskManager(DiskModel model) : model_(model) {}

DiskManager::DiskManager(const std::string& path, bool truncate,
                         DiskModel model)
    : model_(model), path_(path) {
  int flags = O_RDWR | O_CREAT;
  if (truncate) flags |= O_TRUNC;
  fd_ = ::open(path.c_str(), flags, 0644);
  // A failed open leaves fd_ == -1; the first I/O reports the error. Existing
  // file contents define the page count.
  if (fd_ >= 0) {
    off_t size = ::lseek(fd_, 0, SEEK_END);
    if (size > 0) file_pages_ = static_cast<uint32_t>(size / kPageSize);
  }
  if (truncate) {
    // A truncating open must not inherit a stale sidecar from a previous
    // database at the same path.
    (void)::unlink((path_ + ".meta").c_str());
  } else {
    LoadCleanShutdownMeta();
  }
}

DiskManager::~DiskManager() {
  if (fd_ >= 0) ::close(fd_);
}

Result<PageId> DiskManager::AllocatePage() {
  std::lock_guard<std::mutex> lock(mu_);
  if (injector_ != nullptr && injector_->tripped()) {
    return injector_->TrippedError();
  }
  if (!free_list_.empty()) {
    PageId id = free_list_.back();
    free_list_.pop_back();
    free_set_.erase(id);
    if (fd_ < 0) {
      std::memset(pages_[id].get(), 0, kPageSize);
    } else {
      // Zero the recycled page on the medium too, so a fresh allocation
      // reads as zeros on both backings (the file path used to leak the
      // previous occupant's bytes). Allocation is a metadata operation:
      // like the memset above, this is not charged I/O.
      static const char kZeros[kPageSize] = {};
      (void)::pwrite(fd_, kZeros, kPageSize,
                     static_cast<off_t>(id) * kPageSize);
    }
    return id;
  }
  if (fd_ < 0) {
    PageId id = static_cast<PageId>(pages_.size());
    auto page = std::make_unique<char[]>(kPageSize);
    std::memset(page.get(), 0, kPageSize);
    pages_.push_back(std::move(page));
    return id;
  }
  PageId id = file_pages_++;
  // Extend the file to cover the allocation high-water mark (sparse, so this
  // costs no data blocks). In-memory allocation metadata survives a crash by
  // construction (the pages_ vector is the medium); the file backing gets
  // the same property from the file size, which a reopen derives file_pages_
  // from — without this, a page allocated but never written would fall out
  // of bounds after a crash reopen.
  (void)::ftruncate(fd_, static_cast<off_t>(file_pages_) * kPageSize);
  return id;
}

Status DiskManager::FreePage(PageId page_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (injector_ != nullptr && injector_->tripped()) {
    return injector_->TrippedError();
  }
  BULKDEL_RETURN_IF_ERROR(CheckBounds(page_id));
  if (!free_set_.insert(page_id).second) return Status::OK();  // already free
  free_list_.push_back(page_id);
  return Status::OK();
}

Status DiskManager::ReadPage(PageId page_id, char* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (injector_ != nullptr) {
    BULKDEL_RETURN_IF_ERROR(injector_->Check(fault_sites::kDiskRead));
  }
  BULKDEL_RETURN_IF_ERROR(CheckBounds(page_id));
  Account(page_id, /*is_write=*/false);
  if (fd_ < 0) {
    std::memcpy(out, pages_[page_id].get(), kPageSize);
    return Status::OK();
  }
  ssize_t n = ::pread(fd_, out, kPageSize,
                      static_cast<off_t>(page_id) * kPageSize);
  if (n < 0) return Status::IOError(std::strerror(errno));
  if (n < static_cast<ssize_t>(kPageSize)) {
    // Page beyond current file end (allocated but never written): zeros.
    std::memset(out + n, 0, kPageSize - n);
  }
  return Status::OK();
}

Status DiskManager::WritePage(PageId page_id, const char* data) {
  std::lock_guard<std::mutex> lock(mu_);
  return WritePageLocked(page_id, data);
}

void DiskManager::SetMetrics(obs::MetricsRegistry* metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  write_runs_counter_ =
      metrics != nullptr ? metrics->counter(obs::metric_names::kDiskWriteRuns)
                         : nullptr;
  syncs_counter_ =
      metrics != nullptr ? metrics->counter(obs::metric_names::kDiskSyncs)
                         : nullptr;
}

Status DiskManager::WriteRun(PageId first, const std::vector<const char*>& datas) {
  obs::TraceSpan span(obs::TraceCategory::kDisk, "disk.write_run", "pages");
  span.set_arg(static_cast<int64_t>(datas.size()));
  std::lock_guard<std::mutex> lock(mu_);
  if (write_runs_counter_ != nullptr) write_runs_counter_->Add(1);
  if (fd_ < 0) {
    for (size_t i = 0; i < datas.size(); ++i) {
      BULKDEL_RETURN_IF_ERROR(
          WritePageLocked(first + static_cast<PageId>(i), datas[i]));
    }
    return Status::OK();
  }
  // File backing: two phases so the run can go out as one vectored write.
  // Phase 1 replays the exact per-page WritePage semantics (fault site hit
  // per page, bounds, accounting) and stops at the first failure; phase 2
  // physically writes the verified prefix via pwritev plus, for a fired
  // torn/short fault, the partial bytes of the failing page — byte-for-byte
  // the end state the per-page loop would have produced.
  size_t ok_pages = 0;
  Status failure;
  size_t partial_bytes = 0;  // of page `first + ok_pages`, on a fired fault
  for (; ok_pages < datas.size(); ++ok_pages) {
    failure = ChargeWriteLocked(first + static_cast<PageId>(ok_pages),
                                &partial_bytes);
    if (!failure.ok()) break;
  }
  size_t done = 0;
  while (done < ok_pages) {
    size_t n = std::min<size_t>(ok_pages - done, IOV_MAX);
    std::vector<struct iovec> iov(n);
    for (size_t i = 0; i < n; ++i) {
      iov[i].iov_base = const_cast<char*>(datas[done + i]);
      iov[i].iov_len = kPageSize;
    }
    ssize_t written =
        ::pwritev(fd_, iov.data(), static_cast<int>(n),
                  static_cast<off_t>(first + done) * kPageSize);
    if (written != static_cast<ssize_t>(n * kPageSize)) {
      return Status::IOError(std::strerror(errno));
    }
    done += n;
  }
  if (partial_bytes > 0) {
    (void)::pwrite(fd_, datas[ok_pages], partial_bytes,
                   static_cast<off_t>(first + ok_pages) * kPageSize);
  }
  return failure;
}

Status DiskManager::Flush() {
  obs::TraceSpan span(obs::TraceCategory::kDisk, "disk.sync");
  std::lock_guard<std::mutex> lock(mu_);
  if (injector_ != nullptr) {
    BULKDEL_RETURN_IF_ERROR(injector_->Check(fault_sites::kDiskSync));
  }
  if (syncs_counter_ != nullptr) syncs_counter_->Add(1);
  if (fd_ >= 0 && ::fsync(fd_) != 0) {
    return Status::IOError(std::strerror(errno));
  }
  return Status::OK();
}

namespace {
constexpr char kMetaMagic[8] = {'B', 'D', 'M', 'E', 'T', 'A', '0', '1'};
}  // namespace

Status DiskManager::MarkCleanShutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return Status::OK();
  if (::fsync(fd_) != 0) return Status::IOError(std::strerror(errno));
  // Sidecar layout: magic | u32 file_pages | u32 n_free | n_free * u32 ids |
  // u32 crc32 of everything before it.
  std::string meta(kMetaMagic, sizeof(kMetaMagic));
  char buf[4];
  StoreU32(buf, file_pages_);
  meta.append(buf, 4);
  StoreU32(buf, static_cast<uint32_t>(free_list_.size()));
  meta.append(buf, 4);
  for (PageId id : free_list_) {
    StoreU32(buf, id);
    meta.append(buf, 4);
  }
  StoreU32(buf, Crc32(meta.data(), meta.size()));
  meta.append(buf, 4);
  std::string meta_path = path_ + ".meta";
  int mfd = ::open(meta_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (mfd < 0) return Status::IOError(std::strerror(errno));
  Status s;
  if (::write(mfd, meta.data(), meta.size()) !=
      static_cast<ssize_t>(meta.size())) {
    s = Status::IOError(std::strerror(errno));
  } else if (::fsync(mfd) != 0) {
    s = Status::IOError(std::strerror(errno));
  }
  ::close(mfd);
  return s;
}

void DiskManager::LoadCleanShutdownMeta() {
  std::string meta_path = path_ + ".meta";
  int mfd = ::open(meta_path.c_str(), O_RDONLY);
  if (mfd < 0) return;  // no sidecar: last shutdown was not clean
  std::string meta;
  char chunk[4096];
  ssize_t n;
  while ((n = ::read(mfd, chunk, sizeof(chunk))) > 0) {
    meta.append(chunk, static_cast<size_t>(n));
  }
  ::close(mfd);
  // Consume-once: whatever happens next, a future (crash) reopen must not
  // trust this sidecar again.
  (void)::unlink(meta_path.c_str());
  if (meta.size() < sizeof(kMetaMagic) + 12) return;
  if (std::memcmp(meta.data(), kMetaMagic, sizeof(kMetaMagic)) != 0) return;
  uint32_t crc = LoadU32(meta.data() + meta.size() - 4);
  if (Crc32(meta.data(), meta.size() - 4) != crc) return;
  uint32_t pages = LoadU32(meta.data() + sizeof(kMetaMagic));
  uint32_t n_free = LoadU32(meta.data() + sizeof(kMetaMagic) + 4);
  if (meta.size() != sizeof(kMetaMagic) + 8 + static_cast<size_t>(n_free) * 4 + 4) {
    return;
  }
  if (pages > file_pages_) file_pages_ = pages;
  free_list_.clear();
  free_set_.clear();
  for (uint32_t i = 0; i < n_free; ++i) {
    PageId id = LoadU32(meta.data() + sizeof(kMetaMagic) + 8 + i * 4);
    if (id >= file_pages_) continue;
    if (free_set_.insert(id).second) free_list_.push_back(id);
  }
}

Status DiskManager::WritePageLocked(PageId page_id, const char* data) {
  size_t torn_bytes = 0;
  Status charged = ChargeWriteLocked(page_id, &torn_bytes);
  if (torn_bytes > 0) (void)StorePageLocked(page_id, data, torn_bytes);
  BULKDEL_RETURN_IF_ERROR(charged);
  return StorePageLocked(page_id, data, kPageSize);
}

Status DiskManager::ChargeWriteLocked(PageId page_id, size_t* torn_bytes) {
  if (injector_ != nullptr) {
    FaultInjector::Hit hit;
    BULKDEL_RETURN_IF_ERROR(injector_->CheckWrite(
        fault_sites::kDiskWrite, &hit, "page " + std::to_string(page_id)));
    if (hit.fire) {
      // The crash interrupted this write mid-page: a prefix of the new bytes
      // reaches the medium, the tail keeps its previous content.
      if (CheckBounds(page_id).ok()) {
        *torn_bytes = hit.mode == FaultMode::kTornWrite ? kPageSize / 2
                                                        : hit.rng % kPageSize;
      }
      return injector_->TrippedError();
    }
  }
  BULKDEL_RETURN_IF_ERROR(CheckBounds(page_id));
  Account(page_id, /*is_write=*/true);
  return Status::OK();
}

Status DiskManager::StorePageLocked(PageId page_id, const char* data,
                                    size_t bytes) {
  if (fd_ < 0) {
    std::memcpy(pages_[page_id].get(), data, bytes);
    return Status::OK();
  }
  ssize_t n =
      ::pwrite(fd_, data, bytes, static_cast<off_t>(page_id) * kPageSize);
  if (n != static_cast<ssize_t>(bytes)) {
    return Status::IOError(std::strerror(errno));
  }
  return Status::OK();
}

uint32_t DiskManager::NumAllocatedPages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fd_ < 0 ? static_cast<uint32_t>(pages_.size()) : file_pages_;
}

uint32_t DiskManager::NumFreePages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<uint32_t>(free_list_.size());
}

IoStats DiskManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void DiskManager::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = IoStats();
  unattributed_.last_accessed_ = kInvalidPageId;
}

Status DiskManager::CheckBounds(PageId page_id) const {
  uint32_t limit = fd_ < 0 ? static_cast<uint32_t>(pages_.size()) : file_pages_;
  if (page_id >= limit) {
    return Status::InvalidArgument("page id " + std::to_string(page_id) +
                                   " out of bounds (" + std::to_string(limit) +
                                   " pages)");
  }
  return Status::OK();
}

void DiskManager::Account(PageId page_id, bool is_write) {
  IoAttribution* attr =
      tls_attribution_ != nullptr ? tls_attribution_ : &unattributed_;
  // Sequential if the account's head is already at or directly before this
  // page. Each account keeps its own head, so the classification depends on
  // that account's access sequence alone, not on how concurrent phases
  // interleave on the shared disk.
  bool sequential =
      attr->last_accessed_ != kInvalidPageId &&
      (page_id == attr->last_accessed_ || page_id == attr->last_accessed_ + 1);
  attr->last_accessed_ = page_id;
  IoStats access;
  (is_write ? access.writes : access.reads) = 1;
  (sequential ? access.sequential_accesses : access.random_accesses) = 1;
  access.simulated_micros =
      sequential ? model_.sequential_page_micros : model_.random_page_micros;
  attr->Add(access);
  stats_ += access;
}

}  // namespace bulkdel
