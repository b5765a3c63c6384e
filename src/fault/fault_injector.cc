#include "fault/fault_injector.h"

namespace bulkdel {

const char* FaultModeName(FaultMode mode) {
  switch (mode) {
    case FaultMode::kCrash:
      return "crash";
    case FaultMode::kTornWrite:
      return "torn";
    case FaultMode::kShortWrite:
      return "short";
  }
  return "unknown";
}

const std::vector<FaultSiteInfo>& FaultInjector::KnownSites() {
  static const std::vector<FaultSiteInfo> kSites = {
      {fault_sites::kDiskRead, false},
      {fault_sites::kDiskWrite, true},
      {fault_sites::kDiskSync, false},
      {fault_sites::kPoolEvict, false},
      {fault_sites::kPoolFlush, false},
      {fault_sites::kLogSync, true},
      {fault_sites::kSchedPhaseStart, false},
      {fault_sites::kExecCheckpoint, false},
      {fault_sites::kExecCheckpointPostFlush, false},
      {fault_sites::kExecCommit, false},
      {fault_sites::kExecFinalize, false},
      {fault_sites::kExecFinalizePreEnd, false},
      {fault_sites::kTxnSideFileAppend, false},
      {fault_sites::kTxnCatchupBatch, false},
      {fault_sites::kTxnOnlineFlip, false},
      {fault_sites::kBtreeRangeLeafRun, false},
      {fault_sites::kHeapExtentDrop, false},
  };
  return kSites;
}

bool FaultInjector::IsKnownSite(const std::string& site) {
  for (const FaultSiteInfo& info : KnownSites()) {
    if (site == info.name) return true;
  }
  return false;
}

void FaultInjector::Arm(const std::string& site, uint64_t occurrence,
                        FaultMode mode, const std::string& detail) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_site_ = site;
  armed_occurrence_ = occurrence;
  armed_mode_ = mode;
  armed_detail_ = detail;
  armed_detail_hits_ = 0;
  tripped_ = false;
  trip_description_.clear();
}

void FaultInjector::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_site_.clear();
  armed_occurrence_ = 0;
  armed_detail_.clear();
  tripped_ = false;
  trip_description_.clear();
}

void FaultInjector::ResetCounts() {
  std::lock_guard<std::mutex> lock(mu_);
  counts_.clear();
}

bool FaultInjector::tripped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tripped_;
}

std::string FaultInjector::trip_description() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trip_description_;
}

uint64_t FaultInjector::HitCount(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counts_.find(site);
  return it == counts_.end() ? 0 : it->second;
}

std::map<std::string, uint64_t> FaultInjector::HitCounts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

Status FaultInjector::TrippedErrorLocked() const {
  return Status::Aborted("injected crash [" + trip_description_ +
                         "]: process is down");
}

Status FaultInjector::TrippedError() const {
  std::lock_guard<std::mutex> lock(mu_);
  return TrippedErrorLocked();
}

namespace {
/// splitmix64 — cheap, deterministic per-hit randomness.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
}  // namespace

Status FaultInjector::CheckLocked(const char* site, const std::string& detail,
                                  Hit* hit) {
  if (tripped_) return TrippedErrorLocked();
  uint64_t n = ++counts_[site];
  if (armed_site_ != site) return Status::OK();
  if (!armed_detail_.empty()) {
    if (detail != armed_detail_) return Status::OK();
    n = ++armed_detail_hits_;
  }
  if (n != armed_occurrence_) return Status::OK();
  tripped_ = true;
  trip_description_ = "site=" + armed_site_ +
                      " occurrence=" + std::to_string(armed_occurrence_) +
                      " mode=" + FaultModeName(armed_mode_);
  if (!detail.empty()) trip_description_ += " at=" + detail;
  if (hit != nullptr && armed_mode_ != FaultMode::kCrash) {
    hit->fire = true;
    hit->mode = armed_mode_;
    hit->rng = Mix(seed_ ^ Mix(n));
    return Status::OK();  // the caller applies the partial write, then fails
  }
  return TrippedErrorLocked();
}

Status FaultInjector::Check(const char* site, const std::string& detail) {
  std::lock_guard<std::mutex> lock(mu_);
  return CheckLocked(site, detail, nullptr);
}

Status FaultInjector::CheckWrite(const char* site, Hit* hit,
                                 const std::string& detail) {
  std::lock_guard<std::mutex> lock(mu_);
  return CheckLocked(site, detail, hit);
}

}  // namespace bulkdel
