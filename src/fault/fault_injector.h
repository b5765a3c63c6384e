#ifndef BULKDEL_FAULT_FAULT_INJECTOR_H_
#define BULKDEL_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace bulkdel {

/// How an armed fault manifests when it fires.
enum class FaultMode : uint8_t {
  /// The guarded operation fails before taking any effect — the cleanest
  /// crash model: every preceding write is durable, this one never happens.
  kCrash,
  /// Page write: the first half of the new bytes reach the page, the second
  /// half keeps its old content (a torn page).
  /// Log sync: a prefix of the appended records becomes durable and the next
  /// record is half-written — it reaches the durable log flagged `torn`, and
  /// recovery must treat the log as ending just before it.
  kTornWrite,
  /// Page write: only the first (rng % kPageSize) bytes of the new data reach
  /// the page; the tail keeps its old content.
  kShortWrite,
};

const char* FaultModeName(FaultMode mode);

/// Canonical injection-site names. A site is a *program point*, not an
/// event: the same site is hit many times per statement, and a fault is
/// armed at (site, occurrence). Keep this list in sync with KnownSites().
namespace fault_sites {
/// DiskManager::ReadPage, before the bytes are produced.
inline constexpr char kDiskRead[] = "disk.read";
/// DiskManager::WritePage, before the bytes reach the page. Supports
/// kTornWrite / kShortWrite.
inline constexpr char kDiskWrite[] = "disk.write";
/// DiskManager::Flush, before the page file is fsynced at a checkpoint or
/// commit barrier.
inline constexpr char kDiskSync[] = "disk.sync";
/// BufferPool eviction, before the dirty victim is written back.
inline constexpr char kPoolEvict[] = "pool.evict";
/// Before a BufferPool::FlushAll (Database::FlushStructures) or FlushPages
/// sweep that has dirty frames.
inline constexpr char kPoolFlush[] = "pool.flush";
/// LogManager::Sync, before the volatile tail becomes durable. Supports
/// kTornWrite (partial tail with a torn trailing record).
inline constexpr char kLogSync[] = "log.sync";
/// PhaseScheduler, immediately before dispatching a phase body (both the
/// serial and the worker-pool path).
inline constexpr char kSchedPhaseStart[] = "sched.phase_start";
/// VerticalRun::Barrier (detail: the barrier's phase label), before the
/// level's meta/pool flush.
inline constexpr char kExecCheckpoint[] = "exec.checkpoint";
/// VerticalRun::Barrier, after the pool flush and page-file fsync but before
/// the level's PhaseDone records are appended and synced — the window where
/// the passes' page writes are durable but they are not yet marked done.
inline constexpr char kExecCheckpointPostFlush[] = "exec.checkpoint.post_flush";
/// VerticalRun::CommitPoint, before the Commit record is appended.
inline constexpr char kExecCommit[] = "exec.commit";
/// VerticalRun::FinishRun entry — after every secondary phase completed but
/// before the finalize flush. The secondaries' PhaseDone records are still
/// pending (volatile) here, so recovery must re-run them idempotently.
inline constexpr char kExecFinalize[] = "exec.finalize";
/// VerticalRun::FinishRun, after the deferred PhaseDone records are appended
/// but before the End record is appended and synced.
inline constexpr char kExecFinalizePreEnd[] = "exec.finalize.pre_end";
/// Database::ApplyIndexInsert/Delete, §3.1 side-file protocol: after the
/// updater's row record is synced but before the op enters the side-file.
inline constexpr char kTxnSideFileAppend[] = "txn.sidefile.append";
/// VerticalRun::DrainAndApply, before a catch-up batch of side-file ops is
/// applied to the off-line index.
inline constexpr char kTxnCatchupBatch[] = "txn.catchup.batch";
/// VerticalRun::BringOnline, inside the quiesce window — side-file: after
/// the final drain, before the mode flips on-line; direct propagation:
/// after the flags clear has been requested, before the flip (the window
/// that used to strand persistent undeletable markers).
inline constexpr char kTxnOnlineFlip[] = "txn.online_flip";
/// BTree range delete, after a fully-covered leaf's kRangeLeafRun record is
/// appended but before the leaf is detached from the chain and freed.
inline constexpr char kBtreeRangeLeafRun[] = "btree.range.leafrun";
/// Heap range delete, after a fully-covered extent's kExtentDrop record is
/// appended but before the pages are spliced out of the table's page chain.
inline constexpr char kHeapExtentDrop[] = "heap.extent.drop";
}  // namespace fault_sites

struct FaultSiteInfo {
  const char* name;
  /// kTornWrite / kShortWrite are meaningful here (write-path sites). At any
  /// other site those modes degrade to kCrash.
  bool supports_write_modes;
};

/// Deterministic fault injection for crash-recovery testing.
///
/// The injector is armed at a named site and a 1-based occurrence count:
/// the n-th time execution passes the site, the fault *fires* and the
/// injector *trips*. A tripped injector models a dead process: every
/// subsequent Check at any site fails with kAborted, so execution cannot
/// limp past the crash point — the run unwinds, and the harness then
/// discards volatile state and runs recovery, exactly like a restart.
///
/// Sites are enumerable (KnownSites) and hits are counted per site, so a
/// driver can first run uninjected to learn each site's hit count and then
/// sweep "crash at site k, occurrence n" exhaustively.
///
/// Determinism: with exec_threads == 1 a given (site, occurrence, seed,
/// workload) always crashes at the same program state. With a worker pool
/// the occurrence → program-state mapping can vary with thread interleaving;
/// the verification contract is interleaving-agnostic (post-recovery state
/// must equal the uncrashed reference) and failures still report the exact
/// (site, occurrence, seed) that was armed.
///
/// Thread safety: all methods are internally synchronized; Check never calls
/// back into any other subsystem.
class FaultInjector {
 public:
  /// Outcome of a CheckWrite at a write-path site.
  struct Hit {
    bool fire = false;
    FaultMode mode = FaultMode::kCrash;
    /// Deterministic per-hit randomness (from the injector seed and the hit
    /// ordinal) for data-dependent mangling, e.g. the short-write length.
    uint64_t rng = 0;
  };

  explicit FaultInjector(uint64_t seed = 0) : seed_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Every injection site, in a stable order.
  static const std::vector<FaultSiteInfo>& KnownSites();
  static bool IsKnownSite(const std::string& site);

  /// Arms a fault: the `occurrence`-th (1-based) hit of `site` fires with
  /// `mode`. Replaces any previously armed fault and clears a tripped state.
  /// With a non-empty `detail` only hits carrying that detail (e.g. the
  /// phase label "table" at `sched.phase_start`) count toward `occurrence`,
  /// counted from this call; HitCount still counts every hit of the site.
  void Arm(const std::string& site, uint64_t occurrence,
           FaultMode mode = FaultMode::kCrash, const std::string& detail = {});

  /// Clears the armed fault and the tripped state (hit counts are kept).
  /// Call before running recovery: the "restarted process" is alive again.
  void Disarm();

  /// Zeroes all hit counters (used between setup and the measured run).
  void ResetCounts();

  bool tripped() const;
  /// Human-readable description of the trip ("site=... occurrence=... ...");
  /// empty if not tripped.
  std::string trip_description() const;

  uint64_t HitCount(const std::string& site) const;
  std::map<std::string, uint64_t> HitCounts() const;

  /// The standard hook: counts a hit at `site`; fails if tripped or if this
  /// hit fires the armed fault (any mode — non-write sites treat torn/short
  /// as kCrash). `detail` (e.g. a phase label) is recorded on trip for the
  /// failure message.
  Status Check(const char* site, const std::string& detail = {});

  /// Write-path hook. Behaves like Check, except that when the armed fault
  /// fires with kTornWrite/kShortWrite it returns OK with hit->fire set: the
  /// caller applies the partial effect and then fails with TrippedError().
  Status CheckWrite(const char* site, Hit* hit, const std::string& detail = {});

  /// The error every operation reports once tripped.
  Status TrippedError() const;

 private:
  Status CheckLocked(const char* site, const std::string& detail, Hit* hit);
  Status TrippedErrorLocked() const;

  const uint64_t seed_;
  mutable std::mutex mu_;
  std::map<std::string, uint64_t> counts_;
  std::string armed_site_;
  uint64_t armed_occurrence_ = 0;
  std::string armed_detail_;
  /// Hits of the armed site carrying armed_detail_ since Arm.
  uint64_t armed_detail_hits_ = 0;
  FaultMode armed_mode_ = FaultMode::kCrash;
  bool tripped_ = false;
  std::string trip_description_;
};

}  // namespace bulkdel

#endif  // BULKDEL_FAULT_FAULT_INJECTOR_H_
