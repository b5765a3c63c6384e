#include "core/exec_context.h"

#include "core/database.h"
#include "obs/statement_registry.h"
#include "obs/trace_recorder.h"

namespace bulkdel {

ExecContext::ExecContext(Database* db)
    : db_(db),
      statement_id_(obs::StatementRegistry::CurrentThreadStatement()),
      root_scope_(&root_attribution_) {
  thread_ordinals_[std::this_thread::get_id()] = next_ordinal_++;
}

void ExecContext::RequestCancel(const Status& cause) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!cancelled_.load(std::memory_order_relaxed)) {
    cancel_cause_ = cause.ok() ? Status::Aborted("execution cancelled")
                               : cause;
    cancelled_.store(true, std::memory_order_release);
  }
}

Status ExecContext::cancel_cause() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cancelled_.load(std::memory_order_relaxed) ? cancel_cause_
                                                    : Status::OK();
}

int ExecContext::ThreadOrdinal() {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] =
      thread_ordinals_.emplace(std::this_thread::get_id(), next_ordinal_);
  if (inserted) ++next_ordinal_;
  return it->second;
}

void ExecContext::RecordPhase(PhaseStats phase) {
  std::lock_guard<std::mutex> lock(mu_);
  phase_io_total_ += phase.io;
  phases_.push_back(std::move(phase));
}

std::vector<PhaseStats> ExecContext::TakePhases() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(phases_);
}

IoStats ExecContext::AttributedTotal() const {
  IoStats total = root_attribution_.Snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  total += phase_io_total_;
  return total;
}

PhaseScope::PhaseScope(ExecContext* ctx, std::string name, std::string parent)
    : ctx_(ctx),
      name_(std::move(name)),
      parent_(std::move(parent)),
      begin_nanos_(MonotonicNanos()),
      thread_id_(ctx->ThreadOrdinal()),
      io_scope_(&attribution_) {
  // Publish the phase to the live statement row (sys.statements). Plain
  // registry memory — never the DiskManager — so simulated I/O stays
  // bit-identical with the observability plane on or off.
  if (ctx_->statement_id() != 0) {
    obs::StatementRegistry::Global().SetPhase(ctx_->statement_id(), name_);
  }
  if (ctx_->db() != nullptr) {
    const auto& hook = ctx_->db()->options().phase_begin_hook;
    if (hook) hook(name_);
  }
}

PhaseScope::~PhaseScope() {
  const int64_t end_nanos = MonotonicNanos();
  obs::TraceRecorder::Global().RecordComplete(
      obs::TraceCategory::kPhase, name_, begin_nanos_, end_nanos, "items",
      static_cast<int64_t>(items_), parent_);
  PhaseStats stats;
  stats.name = std::move(name_);
  stats.parent = std::move(parent_);
  stats.items = items_;
  stats.begin_micros = (begin_nanos_ - ctx_->epoch_nanos()) / 1000;
  stats.end_micros = (end_nanos - ctx_->epoch_nanos()) / 1000;
  stats.wall_micros = stats.end_micros - stats.begin_micros;
  stats.thread_id = thread_id_;
  stats.io = attribution_.Snapshot();
  ctx_->RecordPhase(std::move(stats));
}

}  // namespace bulkdel
