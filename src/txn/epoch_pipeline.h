#ifndef COMPLYDB_TXN_EPOCH_PIPELINE_H_
#define COMPLYDB_TXN_EPOCH_PIPELINE_H_

// Epoch-based multi-writer commit pipeline.
//
// The serial engine admits one transaction at a time; this pipeline lets N
// worker threads drive it concurrently while keeping the compliance log L
// byte-deterministic. The mechanism is a *ticket turnstile* over driver
// slots:
//
//   * A worker reserves a ticket (monotone counter), prepares its slot's
//     input off-line (rng draws, mix type — nothing shared), then blocks
//     in OpenSlot until the turnstile admits its ticket.
//   * Inside an open slot the worker owns the whole engine: it may run
//     several Begin/Commit cycles (TPC-C Delivery commits one transaction
//     per district) plus raw reads, exactly as a serial caller would.
//     Every L append — STAMP_TRANS, page diffs from evictions, abort
//     records, regret-tick heartbeats — therefore happens at a point that
//     is a pure function of the slot sequence, never of thread timing.
//   * Commits inside a slot are *sequenced but not yet durable*: the
//     compliance observer appends the STAMP_TRANS under its own mutex and
//     returns the L offset (CommitObserver::OnCommitQueued); the WORM
//     round trip is deferred.
//   * CloseSlot releases the turnstile first, then waits for the *epoch
//     durability barrier* covering the slot's highest L offset. The wait
//     overlaps with the next slots' engine work on other threads — that
//     overlap is the entire speedup; the engine itself stays serial.
//
// One thread in the barrier becomes the epoch leader and runs a single
// WORM flush through the highest pending offset; every slot that closed
// inside the window rides the same barrier (one filer round trip per
// epoch, not per transaction).
//
// The per-transaction WAL flush is NOT deferred: the paper's §IV-B
// ordering (commit durable before the logger learns of it) must hold per
// transaction, or a crash between an epoch-pending STAMP made durable by
// a page-write barrier and its WAL commit record would make the auditor
// see a stamped-but-aborted transaction — indistinguishable from
// tampering.
//
// Partition latches (per tree id) are acquired on first write inside a
// slot and released at CloseSlot. Under the turnstile they are
// uncontended; they are the safety fence backing the disjoint-slot
// scheduler, and their acquire/wait counters make any contention visible.
//
// With the disjoint-slot scheduler enabled (EnableScheduler), slots that
// declare a single-partition footprint may *execute* before the turnstile
// admits them: BeginExecute blocks only until every earlier unreleased
// ticket is footprint-disjoint, the body runs against a SlotWriteBuffer
// (ExecBuffer routes the engine's Begin/Put/Delete/Get there), and the
// buffered ops are replayed through the real engine once OpenSlot admits
// the ticket. Engine mutation therefore stays serial and in ticket order
// — only the read-mostly execute phases overlap — which is what keeps L
// byte-identical at any thread count. See src/txn/slot_scheduler.h.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "txn/slot_scheduler.h"

namespace complydb {

class SlotWriteBuffer;

class CommitPipeline {
 public:
  /// Epoch durability barrier: make the compliance log durable through
  /// `offset`. Must be thread-safe and must not require the turnstile
  /// (CompliantDB wires ComplianceLogger::WaitCommitDurable, which rides
  /// ComplianceLog's coalescing FlushThrough). May be empty when
  /// compliance is disabled — epoch waits then no-op.
  using BarrierFn = std::function<Status(uint64_t offset)>;

  explicit CommitPipeline(BarrierFn barrier);
  ~CommitPipeline();

  CommitPipeline(const CommitPipeline&) = delete;
  CommitPipeline& operator=(const CommitPipeline&) = delete;

  /// Reserves the next slot ticket. Tickets are admitted strictly in
  /// reservation order; every reserved ticket must eventually be passed
  /// to OpenSlot or Abandon, or the turnstile stalls. Registers the
  /// ticket as exclusive-admission when the scheduler is enabled.
  uint64_t ReserveTicket();

  /// Reserves a ticket with a declared footprint class (scheduler mode).
  /// Registration is atomic with ticket issuance, so a later ticket's
  /// admission wait always sees this reservation.
  uint64_t ReserveTicket(SlotScheduler::Admission admission,
                         uint64_t partition);

  /// Turns on disjoint-slot scheduling. Must be called before the first
  /// reservation (not thread-safe against in-flight slots).
  void EnableScheduler();
  SlotScheduler* scheduler() const { return scheduler_.get(); }

  /// Scheduler execute phase: blocks until `ticket` is admissible (every
  /// earlier unreleased ticket disjoint), then routes this thread's
  /// engine calls to `buf` until EndExecute. Only concurrent-class
  /// tickets call this; exclusive tickets go straight to OpenSlot.
  void BeginExecute(uint64_t ticket, SlotWriteBuffer* buf);
  void EndExecute();

  /// The execute-phase staging buffer of the calling thread, or nullptr
  /// outside an execute phase (TransactionManager routes through this).
  SlotWriteBuffer* ExecBuffer() const;

  /// Blocks until the turnstile admits `ticket`, then marks the calling
  /// thread as the open slot's owner. The admission wait is recorded as
  /// db.commit_critical_path.sequence_us and a commit.sequence span.
  /// `implicit` tags slots opened by a bare Begin (closed by Commit or
  /// Abort) as opposed to explicit RunWriteSlot bodies.
  void OpenSlot(uint64_t ticket, bool implicit);

  /// Releases the slot's partition latches and the turnstile, then waits
  /// for the epoch durability barrier covering the slot's highest noted
  /// L offset. Returns the barrier's status.
  Status CloseSlot();

  /// Gives up a reserved ticket that will never open (driver error
  /// paths). Non-blocking; the turnstile skips it.
  void Abandon(uint64_t ticket);

  /// True when the calling thread owns an open slot of THIS pipeline.
  bool InSlot() const;
  /// True when the open slot was opened implicitly by Begin.
  bool InImplicitSlot() const;

  /// Called by TransactionManager::Commit after OnCommitQueued: the L
  /// offset this slot must make durable before CloseSlot returns.
  void NoteCommitOffset(uint64_t offset);

  /// Acquires (idempotently, for the life of the slot) the write latch
  /// of partition `tree_id`. No-op when the caller holds no slot.
  void AcquirePartitionLatch(uint32_t tree_id);

  /// Slots reserved but not yet fully closed (includes slots waiting on
  /// their epoch barrier). Audit uses this for its quiescence check.
  uint64_t in_flight() const {
    return reserved_.load(std::memory_order_acquire) -
           completed_.load(std::memory_order_acquire);
  }

  /// Epochs flushed so far (leader barrier runs).
  uint64_t epochs() const { return epoch_seq_.load(std::memory_order_relaxed); }

  /// Post-barrier hook, run by the epoch leader after its barrier
  /// succeeded, outside every pipeline lock, with the L offset the
  /// barrier made durable. CompliantDB wires the epoch sealer here so
  /// each durable commit epoch becomes a sealed audit epoch. Must be set
  /// before the first commit (not thread-safe against in-flight slots)
  /// and must never fail the commit — the hook returns nothing.
  using SealFn = std::function<void(uint64_t offset)>;
  void set_seal_fn(SealFn fn) { seal_ = std::move(fn); }

 private:
  struct SlotContext;
  static SlotContext& Tls();

  /// Blocks until L is durable through `offset` (epoch coordinator: one
  /// leader flush per window, members ride it).
  Status WaitEpochDurable(uint64_t offset);

  BarrierFn barrier_;
  SealFn seal_;
  std::unique_ptr<SlotScheduler> scheduler_;

  // --- turnstile ---
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t next_ticket_ = 0;
  uint64_t next_to_admit_ = 0;
  std::set<uint64_t> abandoned_;
  std::atomic<uint64_t> reserved_{0};
  std::atomic<uint64_t> completed_{0};

  // --- partition latches (tree id -> mutex) ---
  std::mutex latch_table_mu_;
  std::unordered_map<uint32_t, std::unique_ptr<std::mutex>> latches_;

  // --- epoch coordinator ---
  std::mutex epoch_mu_;
  std::condition_variable epoch_cv_;
  uint64_t pending_target_ = 0;  // highest offset any slot wants durable
  uint64_t durable_target_ = 0;  // highest offset known durable
  bool leader_active_ = false;
  std::atomic<uint64_t> epoch_seq_{0};
  std::atomic<uint64_t> commits_in_window_{0};
  Status epoch_status_;  // sticky first barrier failure
};

}  // namespace complydb

#endif  // COMPLYDB_TXN_EPOCH_PIPELINE_H_
