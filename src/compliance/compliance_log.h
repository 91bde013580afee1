#ifndef COMPLYDB_COMPLIANCE_COMPLIANCE_LOG_H_
#define COMPLYDB_COMPLIANCE_COMPLIANCE_LOG_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "compliance/records.h"
#include "worm/worm_store.h"

namespace complydb {

/// Naming scheme for the per-epoch WORM files. An epoch is the span
/// between two audits; audit n verifies (snapshot_n, L_n) and produces
/// snapshot_{n+1}, after which epoch n+1 begins.
std::string LogFileName(uint64_t epoch);
std::string StampIndexFileName(uint64_t epoch);
std::string SnapshotFileName(uint64_t epoch);
std::string WitnessFileName(uint64_t epoch, uint64_t seq);
std::string TxTailFileName(uint64_t epoch, uint64_t seq);
std::string HistPageFileName(uint32_t tree_id, uint64_t seq);

struct ComplianceLogOptions {
  /// Rebuild a missing stamp-index tail from L's STAMP_TRANS records on
  /// OpenExisting. The index's durability is lazy (it rides the log's
  /// drain unflushed), so a crash can lose index entries whose records
  /// are on L; reconciliation reconstructs them byte-for-byte. Off for
  /// read-only consumers (the auditor tolerates a short index).
  bool repair_stamp_index = false;
};

/// Append/scan access to one epoch's compliance log L on WORM.
///
/// Appends encode records into an in-memory tail (two coalesced byte
/// buffers: one for L, one for the stamp index). The tail reaches WORM only
/// at a durability barrier — FlushThrough/Flush, a Scan, or an append that
/// leaves more than kMaxPendingBytes unshipped — and the thread that hits
/// the barrier drains it inline: one AppendUnflushed per file plus one
/// fflush for everything accumulated since the previous drain. A
/// `draining_` flag admits one drainer at a time, so bytes reach WORM in
/// append order and L is identical however the barriers fall; only *when*
/// a record becomes durable moves.
///
/// Offsets are logical L offsets: size() is the end of everything
/// appended, durable_offset() the end of everything fflushed. A barrier
/// at offset X returns once durable_offset() >= X.
///
/// Thread-safe. Appends come from one logical writer (the compliance
/// logger, under its own mutex); barriers may come from any thread — the
/// commit pipeline's epoch leader waits without the logger mutex while
/// page-write barriers and appends continue.
///
/// Destruction drops the tail, exactly as a crash would. Callers that want
/// a clean shutdown issue Flush() first.
///
/// The auxiliary stamp index (paper §IV-A) records, for every STAMP_TRANS,
/// the transaction id, its offset in L, and the commit time, letting the
/// auditor build its txn-id -> commit-time table without a preliminary
/// pass over the full log.
class ComplianceLog {
 public:
  /// An append that leaves more than this many bytes unshipped drains
  /// inline. Without the bound, the READ_HASH records of a long
  /// transaction, which wait for its commit barrier, would grow without
  /// limit.
  static constexpr uint64_t kMaxPendingBytes = 1ull << 20;

  ComplianceLog(WormStore* worm, uint64_t epoch,
                ComplianceLogOptions opts = ComplianceLogOptions{});

  ComplianceLog(const ComplianceLog&) = delete;
  ComplianceLog& operator=(const ComplianceLog&) = delete;

  /// Creates the epoch's L and stamp-index files (must not exist).
  Status Create();

  /// Opens existing files, positioning the append offset.
  Status OpenExisting();

  /// AppendUnflushed + Flush.
  Status Append(const CRecord& rec);

  /// Encodes the record into the tail. It is "on WORM" only once a
  /// barrier covers it.
  Status AppendUnflushed(const CRecord& rec);

  /// Full barrier: everything appended so far is durable on return.
  Status Flush();

  /// Durability barrier up to a logical L offset: returns once every byte
  /// below `offset` is durable on WORM, draining the tail inline unless
  /// another thread's drain already covers it. Returns the sticky error of
  /// a failed drain — compliance logging cannot continue past a WORM
  /// outage.
  Status FlushThrough(uint64_t offset);

  /// Bytes appended so far (the next record's offset).
  uint64_t size() const;
  /// Bytes known durable on WORM.
  uint64_t durable_offset() const;
  /// L + stamp-index bytes encoded but not yet handed to WORM.
  uint64_t pending_bytes() const;
  uint64_t record_count() const;
  uint64_t epoch() const { return epoch_; }

  /// Scans this epoch's records in order (drains the tail first, so the
  /// scan sees every append).
  Status Scan(const std::function<Status(const CRecord&, uint64_t)>& fn);

  /// Scans the stamp index: fn(txn_id, offset_in_L, commit_time).
  Status ScanStampIndex(
      const std::function<Status(TxnId, uint64_t, uint64_t)>& fn);

  WormStore* worm() const { return worm_; }

 private:
  Status RepairStampIndex();
  Status FlushThroughLocked(std::unique_lock<std::mutex>& lock,
                            uint64_t offset);
  /// Swaps out the tail and ships it. Caller holds `lock` and has checked
  /// `!draining_`; the lock is released during the WORM I/O and re-held on
  /// return.
  void DrainLocked(std::unique_lock<std::mutex>& lock);

  WormStore* const worm_;
  const uint64_t epoch_;
  const ComplianceLogOptions opts_;
  const std::string log_file_;
  const std::string index_file_;

  mutable std::mutex mu_;
  std::condition_variable durable_cv_;  // signals barrier waiters
  std::string pending_log_;
  std::string pending_index_;
  uint64_t pending_records_ = 0;
  uint64_t size_ = 0;            // end offset of everything appended
  uint64_t durable_offset_ = 0;  // end offset of everything flushed
  uint64_t record_count_ = 0;
  uint64_t batch_seq_ = 0;       // drains so far; the span causal key
  bool draining_ = false;        // a barrier is mid-ship
  Status error_;
};

}  // namespace complydb

#endif  // COMPLYDB_COMPLIANCE_COMPLIANCE_LOG_H_
