#include "compliance/compliance_log.h"

#include <cinttypes>
#include <cstdio>

#include "common/coding.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace complydb {

namespace {
std::string PadNum(uint64_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%08" PRIu64, n);
  return buf;
}

struct ShipperMetrics {
  obs::Gauge* queue_depth;
  obs::Counter* flushes;
  obs::Counter* shipped_bytes;
  obs::Histogram* records_per_flush;
  ShipperMetrics() {
    auto& reg = obs::MetricsRegistry::Global();
    queue_depth = reg.GetGauge("compliance.shipper.queue_depth");
    flushes = reg.GetCounter("compliance.shipper.flushes");
    shipped_bytes = reg.GetCounter("compliance.shipper.shipped_bytes");
    records_per_flush = reg.GetHistogram("compliance.shipper.records_per_flush");
  }
};
ShipperMetrics& Sm() {
  static ShipperMetrics m;
  return m;
}

std::string StampIndexEntry(TxnId txn_id, uint64_t offset,
                            uint64_t commit_time) {
  std::string entry;
  PutFixed64(&entry, txn_id);
  PutFixed64(&entry, offset);
  PutFixed64(&entry, commit_time);
  return entry;
}
}  // namespace

std::string LogFileName(uint64_t epoch) { return "L_" + PadNum(epoch); }
std::string StampIndexFileName(uint64_t epoch) {
  return "Lidx_" + PadNum(epoch);
}
std::string SnapshotFileName(uint64_t epoch) {
  return "snapshot_" + PadNum(epoch);
}
std::string WitnessFileName(uint64_t epoch, uint64_t seq) {
  return "witness_" + PadNum(epoch) + "_" + PadNum(seq);
}
std::string TxTailFileName(uint64_t epoch, uint64_t seq) {
  return "txtail_" + PadNum(epoch) + "_" + PadNum(seq);
}
std::string HistPageFileName(uint32_t tree_id, uint64_t seq) {
  return "hist_" + PadNum(tree_id) + "_" + PadNum(seq);
}

ComplianceLog::ComplianceLog(WormStore* worm, uint64_t epoch,
                             ComplianceLogOptions opts)
    : worm_(worm),
      epoch_(epoch),
      opts_(opts),
      log_file_(LogFileName(epoch)),
      index_file_(StampIndexFileName(epoch)) {}

Status ComplianceLog::Create() {
  CDB_RETURN_IF_ERROR(worm_->Create(log_file_, 0));
  CDB_RETURN_IF_ERROR(worm_->Create(index_file_, 0));
  return Status::OK();
}

Status ComplianceLog::OpenExisting() {
  auto info = worm_->GetInfo(log_file_);
  if (!info.ok()) return info.status();
  if (opts_.repair_stamp_index) {
    CDB_RETURN_IF_ERROR(RepairStampIndex());
  }
  // Count records (cheap single pass; also validates framing).
  uint64_t records = 0;
  std::string blob;
  CDB_RETURN_IF_ERROR(worm_->ReadAll(log_file_, &blob));
  CDB_RETURN_IF_ERROR(ScanCRecords(blob, [&](const CRecord&, uint64_t) {
    ++records;
    return Status::OK();
  }));
  std::lock_guard<std::mutex> lock(mu_);
  size_ = info.value().size;
  durable_offset_ = size_;
  record_count_ = records;
  return Status::OK();
}

// The stamp index is a derived structure: every entry is computable from
// L alone. Its bytes ride the log's drain unflushed (lazy durability), so
// a crash can leave it short of L. Reappend the missing suffix here; the
// entries are reconstructed byte-for-byte, so a later audit sees the same
// index a crash-free run would have produced.
Status ComplianceLog::RepairStampIndex() {
  if (!worm_->Exists(index_file_)) {
    // Lost in the Create window (L created, index not yet); recreate.
    CDB_RETURN_IF_ERROR(worm_->Create(index_file_, 0));
  }
  std::string idx_blob;
  CDB_RETURN_IF_ERROR(worm_->ReadAll(index_file_, &idx_blob));
  if (idx_blob.size() % 24 != 0) {
    // Torn trailing entry would need truncation, which WORM forbids; the
    // auditor reports it. Do not mask by appending after garbage.
    return Status::OK();
  }
  uint64_t have = idx_blob.size() / 24;
  std::string log_blob;
  CDB_RETURN_IF_ERROR(worm_->ReadAll(log_file_, &log_blob));
  uint64_t seen = 0;
  std::string missing;
  CDB_RETURN_IF_ERROR(
      ScanCRecords(log_blob, [&](const CRecord& rec, uint64_t offset) {
        if (rec.type == CRecordType::kStampTrans && ++seen > have) {
          missing += StampIndexEntry(rec.txn_id, offset, rec.commit_time);
        }
        return Status::OK();
      }));
  if (missing.empty()) return Status::OK();
  return worm_->Append(index_file_, missing);
}

Status ComplianceLog::AppendUnflushed(const CRecord& rec) {
  std::string framed = rec.Encode();
  std::unique_lock<std::mutex> lock(mu_);
  CDB_RETURN_IF_ERROR(error_);
  if (rec.type == CRecordType::kStampTrans) {
    // The index entry rides the same drain as its STAMP_TRANS, so a commit
    // costs one flush, not two.
    pending_index_ += StampIndexEntry(rec.txn_id, size_, rec.commit_time);
  }
  pending_log_ += framed;
  size_ += framed.size();
  ++record_count_;
  ++pending_records_;
  Sm().queue_depth->Set(static_cast<int64_t>(pending_records_));
  if (pending_log_.size() + pending_index_.size() > kMaxPendingBytes) {
    return FlushThroughLocked(lock, size_);
  }
  return Status::OK();
}

Status ComplianceLog::Append(const CRecord& rec) {
  CDB_RETURN_IF_ERROR(AppendUnflushed(rec));
  return Flush();
}

Status ComplianceLog::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  return FlushThroughLocked(lock, size_);
}

Status ComplianceLog::FlushThrough(uint64_t offset) {
  std::unique_lock<std::mutex> lock(mu_);
  return FlushThroughLocked(lock, offset);
}

Status ComplianceLog::FlushThroughLocked(std::unique_lock<std::mutex>& lock,
                                         uint64_t offset) {
  if (offset > size_) offset = size_;
  while (durable_offset_ < offset && error_.ok()) {
    if (draining_) {
      // Another barrier's drain is in flight; wait for it to land, then
      // re-check — it may not have covered our offset. For a committing
      // thread this wait is the "queued" segment of its critical path.
      const bool spans = obs::SpansEnabled();
      const uint64_t wait_start = spans ? obs::MonotonicMicros() : 0;
      durable_cv_.wait(lock, [&] {
        return !draining_ || durable_offset_ >= offset || !error_.ok();
      });
      if (spans) {
        obs::RecordQueuedInterval(wait_start, obs::MonotonicMicros());
      }
      continue;
    }
    DrainLocked(lock);
  }
  return error_;
}

void ComplianceLog::DrainLocked(std::unique_lock<std::mutex>& lock) {
  draining_ = true;
  std::string log_bytes;
  std::string index_bytes;
  log_bytes.swap(pending_log_);
  index_bytes.swap(pending_index_);
  const uint64_t end = size_;
  const uint64_t records = pending_records_;
  const uint64_t batch = ++batch_seq_;
  pending_records_ = 0;
  Sm().queue_depth->Set(0);
  lock.unlock();

  // Span attribution: a drain on a committing thread lands in its
  // commit.drain / commit.worm_flush segments; any other drain (a page
  // write-out, a tick, the pending-bytes bound) is emitted as shipper.*
  // spans keyed by the batch id.
  const bool spans = obs::SpansEnabled();
  const uint64_t t_drain = spans ? obs::MonotonicMicros() : 0;
  Status s = worm_->AppendUnflushed(log_file_, log_bytes);
  if (s.ok() && !index_bytes.empty()) {
    // The index is never the flush target: its durability is lazy
    // (RepairStampIndex reconciles it on reopen), so a commit pays exactly
    // one fflush.
    s = worm_->AppendUnflushed(index_file_, index_bytes);
  }
  const uint64_t t_flush = spans ? obs::MonotonicMicros() : 0;
  if (s.ok()) s = worm_->FlushAppends(log_file_);
  if (spans) {
    obs::RecordDrainInterval(t_drain, t_flush,
                             log_bytes.size() + index_bytes.size(), batch);
    obs::RecordWormFlushInterval(t_flush, obs::MonotonicMicros(), batch);
  }
  if (s.ok()) {
    Sm().flushes->Inc();
    Sm().shipped_bytes->Inc(log_bytes.size() + index_bytes.size());
    Sm().records_per_flush->Record(records);
  }

  lock.lock();
  draining_ = false;
  if (s.ok()) {
    durable_offset_ = end;
  } else {
    error_ = s;
  }
  durable_cv_.notify_all();
}

uint64_t ComplianceLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_;
}

uint64_t ComplianceLog::durable_offset() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_offset_;
}

uint64_t ComplianceLog::pending_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_log_.size() + pending_index_.size();
}

uint64_t ComplianceLog::record_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return record_count_;
}

Status ComplianceLog::Scan(
    const std::function<Status(const CRecord&, uint64_t)>& fn) {
  CDB_RETURN_IF_ERROR(Flush());
  std::string blob;
  CDB_RETURN_IF_ERROR(worm_->ReadAll(log_file_, &blob));
  return ScanCRecords(blob, fn);
}

Status ComplianceLog::ScanStampIndex(
    const std::function<Status(TxnId, uint64_t, uint64_t)>& fn) {
  CDB_RETURN_IF_ERROR(Flush());
  std::string blob;
  CDB_RETURN_IF_ERROR(worm_->ReadAll(index_file_, &blob));
  if (blob.size() % 24 != 0) {
    return Status::Corruption("stamp index size not a multiple of 24");
  }
  for (size_t off = 0; off < blob.size(); off += 24) {
    TxnId txn = DecodeFixed64(blob.data() + off);
    uint64_t l_off = DecodeFixed64(blob.data() + off + 8);
    uint64_t commit = DecodeFixed64(blob.data() + off + 16);
    CDB_RETURN_IF_ERROR(fn(txn, l_off, commit));
  }
  return Status::OK();
}

}  // namespace complydb
