#include "db/snapshot_reader.h"

#include <vector>

#include "db/compliant_db.h"
#include "obs/metrics.h"

namespace complydb {

namespace {
struct SnapMetrics {
  obs::Counter* begins;
  obs::Counter* reads;
  obs::Gauge* open_snapshots;
  obs::Histogram* get_us;
  obs::Histogram* scan_us;
  SnapMetrics() {
    auto& reg = obs::MetricsRegistry::Global();
    begins = reg.GetCounter("db.snapshot.begins");
    reads = reg.GetCounter("db.snapshot.reads");
    open_snapshots = reg.GetGauge("db.open_snapshots");
    get_us = reg.GetHistogram("db.snapshot.get_us");
    scan_us = reg.GetHistogram("db.snapshot.scan_us");
  }
};
SnapMetrics& Sm() {
  static SnapMetrics m;
  return m;
}
}  // namespace

SnapshotReader::SnapshotReader(CompliantDB* db, TransactionManager* txns,
                               HistoricalStore* hist, uint64_t snap,
                               std::atomic<int>* open_count)
    : db_(db), txns_(txns), hist_(hist), snap_(snap),
      open_count_(open_count) {
  open_count_->fetch_add(1, std::memory_order_acq_rel);
  Sm().begins->Inc();
  Sm().open_snapshots->Add(1);
}

SnapshotReader::~SnapshotReader() {
  open_count_->fetch_sub(1, std::memory_order_acq_rel);
  Sm().open_snapshots->Add(-1);
}

bool SnapshotReader::ResolveVisible(const TupleData& v, uint64_t limit,
                                    uint64_t* commit) const {
  if (v.stamped) {
    *commit = v.start;
  } else {
    // Unstamped: start is a txn id. Committed ids resolve to a commit
    // time (the entry is published before last_commit_time advances);
    // the writer's in-flight txn resolves to nothing and stays invisible.
    auto r = txns_->ResolveCommitTime(v.start);
    if (!r.ok()) return false;
    *commit = r.value();
  }
  return *commit <= limit;
}

Status SnapshotReader::Get(uint32_t table, Slice key,
                           std::string* value) const {
  return GetAsOf(table, key, snap_, value);
}

// A snapshot read is never part of the writer's transaction, so each call
// passes the read barrier itself right after its page reads: their
// hash-on-read records are durable before the answer is.
Status SnapshotReader::GetAsOf(uint32_t table, Slice key, uint64_t time,
                               std::string* value) const {
  obs::ScopedLatencyTimer timer(Sm().get_us);
  uint64_t limit = std::min(time, snap_);
  Btree* tree = txns_->GetTree(table);
  if (tree == nullptr) return Status::InvalidArgument("unknown table");
  Sm().reads->Inc();
  // Live tree first, then WORM-migrated history: a time split can move
  // the visible version between the two mid-read, but it cannot remove it
  // from both, and a double sighting picks the same version either way
  // (versions are unique by start).
  std::vector<TupleData> versions;
  CDB_RETURN_IF_ERROR(db_->ReadBarrier(tree->GetVersions(key, &versions)));
  if (hist_ != nullptr) {
    for (auto& h : hist_->GetVersions(table, key)) {
      versions.push_back(std::move(h));
    }
  }
  const TupleData* best = nullptr;
  uint64_t best_time = 0;
  for (const auto& v : versions) {
    uint64_t commit;
    if (!ResolveVisible(v, limit, &commit)) continue;
    if (best == nullptr || commit >= best_time) {
      best = &v;
      best_time = commit;
    }
  }
  if (best == nullptr || best->eol) {
    return Status::NotFound("no version as of time");
  }
  *value = best->value;
  return Status::OK();
}

Status SnapshotReader::GetWithProof(uint32_t table, Slice key,
                                    std::string* value, uint64_t* commit_time,
                                    InclusionProof* proof) const {
  obs::ScopedLatencyTimer timer(Sm().get_us);
  Btree* tree = txns_->GetTree(table);
  if (tree == nullptr) return Status::InvalidArgument("unknown table");
  Sm().reads->Inc();
  // Same version pick as GetAsOf, but the winning commit time is kept:
  // the proof binds (key, value, commit time) as one unit.
  std::vector<TupleData> versions;
  CDB_RETURN_IF_ERROR(db_->ReadBarrier(tree->GetVersions(key, &versions)));
  if (hist_ != nullptr) {
    for (auto& h : hist_->GetVersions(table, key)) {
      versions.push_back(std::move(h));
    }
  }
  const TupleData* best = nullptr;
  uint64_t best_time = 0;
  for (const auto& v : versions) {
    uint64_t commit;
    if (!ResolveVisible(v, snap_, &commit)) continue;
    if (best == nullptr || commit >= best_time) {
      best = &v;
      best_time = commit;
    }
  }
  if (best == nullptr || best->eol) {
    return Status::NotFound("no version as of time");
  }
  auto proven = db_->ProveInclusion(table, best->key, best->value, best_time);
  if (!proven.ok()) return proven.status();
  *value = best->value;
  *commit_time = best_time;
  *proof = proven.TakeValue();
  return Status::OK();
}

Status SnapshotReader::ScanCurrent(
    uint32_t table, Slice begin, Slice end,
    const std::function<Status(const TupleData&)>& fn) const {
  obs::ScopedLatencyTimer timer(Sm().scan_us);
  Btree* tree = txns_->GetTree(table);
  if (tree == nullptr) return Status::InvalidArgument("unknown table");
  Sm().reads->Inc();

  // The live-tree scan drives key discovery (a time split always leaves
  // each key's newest version live, so no key vanishes entirely); per key
  // the historical store is merged in before picking the visible version.
  std::string cur_key;
  bool has_key = false;
  bool stop = false;
  std::vector<TupleData> group;

  auto flush = [&]() -> Status {
    if (!has_key) return Status::OK();
    has_key = false;
    if (hist_ != nullptr) {
      for (auto& h : hist_->GetVersions(table, cur_key)) {
        group.push_back(std::move(h));
      }
    }
    const TupleData* best = nullptr;
    uint64_t best_time = 0;
    for (const auto& v : group) {
      uint64_t commit;
      if (!ResolveVisible(v, snap_, &commit)) continue;
      if (best == nullptr || commit >= best_time) {
        best = &v;
        best_time = commit;
      }
    }
    Status s = Status::OK();
    if (best != nullptr && !best->eol) {
      s = fn(*best);
      if (s.IsBusy()) {  // early-stop sentinel, as in ScanRangeCurrent
        stop = true;
        s = Status::OK();
      }
    }
    group.clear();
    return s;
  };

  CDB_RETURN_IF_ERROR(db_->ReadBarrier(
      tree->ScanVersionsInRange(begin, end, [&](const TupleData& t) -> Status {
        if (has_key && t.key != cur_key) {
          CDB_RETURN_IF_ERROR(flush());
          if (stop) return Status::Busy("stop");
        }
        cur_key = t.key;
        has_key = true;
        group.push_back(t);
        return Status::OK();
      })));
  if (stop) return Status::OK();
  return flush();
}

}  // namespace complydb
