// Buffered compliance-log shipping: determinism, crash windows, the read
// barrier, and the pending-tail bound.
//
// Records are encoded into ComplianceLog's in-memory tail and reach WORM
// only at the durability barriers (page write-out, commit/abort/tick/
// shred/migrate/new-tree/recovery, the end of a read outside any
// transaction, any read of L) or when the tail passes
// ComplianceLog::kMaxPendingBytes. The first test proves that where the
// drains fall never changes L's bytes. The crash tests kill the database
// (destructor without Close) at each interesting point relative to the
// barriers: inside a transaction with read hashes still pending, after
// evictions forced the dependent-pwrite barrier, right after a commit
// barrier, and after a read of a tampered page returned.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adversary/mala.h"
#include "compliance/compliance_log.h"
#include "db/compliant_db.h"
#include "db/snapshot_reader.h"

namespace complydb {
namespace {

constexpr uint64_t kMinute = 60ull * 1'000'000;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

class AsyncShippingTest : public ::testing::Test {
 protected:
  DbOptions MakeOptions(const std::string& dir, size_t cache_pages = 32) {
    DbOptions opts;
    opts.dir = dir;
    opts.cache_pages = cache_pages;
    opts.clock = clock_.get();
    opts.compliance.enabled = true;
    opts.compliance.regret_interval_micros = 5 * kMinute;
    return opts;
  }

  std::unique_ptr<CompliantDB> Open(const DbOptions& opts) {
    auto r = CompliantDB::Open(opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::unique_ptr<CompliantDB>(r.ok() ? r.value() : nullptr);
  }

  std::string FreshDir(const std::string& name) {
    std::string dir = ::testing::TempDir() + "/log_ship_" + name;
    std::filesystem::remove_all(dir);
    return dir;
  }

  static ComplianceLog* Log(CompliantDB* db) {
    return db->compliance_logger()->log();
  }

  std::unique_ptr<SimulatedClock> clock_ =
      std::make_unique<SimulatedClock>();
};

// Runs a fixed mixed workload: single puts, multi-key transactions, an
// abort, deletes, and clock advances that trigger regret-interval forcing
// (dirty-page write-out exercises the pwrite barrier mid-workload).
// `after_op` runs after every operation.
void RunWorkload(CompliantDB* db, uint32_t table,
                 const std::function<void()>& after_op) {
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 25; ++i) {
      auto txn = db->Begin();
      ASSERT_TRUE(txn.ok());
      std::string key = "key" + std::to_string((round * 25 + i) % 40);
      std::string value(40 + (i * 7) % 120, static_cast<char>('a' + i % 26));
      ASSERT_TRUE(db->Put(txn.value(), table, key, value).ok());
      after_op();
      ASSERT_TRUE(db->Commit(txn.value()).ok());
      after_op();
      std::string read;
      Status got = db->Get(table, "key" + std::to_string(i * 3 % 40), &read);
      ASSERT_TRUE(got.ok() || got.IsNotFound()) << got.ToString();
      after_op();
    }
    {
      auto txn = db->Begin();
      ASSERT_TRUE(txn.ok());
      for (int i = 0; i < 5; ++i) {
        std::string key = "multi" + std::to_string(round * 5 + i);
        ASSERT_TRUE(db->Put(txn.value(), table, key, "batch").ok());
        after_op();
      }
      if (round % 2 == 0) {
        ASSERT_TRUE(db->Commit(txn.value()).ok());
      } else {
        ASSERT_TRUE(db->Abort(txn.value()).ok());
      }
      after_op();
    }
    if (round >= 2) {
      auto txn = db->Begin();
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE(
          db->Delete(txn.value(), table, "key" + std::to_string(round)).ok());
      after_op();
      ASSERT_TRUE(db->Commit(txn.value()).ok());
      after_op();
    }
    ASSERT_TRUE(db->AdvanceClock(6 * kMinute).ok());
    after_op();
  }
}

// A drain only moves *when* bytes become durable, never which bytes: L
// and (after a clean close) the stamp index are byte-identical whether
// FlushLog() runs after every operation or drains happen only at the
// barriers.
TEST_F(AsyncShippingTest, LogBytesIdenticalFlushEveryOpVsBarrierOnly) {
  std::string contents[2][2];  // [arm][L, Lidx]
  for (int arm = 0; arm < 2; ++arm) {
    const bool flush_every_op = arm == 0;
    std::string dir = FreshDir(flush_every_op ? "det_every_op" : "det_barrier");
    clock_ = std::make_unique<SimulatedClock>();  // identical stamps per run
    DbOptions opts = MakeOptions(dir, /*cache_pages=*/16);
    opts.compliance.hash_on_read = true;
    auto db = Open(opts);
    ASSERT_NE(db, nullptr);
    auto t = db->CreateTable("det");
    ASSERT_TRUE(t.ok());
    uint64_t pending_seen = 0;
    RunWorkload(db.get(), t.value(), [&] {
      if (flush_every_op) {
        ASSERT_TRUE(db->compliance_logger()->FlushLog().ok());
        ASSERT_EQ(Log(db.get())->pending_bytes(), 0u);
      } else {
        pending_seen += Log(db.get())->pending_bytes() > 0 ? 1 : 0;
      }
    });
    // The barrier-only arm really left records pending between operations.
    if (!flush_every_op) EXPECT_GT(pending_seen, 0u);
    ASSERT_TRUE(db->Close().ok());
    db.reset();
    contents[arm][0] = ReadFileBytes(dir + "/worm/" + LogFileName(0));
    contents[arm][1] = ReadFileBytes(dir + "/worm/" + StampIndexFileName(0));
  }
  ASSERT_FALSE(contents[0][0].empty());
  EXPECT_EQ(contents[0][0], contents[1][0]) << "L diverged";
  EXPECT_EQ(contents[0][1], contents[1][1]) << "Lidx diverged";
}

// Commits `n` keys "<prefix><i>" with 200-byte values, one per transaction.
void Seed(CompliantDB* db, uint32_t table, const std::string& prefix, int n) {
  for (int i = 0; i < n; ++i) {
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(db->Put(txn.value(), table, prefix + std::to_string(i),
                        std::string(200, 'x'))
                    .ok());
    ASSERT_TRUE(db->Commit(txn.value()).ok());
  }
}

// Crash window 1: kill inside a transaction whose reads left READ_HASH
// records in the tail, before any dependent pwrite. Clean-page evictions
// fire no barrier and the commit barrier never comes, so the crash loses
// records the engine had appended — the on-WORM size of L proves the
// window was real — yet the audit passes: the transaction never committed,
// and a lost READ_HASH of an unfinished transaction is indistinguishable
// from crashing before the read.
TEST_F(AsyncShippingTest, CrashWithRecordsPendingInRing) {
  std::string dir = FreshDir("ring");
  uint32_t table = 0;
  uint64_t appended = 0;
  {
    DbOptions opts = MakeOptions(dir, /*cache_pages=*/8);
    opts.compliance.hash_on_read = true;
    auto db = Open(opts);
    ASSERT_NE(db, nullptr);
    auto t = db->CreateTable("ring");
    ASSERT_TRUE(t.ok());
    table = t.value();
    Seed(db.get(), table, "seed", 300);
    // Quiesce: everything so far durable, all pages clean.
    ASSERT_TRUE(db->FlushAll().ok());
    // Cache misses on clean pages inside an open transaction: READ_HASH
    // records enter the tail and wait for the commit barrier.
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    std::string value;
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(db->Get(table, "seed" + std::to_string(i), &value).ok());
    }
    EXPECT_GT(Log(db.get())->pending_bytes(), 0u);
    appended = Log(db.get())->size();
    // Crash: destructor without Close drops the tail.
  }
  EXPECT_LT(std::filesystem::file_size(dir + "/worm/" + LogFileName(0)),
            appended);
  auto db = Open(MakeOptions(dir));
  ASSERT_NE(db, nullptr);
  EXPECT_TRUE(db->recovered_from_crash());
  std::string value;
  EXPECT_TRUE(db->Get(table, "seed3", &value).ok());
  auto report = db->Audit();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().ok())
      << "first problem: " << report.value().problems[0];
}

// Crash window 2: kill after dependent pwrites. The tiny cache evicts
// dirty pages throughout the storm, so the pwrite barrier repeatedly
// drains the tail (any page on disk has its records durable on WORM);
// the crash then takes the still-pending read hashes of an unfinished
// transaction.
// Committed data must survive and the audit must pass.
TEST_F(AsyncShippingTest, CrashAfterDependentPageWrites) {
  std::string dir = FreshDir("evict");
  uint32_t table = 0;
  {
    DbOptions opts = MakeOptions(dir, /*cache_pages=*/8);
    opts.compliance.hash_on_read = true;
    auto db = Open(opts);
    ASSERT_NE(db, nullptr);
    auto t = db->CreateTable("evict");
    ASSERT_TRUE(t.ok());
    table = t.value();
    // Steal/no-force: dirty pages from these commits get evicted and
    // pwritten while later records are still pending, exercising the
    // per-page barrier continuously.
    for (int i = 0; i < 200; ++i) {
      auto txn = db->Begin();
      ASSERT_TRUE(txn.ok());
      ASSERT_TRUE(db->Put(txn.value(), table,
                          "key" + std::to_string(i * 7919 % 1000),
                          std::string(120, 'c'))
                      .ok());
      ASSERT_TRUE(db->Commit(txn.value()).ok());
    }
    // A tail of READ_HASH records from a transaction that never reaches
    // its commit barrier.
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    std::string value;
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(
          db->Get(table, "key" + std::to_string(i * 7919 % 1000), &value)
              .ok());
    }
    EXPECT_GT(Log(db.get())->pending_bytes(), 0u);
    // Crash with evicted pages on disk and records pending in the tail.
  }
  auto db = Open(MakeOptions(dir));
  ASSERT_NE(db, nullptr);
  EXPECT_TRUE(db->recovered_from_crash());
  std::string value;
  EXPECT_TRUE(
      db->Get(table, "key" + std::to_string(12 * 7919 % 1000), &value).ok());
  auto report = db->Audit();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().ok())
      << "first problem: " << report.value().problems[0];
}

// Crash window 3: the commit barrier returned, so the STAMP_TRANS (and
// everything appended before it) is durable on WORM. The committed data
// must survive the crash and audit clean.
TEST_F(AsyncShippingTest, CommittedWorkSurvivesCrashAfterCommitBarrier) {
  std::string dir = FreshDir("commit_barrier");
  uint32_t table = 0;
  {
    auto db = Open(MakeOptions(dir));
    ASSERT_NE(db, nullptr);
    auto t = db->CreateTable("barrier");
    ASSERT_TRUE(t.ok());
    table = t.value();
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(db->Put(txn.value(), table, "durable", "after-barrier").ok());
    ASSERT_TRUE(db->Commit(txn.value()).ok());
    EXPECT_EQ(Log(db.get())->durable_offset(), Log(db.get())->size());
    // Crash immediately after the commit barrier returned.
  }
  auto db = Open(MakeOptions(dir));
  ASSERT_NE(db, nullptr);
  std::string value;
  ASSERT_TRUE(db->Get(table, "durable", &value).ok());
  EXPECT_EQ(value, "after-barrier");
  auto report = db->Audit();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().ok()) << "first problem: "
                                   << report.value().problems[0];
}

// A scan of L is a barrier: it drains the tail first, so it observes every
// appended record.
TEST_F(AsyncShippingTest, ScanSeesRecordsPendingInTail) {
  std::string dir = FreshDir("scan_drain");
  DbOptions opts = MakeOptions(dir, /*cache_pages=*/8);
  opts.compliance.hash_on_read = true;
  auto db = Open(opts);
  ASSERT_NE(db, nullptr);
  auto t = db->CreateTable("scan");
  ASSERT_TRUE(t.ok());
  Seed(db.get(), t.value(), "k", 100);
  ASSERT_TRUE(db->FlushAll().ok());
  auto txn = db->Begin();
  ASSERT_TRUE(txn.ok());
  std::string value;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db->Get(t.value(), "k" + std::to_string(i), &value).ok());
  }
  ComplianceLog* log = Log(db.get());
  ASSERT_GT(log->pending_bytes(), 0u);
  uint64_t scanned = 0;
  uint64_t last_offset = 0;
  ASSERT_TRUE(log->Scan([&](const CRecord&, uint64_t offset) {
                   ++scanned;
                   last_offset = offset;
                   return Status::OK();
                 }).ok());
  EXPECT_EQ(scanned, log->record_count());
  EXPECT_EQ(log->pending_bytes(), 0u);
  EXPECT_EQ(log->durable_offset(), log->size());
  EXPECT_LT(last_offset, log->size());
  ASSERT_TRUE(db->Commit(txn.value()).ok());
  ASSERT_TRUE(db->Close().ok());
}

// The read barrier: a read outside any transaction returns only once the
// READ_HASH records of the pages it faulted in are durable — through the
// facade (Get, ScanCurrent) and through a snapshot reader. A write slot is
// one read operation: its body's reads may stay pending until the slot
// returns. Inside a transaction they wait for the commit barrier.
TEST_F(AsyncShippingTest, ReadsOutsideTransactionDurableOnReturn) {
  std::string dir = FreshDir("read_barrier");
  DbOptions opts = MakeOptions(dir, /*cache_pages=*/8);
  opts.compliance.hash_on_read = true;
  auto db = Open(opts);
  ASSERT_NE(db, nullptr);
  auto t = db->CreateTable("rb");
  ASSERT_TRUE(t.ok());
  const uint32_t table = t.value();
  Seed(db.get(), table, "k", 300);
  ASSERT_TRUE(db->FlushAll().ok());
  ComplianceLog* log = Log(db.get());
  ASSERT_EQ(log->pending_bytes(), 0u);

  // Nothing else appends, so "durable through size()" after each call
  // means the call's own records reached WORM before it returned.
  auto point_reads = [&](const std::function<Status(const std::string&)>& get,
                         bool expect_durable) {
    int faulted = 0;
    int pending_after = 0;
    for (int i = 0; i < 300; i += 7) {
      const uint64_t before = log->size();
      ASSERT_TRUE(get("k" + std::to_string(i)).ok());
      faulted += log->size() > before ? 1 : 0;
      pending_after += log->durable_offset() < log->size() ? 1 : 0;
      if (expect_durable) {
        ASSERT_EQ(log->durable_offset(), log->size()) << "key k" << i;
      }
    }
    EXPECT_GT(faulted, 0) << "no read missed the cache";
    if (!expect_durable) EXPECT_GT(pending_after, 0);
  };
  std::string value;

  point_reads([&](const std::string& k) { return db->Get(table, k, &value); },
              /*expect_durable=*/true);

  {
    auto snap = db->BeginSnapshot();
    ASSERT_TRUE(snap.ok());
    std::unique_ptr<SnapshotReader> reader(snap.value());
    point_reads(
        [&](const std::string& k) { return reader->Get(table, k, &value); },
        /*expect_durable=*/true);
    const uint64_t before = log->size();
    ASSERT_TRUE(reader
                    ->ScanCurrent(table, "", "",
                                  [](const TupleData&) { return Status::OK(); })
                    .ok());
    EXPECT_GT(log->size(), before);
    EXPECT_EQ(log->durable_offset(), log->size());
  }

  const uint64_t before_scan = log->size();
  ASSERT_TRUE(db->ScanCurrent(table, "", "", [](const TupleData&) {
                  return Status::OK();
                }).ok());
  EXPECT_GT(log->size(), before_scan);
  EXPECT_EQ(log->durable_offset(), log->size());

  // A write slot's body reads with no transaction open; the slot, not each
  // read, ends with the barrier.
  ASSERT_TRUE(db->RunWriteSlot(db->ReserveWriteSlot(), [&] {
                  point_reads(
                      [&](const std::string& k) {
                        return db->Get(table, k, &value);
                      },
                      /*expect_durable=*/false);
                  return Status::OK();
                }).ok());
  EXPECT_EQ(log->durable_offset(), log->size());

  // Inside a transaction the commit barrier covers the reads.
  auto txn = db->Begin();
  ASSERT_TRUE(txn.ok());
  point_reads([&](const std::string& k) { return db->Get(table, k, &value); },
              /*expect_durable=*/false);
  ASSERT_TRUE(db->Commit(txn.value()).ok());
  EXPECT_EQ(log->durable_offset(), log->size());
  ASSERT_TRUE(db->Close().ok());
}

// The attack hash-on-read exists to catch, with a crash in the middle:
// Mala tampers a leaf under the running database, a read outside any
// transaction is served the tampered value, then Mala kills the process
// and reverts the leaf before any other barrier could run. The read
// barrier made the READ_HASH of the tampered page durable before the read
// returned, so the audit of the recovered database reports the tampering.
TEST_F(AsyncShippingTest, TamperedReadSurvivesCrashAndRevert) {
  for (const bool snapshot : {false, true}) {
    SCOPED_TRACE(snapshot ? "SnapshotReader::Get" : "CompliantDB::Get");
    std::string dir = FreshDir(snapshot ? "tamper_snap" : "tamper_get");
    clock_ = std::make_unique<SimulatedClock>();
    DbOptions opts = MakeOptions(dir, /*cache_pages=*/16);
    opts.compliance.hash_on_read = true;
    Mala mala(dir + "/data.db");
    uint32_t table = 0;
    {
      auto db = Open(opts);
      ASSERT_NE(db, nullptr);
      auto t = db->CreateTable("ledger");
      ASSERT_TRUE(t.ok());
      table = t.value();
      Seed(db.get(), table, "acct", 600);
      ASSERT_TRUE(db->FlushAll().ok());
      // Fill the cache with other leaves, so acct307's leaf is read from
      // disk next.
      std::string value;
      for (int i = 0; i < 600; ++i) {
        if (i >= 250 && i < 350) continue;
        ASSERT_TRUE(db->Get(table, "acct" + std::to_string(i), &value).ok());
      }
      ASSERT_TRUE(mala.TamperTupleValue(table, "acct307").ok());
      const uint64_t before = Log(db.get())->size();
      if (snapshot) {
        auto snap = db->BeginSnapshot();
        ASSERT_TRUE(snap.ok());
        std::unique_ptr<SnapshotReader> reader(snap.value());
        ASSERT_TRUE(reader->Get(table, "acct307", &value).ok());
      } else {
        ASSERT_TRUE(db->Get(table, "acct307", &value).ok());
      }
      ASSERT_NE(value, std::string(200, 'x'))
          << "the read was not served the tampered page";
      ASSERT_GT(Log(db.get())->size(), before) << "the read hit the cache";
      // Crash: destructor without Close.
    }
    ASSERT_TRUE(mala.TamperTupleValue(table, "acct307").ok());  // revert
    auto db = Open(opts);
    ASSERT_NE(db, nullptr);
    EXPECT_TRUE(db->recovered_from_crash());
    auto report = db->Audit();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_FALSE(report.value().ok())
        << "the READ_HASH of the tampered page was lost in the crash";
  }
}

// Snapshot readers alone under hash-on-read: no commit, no dirty page, no
// tick. Each read passes the read barrier itself, so concurrent readers
// keep the tail under the bound and L on WORM grows while only they run.
TEST_F(AsyncShippingTest, SnapshotReadersAloneKeepTailBounded) {
  std::string dir = FreshDir("readers_only");
  DbOptions opts = MakeOptions(dir, /*cache_pages=*/8);
  opts.compliance.hash_on_read = true;
  auto db = Open(opts);
  ASSERT_NE(db, nullptr);
  auto t = db->CreateTable("readers");
  ASSERT_TRUE(t.ok());
  const uint32_t table = t.value();
  constexpr int kKeys = 400;
  Seed(db.get(), table, "r", kKeys);
  ASSERT_TRUE(db->FlushAll().ok());

  ComplianceLog* log = Log(db.get());
  const std::string l_path = dir + "/worm/" + LogFileName(0);
  const uint64_t durable_before = log->durable_offset();
  const uintmax_t file_before = std::filesystem::file_size(l_path);
  std::atomic<uint64_t> max_pending{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      auto snap = db->BeginSnapshot();
      if (!snap.ok()) {
        failed = true;
        return;
      }
      std::unique_ptr<SnapshotReader> reader(snap.value());
      std::string value;
      for (int i = 0; i < 2000; ++i) {
        std::string key = "r" + std::to_string((i * 7919 + r * 101) % kKeys);
        if (!reader->Get(table, key, &value).ok()) {
          failed = true;
          return;
        }
        uint64_t pending = log->pending_bytes();
        uint64_t seen = max_pending.load();
        while (pending > seen &&
               !max_pending.compare_exchange_weak(seen, pending)) {
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  ASSERT_FALSE(failed.load());
  EXPECT_LE(max_pending.load(), ComplianceLog::kMaxPendingBytes);
  EXPECT_EQ(log->pending_bytes(), 0u);
  EXPECT_GT(log->durable_offset(), durable_before);
  EXPECT_GT(std::filesystem::file_size(l_path), file_before);
  ASSERT_TRUE(db->Close().ok());
}

// The pending-bytes bound: one long read-only transaction under
// hash-on-read appends READ_HASH records and meets no barrier until it
// ends. The tail never exceeds kMaxPendingBytes, and L on WORM grows while
// the transaction is still open.
TEST_F(AsyncShippingTest, PendingTailBoundedInLongTransaction) {
  std::string dir = FreshDir("bound");
  DbOptions opts = MakeOptions(dir, /*cache_pages=*/8);
  opts.compliance.hash_on_read = true;
  auto db = Open(opts);
  ASSERT_NE(db, nullptr);
  auto t = db->CreateTable("bound");
  ASSERT_TRUE(t.ok());
  const uint32_t table = t.value();
  constexpr int kKeys = 400;
  Seed(db.get(), table, "r", kKeys);
  ASSERT_TRUE(db->FlushAll().ok());

  ComplianceLog* log = Log(db.get());
  const std::string l_path = dir + "/worm/" + LogFileName(0);
  const uint64_t durable_before = log->durable_offset();
  const uintmax_t file_before = std::filesystem::file_size(l_path);
  ASSERT_EQ(log->pending_bytes(), 0u);

  // Read until a drain lands (or a generous cap on reads).
  auto txn = db->Begin();
  ASSERT_TRUE(txn.ok());
  uint64_t max_pending = 0;
  std::string value;
  for (int i = 0; i < 40000 && log->durable_offset() == durable_before;
       ++i) {
    ASSERT_TRUE(
        db->Get(table, "r" + std::to_string(i * 7919 % kKeys), &value).ok());
    max_pending = std::max(max_pending, log->pending_bytes());
  }
  EXPECT_GT(log->durable_offset(), durable_before)
      << "the open transaction never drained the tail";
  EXPECT_LE(max_pending, ComplianceLog::kMaxPendingBytes);
  EXPECT_GT(max_pending, 0u);
  EXPECT_GE(log->durable_offset() - durable_before,
            ComplianceLog::kMaxPendingBytes);
  EXPECT_GT(std::filesystem::file_size(l_path), file_before);
  ASSERT_TRUE(db->Abort(txn.value()).ok());
  ASSERT_TRUE(db->Close().ok());
}

}  // namespace
}  // namespace complydb
