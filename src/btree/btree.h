#ifndef COMPLYDB_BTREE_BTREE_H_
#define COMPLYDB_BTREE_BTREE_H_

#include <functional>
#include <string>
#include <vector>

#include "btree/split_policy.h"
#include "btree/structure_observer.h"
#include "btree/tuple.h"
#include "common/status.h"
#include "storage/buffer_cache.h"
#include "wal/log_manager.h"

namespace complydb {

/// Per-transaction WAL bookkeeping handed into B+-tree mutations: records
/// are chained via prev_lsn for undo. A null log means unlogged operation
/// (bulk loads that precede the first signed snapshot).
struct TxnWalContext {
  TxnId txn_id = 0;
  Lsn last_lsn = 0;
  LogManager* log = nullptr;

  Lsn Emit(WalRecord* rec) {
    if (log == nullptr) return 0;
    rec->txn_id = txn_id;
    rec->prev_lsn = last_lsn;
    last_lsn = log->Append(rec);
    return last_lsn;
  }
};

/// Everything a Btree needs from its environment.
struct BtreeEnv {
  BufferCache* cache = nullptr;
  LogManager* wal = nullptr;             // null: unlogged
  StructureObserver* observer = nullptr; // null: no compliance notifications
  SplitPolicy* split_policy = nullptr;   // null: always key-split
  MigrationSink* migration = nullptr;    // null: time splits fall back
};

/// A transaction-time B+-tree over slotted pages.
///
/// Entries are tuple *versions* ordered by (key, start); all versions of a
/// key are adjacent, so a page carries a key's version thread (the paper's
/// version threading, realized as physical adjacency). The root page id is
/// fixed for the life of the tree: when the root fills, its contents move
/// down into two fresh children ("root grow"), so the catalog never needs
/// updating.
///
/// Key splits prefer a key boundary nearest the median, keeping one key's
/// versions co-resident when possible — this is what makes time splits
/// (§VI) able to find superseded versions locally.
class Btree {
 public:
  /// Allocates and formats a root leaf for a new tree, logging its image
  /// (when `wal` is given) so redo can rebuild it after a crash.
  static Result<PageId> Create(BufferCache* cache, uint32_t tree_id,
                               LogManager* wal = nullptr);

  Btree(const BtreeEnv& env, uint32_t tree_id, PageId root)
      : env_(env), tree_id_(tree_id), root_(root) {}

  uint32_t tree_id() const { return tree_id_; }
  PageId root() const { return root_; }

  /// Inserts a new tuple version. Assigns the tuple order number from the
  /// destination page; reports where it landed.
  Status InsertVersion(TxnWalContext* txn, const TupleData& tuple,
                       PageId* pgno_out, uint16_t* order_no_out);

  /// Physically removes the version identified by (key, start). Used only
  /// by abort-undo (as_clr=true, logging a compensation record) and by the
  /// shredding vacuum (as_clr=false, logging kTupleRemove).
  Status RemoveVersion(TxnWalContext* txn, Slice key, uint64_t start,
                       bool as_clr, Lsn undo_next);

  /// Undo of a remove: re-inserts an exact previously-removed record
  /// (original order number preserved), logging a kClrInsert.
  Status ReinsertRecord(TxnWalContext* txn, Slice record, Lsn undo_next);

  /// Lazy timestamping: upgrades the version whose start equals
  /// `txn_start` (a transaction id) to the stamped commit time.
  Status StampVersion(TxnWalContext* txn, Slice key, uint64_t txn_start,
                      uint64_t commit_time);

  /// Latest version of `key`; NotFound if none or end-of-life. Equal to
  /// the last element of GetVersions(key), but found by one probe for the
  /// newest version instead of a walk over the whole version thread.
  Status GetLatest(Slice key, TupleData* out);

  /// All versions of `key`, oldest first (crosses page boundaries).
  Status GetVersions(Slice key, std::vector<TupleData>* out);

  /// Every tuple version in every live leaf, in (key, start) order.
  Status ScanAll(
      const std::function<Status(PageId, const TupleData&)>& fn);

  /// Versions with begin <= key < end, in order, starting at the right
  /// leaf (end empty = unbounded). The callback may stop the scan early by
  /// returning Busy (treated as success).
  Status ScanVersionsInRange(
      Slice begin, Slice end,
      const std::function<Status(const TupleData&)>& fn);

  /// Latest non-EOL version per key.
  Status ScanCurrent(const std::function<Status(const TupleData&)>& fn);

  /// Latest non-EOL version per key with begin <= key < end
  /// (end empty = unbounded).
  Status ScanRangeCurrent(Slice begin, Slice end,
                          const std::function<Status(const TupleData&)>& fn);

  /// Page counts by kind, for the Fig. 4 benchmarks.
  struct PageStats {
    size_t leaf_pages = 0;
    size_t internal_pages = 0;
  };
  Result<PageStats> CountPages();

  /// Number of historical pages this tree has migrated to WORM.
  uint64_t migrated_pages() const { return migrated_pages_; }

 private:
  Status DescendToLeaf(Slice key, uint64_t start,
                       std::vector<PageId>* path) const;
  Status FetchLeafShared(Slice key, uint64_t start, PageId* pgno,
                         Page** leaf) const;
  Status HandleLeafOverflow(const std::vector<PageId>& path);
  Status KeySplit(const std::vector<PageId>& path, size_t depth);
  Status SplitInternal(PageId pgno);
  Status RootGrow();
  Status TimeSplitLeaf(PageId leaf_pgno, size_t* freed);
  Status InsertSeparator(size_t target_level, const IndexEntry& sep);
  Status EmitPageImage(const Page& page, Page* mutable_page);

  BtreeEnv env_;
  uint32_t tree_id_;
  PageId root_;
  uint64_t migrated_pages_ = 0;
};

// --- helpers shared with the integrity checker and auditor ---

/// Binary search in a leaf: first slot whose (key, start) >= the probe.
uint16_t LeafLowerBound(const Page& leaf, Slice key, uint64_t start);

/// Internal routing: index of the entry to follow for the probe
/// (the last entry with separator <= probe, clamped to 0).
uint16_t InternalFindChild(const Page& node, Slice key, uint64_t start);

}  // namespace complydb

#endif  // COMPLYDB_BTREE_BTREE_H_
