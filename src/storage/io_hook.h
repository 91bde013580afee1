#ifndef COMPLYDB_STORAGE_IO_HOOK_H_
#define COMPLYDB_STORAGE_IO_HOOK_H_

#include "common/status.h"
#include "storage/page.h"

namespace complydb {

/// The pread/pwrite interception seam (paper §IV-A): "we wrote a compliance
/// logging plugin that taps into the pread/pwrite system calls of Berkeley
/// DB". The buffer cache invokes every registered hook:
///
///  - OnPageRead: after a page is fetched from disk, before it is served.
///  - OnPageWrite: before a (possibly dirty) page image overwrites the
///    on-disk copy. A non-OK status aborts the write — this is how
///    "data page writes wait until their corresponding NEW_TUPLE records
///    have reached the WORM server" is enforced.
///  - OnPageWriteBarrier: after OnPageWrite has run for every page of the
///    batch, still before any disk write. OnPageWrite only *appends* the
///    diff records to the compliance log's tail; this second phase is
///    where the pwrite stalls until the records describing the page are
///    durable on WORM. Batching the barriers lets one WORM fflush cover a
///    whole dirty-page storm. Hooks that keep no tail (the WAL hook) need
///    no barrier, hence the default no-op.
///
/// Hooks run in registration order; the WAL hook (write-ahead rule) is
/// registered before the compliance logger.
class IoHook {
 public:
  virtual ~IoHook() = default;

  virtual Status OnPageRead(PageId pgno, const Page& image) = 0;
  virtual Status OnPageWrite(PageId pgno, const Page& image) = 0;
  virtual Status OnPageWriteBarrier(PageId pgno) {
    (void)pgno;
    return Status::OK();
  }
};

}  // namespace complydb

#endif  // COMPLYDB_STORAGE_IO_HOOK_H_
