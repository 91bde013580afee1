// bench_e2e: one closed-loop TPC-C workload per process — the measuring
// half of the repository benchmark. bench/e2e/run.py is the command that
// builds and drives it; bench/e2e/README.md is the metric catalog.
//
//   bench_e2e --workload NAME --dir DIR [--seed N] [--seconds S]
//             [--trace 0|1] [--slots N] [--warmup N] [--min-rounds N]
//             [--trace-json PATH]
//
// A run is a series of identical rounds, each on a fresh database under
// DIR built from --seed: set-up (Open + CreateOrAttachTables + Load),
// warm-up slots, AuditIncremental to certify the load, a metrics-registry
// reset, the measured slots, AuditIncremental over the window (cert_s),
// then Audit (audit_s). Rounds repeat while another fits in --seconds, at
// least --min-rounds times. run.py keeps each slot's fastest repeat, so a
// burst of interference from other tenants of a shared machine moves no
// reported number (README.md, "Why rounds, and why the fastest repeat").
//
// The client is the benchmark's own slot driver: the loop of
// Workload::RunMixConcurrent, with each slot timed from reservation to
// the return of RunWriteSlot. Slot content is a pure function of (seed,
// slot number). The driver touches only the engine's stable public
// surface; every mode choice (shipping, admission, cache shards, audit
// threads) stays at the engine default, so the benchmark measures what a
// user gets.
//
// --trace 0 turns latency sampling and both event rings off (counters
// keep counting). --trace 1 alternates traced and untraced rounds: traced
// rounds record the benchmark's own spans around each call into the
// engine and feed the per-layer ledger, untraced ones give the tracing
// overhead. The last stdout line is one JSON object holding every
// round's raw numbers.

#include <pthread.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "crypto/sha256.h"
#include "db/compliant_db.h"
#include "db/snapshot_reader.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "tpcc/workload.h"

#ifndef BENCH_E2E_BUILD_TYPE
#define BENCH_E2E_BUILD_TYPE ""
#endif

using namespace complydb;

namespace {

constexpr uint64_t kMinute = 60ull * 1'000'000;
// Simulated time per slot: one 5-minute regret interval every 500 slots.
constexpr uint64_t kAdvanceMicros = 600'000;
// The filer model of Fig. 3 and EXPERIMENTS.md: 120 us per page I/O,
// 100 us per WORM flush.
constexpr uint64_t kFilerIoMicros = 120;
constexpr uint64_t kFilerFlushMicros = 100;

struct Spec {
  const char* name;
  uint32_t writers;
  uint32_t readers;
  uint32_t warehouses;
  size_t cache_pages;
  bool hash_on_read;
  bool filer;
  uint64_t slots;  // measured writer slots per round
};

// Why each workload exists is in README.md. A regret interval passes every
// 500 slots; after the 200 warm-up slots every window holds at least one
// regret-interval flush and seal (mem-1w: six), so that cost is measured.
const Spec kSpecs[] = {
    {"mem-1w", 1, 0, 1, 8192, false, false, 3000},
    {"filer-1w-hr", 1, 0, 2, 192, true, true, 400},
    {"filer-4w", 4, 0, 4, 192, false, true, 400},
    {"filer-3r1w", 1, 3, 2, 192, false, true, 400},
};

struct Args {
  std::string workload;
  std::string dir;
  std::string trace_json;
  uint64_t seed = 1234;
  double seconds = 10;
  bool trace = false;
  uint64_t slots = 0;  // 0 = the workload's default
  uint64_t warmup = 200;
  uint32_t min_rounds = 3;
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// Exact percentile (nearest rank) of a sample; 0 when empty.
double Percentile(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + rank, v.end());
  return static_cast<double>(v[rank]);
}

// {"n":..,"p50_ms":..,"p99_ms":..} of nanosecond samples.
std::string LatencyJson(const std::vector<int64_t>& ns) {
  return "{\"n\":" + std::to_string(ns.size()) +
         ",\"p50_ms\":" + Num(Percentile(ns, 0.50) / 1e6) +
         ",\"p99_ms\":" + Num(Percentile(ns, 0.99) / 1e6) + "}";
}

std::string IntArray(const std::vector<int64_t>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(v[i]);
  }
  out += ']';
  return out;
}

// --- benchmark spans -------------------------------------------------------

// One closed interval recorded by the benchmark around a call into the
// engine. Spans of one slot (or one read) share `key`; `parent` indexes the
// same thread's buffer (-1 = root).
struct SpanRec {
  const char* name;
  uint64_t key;
  int parent;
  int64_t start_ns;
  int64_t end_ns;
};

// Per-thread span memory: only its owning thread appends, and it is read
// after that thread is joined, so it needs no lock.
struct SpanBuffer {
  uint32_t tid = 0;
  std::vector<SpanRec> spans;

  int Add(const char* name, uint64_t key, int parent, int64_t start_ns,
          int64_t end_ns) {
    spans.push_back({name, key, parent, start_ns, end_ns});
    return static_cast<int>(spans.size()) - 1;
  }
};

// Duration and self time (duration minus the time its children cover) of
// every span in `buf`, appended per name.
void CollectSpanTimes(const SpanBuffer& buf,
                      std::map<std::string, std::vector<int64_t>>* dur,
                      std::map<std::string, int64_t>* self_total) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      buf.spans.size());
  for (const SpanRec& s : buf.spans) {
    if (s.parent >= 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  for (size_t i = 0; i < buf.spans.size(); ++i) {
    const SpanRec& s = buf.spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = s.start_ns;
    for (auto [a, b] : kids) {
      a = std::max(a, reach);
      b = std::min(b, s.end_ns);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    (*dur)[s.name].push_back(s.end_ns - s.start_ns);
    (*self_total)[s.name] += (s.end_ns - s.start_ns) - covered;
  }
}

// --- one round ---------------------------------------------------------------

struct RoundResult {
  bool traced = false;
  bool ok = true;  // set-up, warm-up and audits ran (verdicts aside)
  std::string error;
  // The modes the engine resolved from the options, recorded so a change
  // of default shows in the artifact.
  uint32_t write_threads = 0;
  std::string shipper_mode;
  std::string scheduler_mode;
  double setup_s = 0;
  double read_wall_s = 0;
  uint64_t slots = 0;
  uint64_t failed_slots = 0;
  uint64_t reads = 0;
  uint64_t failed_reads = 0;
  uint64_t committed_new_orders = 0;  // warm-up + measured
  // Latency of each measured slot, indexed by its position in the window.
  std::vector<int64_t> slot_ns;
  // Wall and process-CPU time of each run of kMarkEvery consecutive slots.
  std::vector<int64_t> interval_wall_ns;
  std::vector<int64_t> interval_cpu_ns;
  std::vector<int64_t> read_ns;
  double cert_s = 0;
  double audit_s = 0;
  uint64_t log_bytes = 0;
  uint64_t cert_problems = 0;
  uint64_t audit_problems = 0;
  std::vector<std::string> problems;
  bool consistent = false;
  std::string consistency_error;
  std::string registry_json;
  AuditTimings audit_timings;
  uint64_t cert_bytes = 0;
  uint64_t cert_records = 0;
  std::vector<std::unique_ptr<SpanBuffer>> spans;
};

// Rounds repeat the same slots, so run.py compares each run of this many
// slots across rounds and keeps the fastest: slowdowns other tenants of a
// shared machine cause drop out, while every slot's cost still counts.
constexpr uint64_t kMarkEvery = 20;

// The slot driver shared by the writer threads of one measured window (or
// of the warm-up).
struct SlotDriver {
  CompliantDB* db;
  tpcc::Workload* workload;
  SimulatedClock* clock;
  uint64_t seed;
  uint64_t first_slot;
  uint64_t end_slot;
  uint64_t base_now;

  // CPU clocks of the benchmark's reader threads, whose work Mark leaves
  // out: how many reads run beside a slot depends on timing.
  std::vector<clockid_t> reader_clocks;

  std::mutex issue_mu;
  uint64_t next_slot;  // guarded by issue_mu
  // Wall and CPU clocks read when slot first + k * kMarkEvery is reserved;
  // guarded by issue_mu.
  std::vector<int64_t> mark_wall_ns;
  std::vector<int64_t> mark_cpu_ns;
  // Indexed by slot - first_slot; each element has one writer.
  std::vector<int64_t> slot_ns;

  SlotDriver(CompliantDB* d, tpcc::Workload* w, SimulatedClock* c,
             uint64_t s, uint64_t first, uint64_t count)
      : db(d),
        workload(w),
        clock(c),
        seed(s),
        first_slot(first),
        end_slot(first + count),
        base_now(d->Now()),
        next_slot(first),
        slot_ns(count, 0) {}

  void Mark() {
    mark_wall_ns.push_back(NowNs());
    int64_t cpu = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
    for (clockid_t c : reader_clocks) cpu -= CpuNs(c);
    mark_cpu_ns.push_back(cpu);
  }
};

struct WriterStats {
  uint64_t slots = 0;
  uint64_t failed = 0;
  uint64_t committed_new_orders = 0;
  std::string first_error;
};

const char* kBodySpan[] = {"tpcc.new_order", "tpcc.payment",
                           "tpcc.order_status", "tpcc.delivery",
                           "tpcc.stock_level"};

void WriterLoop(SlotDriver* d, SpanBuffer* spans, WriterStats* out) {
  while (true) {
    tpcc::SlotParams params;
    SlotFootprint footprint;
    std::unique_ptr<tpcc::TpccRandom> rng;
    uint64_t slot = 0;
    uint64_t ticket = 0;
    const int64_t t0 = NowNs();
    {
      // Reservation and the draw that decides the slot's content happen
      // under one lock, so slot i always holds ticket base+i and the
      // schedule is the serial one at any thread count.
      std::lock_guard<std::mutex> lock(d->issue_mu);
      if (d->next_slot >= d->end_slot) break;
      slot = d->next_slot++;
      if ((slot - d->first_slot) % kMarkEvery == 0) d->Mark();
      rng = std::make_unique<tpcc::TpccRandom>(
          tpcc::Workload::SlotSeed(d->seed, slot));
      d->workload->DrawSlotParams(tpcc::Workload::MixTypeForSlot(d->seed, slot),
                                  rng.get(), &params, &footprint);
      params.now = d->base_now + (slot - d->first_slot) * kAdvanceMicros;
      ticket = d->db->ReserveWriteSlot(footprint);
    }
    const int64_t t1 = NowNs();
    int64_t t2 = 0;
    int64_t t3 = 0;
    bool committed = true;
    Status s = d->db->RunWriteSlot(
        ticket,
        [&]() -> Status {
          t2 = NowNs();
          Status bs;
          switch (params.type) {
            case 0:
              bs = d->workload->NewOrder(&committed, rng.get(), params);
              break;
            case 1:
              bs = d->workload->Payment(rng.get(), params);
              break;
            case 2:
              bs = d->workload->OrderStatus(rng.get(), params);
              break;
            case 3:
              bs = d->workload->Delivery(rng.get(), params);
              break;
            default:
              bs = d->workload->StockLevel(rng.get(), params);
              break;
          }
          t3 = NowNs();
          return bs;
        },
        // Inside the slot, so serial in ticket order: commit times never
        // depend on thread timing.
        [&]() { d->clock->AdvanceMicros(kAdvanceMicros); });
    const int64_t t4 = NowNs();
    if (t2 == 0) t2 = t3 = t1;  // the body never ran

    ++out->slots;
    d->slot_ns[slot - d->first_slot] = t4 - t0;
    // The intentional 1% NewOrder rollback returns OK with !committed.
    if (!s.ok()) {
      ++out->failed;
      if (out->first_error.empty()) out->first_error = s.ToString();
    } else if (params.type == 0 && committed) {
      ++out->committed_new_orders;
    }
    if (spans != nullptr) {
      int root = spans->Add("slot", slot, -1, t0, t4);
      spans->Add("txn.reserve", slot, root, t0, t1);
      spans->Add("txn.admit", slot, root, t1, t2);
      spans->Add(kBodySpan[params.type], slot, root, t2, t3);
      spans->Add("txn.after_body", slot, root, t3, t4);
    }
  }
}

// Runs the driver's slots with `writers` threads, merges their stats, and
// closes the last mark interval.
void RunSlots(SlotDriver* d, uint32_t writers,
              std::vector<std::unique_ptr<SpanBuffer>>* span_bufs,
              uint32_t* next_tid, WriterStats* total) {
  std::vector<WriterStats> stats(writers);
  std::vector<SpanBuffer*> bufs(writers, nullptr);
  if (span_bufs != nullptr) {
    for (uint32_t t = 0; t < writers; ++t) {
      span_bufs->push_back(std::make_unique<SpanBuffer>());
      span_bufs->back()->tid = (*next_tid)++;
      bufs[t] = span_bufs->back().get();
    }
  }
  if (writers == 1) {
    WriterLoop(d, bufs[0], &stats[0]);
  } else {
    std::vector<std::thread> pool;
    for (uint32_t t = 0; t < writers; ++t) {
      pool.emplace_back(WriterLoop, d, bufs[t], &stats[t]);
    }
    for (auto& th : pool) th.join();
  }
  d->Mark();
  for (auto& s : stats) {
    total->slots += s.slots;
    total->failed += s.failed;
    total->committed_new_orders += s.committed_new_orders;
    if (total->first_error.empty()) total->first_error = s.first_error;
  }
}

struct ReaderStats {
  uint64_t reads = 0;
  uint64_t failed = 0;
  std::vector<int64_t> read_ns;
  std::string first_error;
};

void ReaderLoop(CompliantDB* db, const tpcc::Workload* workload, uint64_t seed,
                uint32_t index, const std::atomic<bool>* stop,
                SpanBuffer* spans, ReaderStats* out) {
  tpcc::TpccRandom rng(
      tpcc::Workload::SlotSeed(seed ^ 0x7265616465727321ull, index));
  while (!stop->load(std::memory_order_acquire)) {
    const uint64_t n = out->reads++;
    const int64_t t0 = NowNs();
    auto snap = db->BeginSnapshot();
    const int64_t t1 = NowNs();
    Status s;
    int64_t t2 = t1;
    const bool order_status = n % 2 == 0;
    if (snap.ok()) {
      std::unique_ptr<SnapshotReader> reader(snap.value());
      s = order_status ? workload->OrderStatusRO(*reader, &rng)
                       : workload->StockLevelRO(*reader, &rng);
      t2 = NowNs();
    } else {
      s = snap.status();
    }
    const int64_t t3 = NowNs();
    out->read_ns.push_back(t3 - t0);
    if (!s.ok()) {
      ++out->failed;
      if (out->first_error.empty()) out->first_error = s.ToString();
    }
    if (spans != nullptr) {
      const uint64_t key = (uint64_t{index} << 48) | n;
      int root = spans->Add("read", key, -1, t0, t3);
      spans->Add("db.snapshot.begin", key, root, t0, t1);
      spans->Add(order_status ? "tpcc.order_status_ro" : "tpcc.stock_level_ro",
                 key, root, t1, t2);
    }
  }
}

// TPC-C consistency condition 1 (W_YTD == sum of D_YTD) for every
// warehouse, and every committed NewOrder accounted for by the districts'
// order-id counters.
Status CheckConsistency(CompliantDB* db, const tpcc::Workload& w,
                        uint64_t committed_new_orders) {
  const tpcc::Scale& scale = w.scale();
  uint64_t orders = 0;
  std::string raw;
  for (uint32_t wh = 1; wh <= scale.warehouses; ++wh) {
    CDB_RETURN_IF_ERROR(
        db->Get(w.tables().warehouse, tpcc::WarehouseKey(wh), &raw));
    tpcc::WarehouseRow warehouse;
    CDB_RETURN_IF_ERROR(tpcc::WarehouseRow::Decode(raw, &warehouse));
    int64_t district_ytd = 0;
    for (uint32_t d = 1; d <= scale.districts_per_warehouse; ++d) {
      CDB_RETURN_IF_ERROR(
          db->Get(w.tables().district, tpcc::DistrictKey(wh, d), &raw));
      tpcc::DistrictRow district;
      CDB_RETURN_IF_ERROR(tpcc::DistrictRow::Decode(raw, &district));
      district_ytd += district.ytd_cents;
      orders += district.next_o_id - 1 - scale.initial_orders_per_district;
    }
    if (warehouse.ytd_cents != district_ytd) {
      return Status::Corruption("W_YTD != sum(D_YTD) in warehouse " +
                                std::to_string(wh));
    }
  }
  if (orders != committed_new_orders) {
    return Status::Corruption(
        "districts hold " + std::to_string(orders) + " new orders, " +
        std::to_string(committed_new_orders) + " committed");
  }
  return Status::OK();
}

std::string RegistryJson() {
  auto snap = obs::MetricsRegistry::Global().TakeSnapshot();
  std::string out = "{\"counters\":{";
  for (size_t i = 0; i < snap.counters.size(); ++i) {
    out += (i ? ",\"" : "\"") + JsonEscape(snap.counters[i].first) +
           "\":" + std::to_string(snap.counters[i].second);
  }
  out += "},\"histograms\":{";
  for (size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& h = snap.histograms[i];
    out += (i ? ",\"" : "\"") + JsonEscape(h.name) +
           "\":{\"count\":" + std::to_string(h.count) +
           ",\"sum_us\":" + std::to_string(h.sum_us) + ",\"p50\":" +
           Num(h.p50) + ",\"p99\":" + Num(h.p99) + "}";
  }
  return out + "}}";
}

void SetTracing(bool on) {
  obs::SetSampling(on);
  obs::TraceRing::Global().SetEnabled(on);
  obs::SpanRing::Global().SetEnabled(on);
}

void RunRound(const Spec& spec, const Args& args, uint32_t round, bool traced,
              RoundResult* r) {
  r->traced = traced;
  SetTracing(traced);
  const std::string dir = args.dir + "/round" + std::to_string(round);
  std::filesystem::remove_all(dir);
  auto fail = [&](const std::string& what, const Status& s) {
    r->ok = false;
    r->error = what + ": " + s.ToString();
  };
  uint32_t next_tid = 1;
  auto* span_bufs = traced ? &r->spans : nullptr;
  SpanBuffer* main_spans = nullptr;
  if (traced) {
    r->spans.push_back(std::make_unique<SpanBuffer>());
    main_spans = r->spans.back().get();
    main_spans->tid = next_tid++;
  }

  // --- set-up
  SimulatedClock clock;
  DbOptions options;
  options.dir = dir;
  options.cache_pages = spec.cache_pages;
  options.clock = &clock;
  options.compliance.enabled = true;
  options.compliance.hash_on_read = spec.hash_on_read;
  options.compliance.regret_interval_micros = 5 * kMinute;
  options.io_latency_micros = spec.filer ? kFilerIoMicros : 0;
  options.worm_flush_latency_micros = spec.filer ? kFilerFlushMicros : 0;
  options.write_threads = spec.writers;

  tpcc::Scale scale;
  scale.warehouses = spec.warehouses;
  const int64_t setup_start = NowNs();
  auto open = CompliantDB::Open(options);
  if (!open.ok()) return fail("open", open.status());
  std::unique_ptr<CompliantDB> db(open.value());
  r->write_threads = db->write_threads();
  r->shipper_mode = db->shipper_mode();
  r->scheduler_mode = db->scheduler_mode();
  tpcc::Workload workload(db.get(), scale, args.seed);
  Status s = workload.CreateOrAttachTables();
  if (s.ok()) s = workload.Load();
  if (!s.ok()) return fail("load", s);
  const int64_t setup_end = NowNs();
  r->setup_s = (setup_end - setup_start) / 1e9;
  if (main_spans != nullptr) {
    main_spans->Add("setup", round, -1, setup_start, setup_end);
  }

  // --- warm-up, then certify the load so the measured cert covers only
  // the window.
  WriterStats warm;
  {
    SlotDriver d(db.get(), &workload, &clock, args.seed, 0, args.warmup);
    RunSlots(&d, spec.writers, nullptr, &next_tid, &warm);
  }
  if (warm.failed > 0) {
    return fail("warm-up", Status::Corruption(warm.first_error));
  }
  auto warm_cert = db->AuditIncremental();
  if (!warm_cert.ok()) return fail("warm-up certification", warm_cert.status());
  auto cert_before = db->Certification();
  if (!cert_before.ok()) return fail("certification", cert_before.status());
  obs::MetricsRegistry::Global().ResetAll();
  obs::TraceRing::Global().Reset();
  obs::SpanRing::Global().Reset();

  // --- measured window
  const uint64_t slots = args.slots != 0 ? args.slots : spec.slots;
  WriterStats measured;
  std::vector<ReaderStats> reader_stats(spec.readers);
  std::atomic<bool> stop_readers{false};
  std::vector<std::thread> readers;
  const int64_t window_start = NowNs();
  for (uint32_t i = 0; i < spec.readers; ++i) {
    SpanBuffer* buf = nullptr;
    if (traced) {
      r->spans.push_back(std::make_unique<SpanBuffer>());
      buf = r->spans.back().get();
      buf->tid = next_tid++;
    }
    readers.emplace_back(ReaderLoop, db.get(), &workload, args.seed, i,
                         &stop_readers, buf, &reader_stats[i]);
  }
  {
    SlotDriver d(db.get(), &workload, &clock, args.seed, args.warmup, slots);
    for (auto& th : readers) {
      clockid_t cid;
      if (pthread_getcpuclockid(th.native_handle(), &cid) == 0) {
        d.reader_clocks.push_back(cid);
      }
    }
    RunSlots(&d, spec.writers, span_bufs, &next_tid, &measured);
    stop_readers.store(true, std::memory_order_release);
    for (auto& th : readers) th.join();
    r->read_wall_s = (NowNs() - window_start) / 1e9;
    r->slot_ns = std::move(d.slot_ns);
    for (size_t k = 1; k < d.mark_wall_ns.size(); ++k) {
      r->interval_wall_ns.push_back(d.mark_wall_ns[k] - d.mark_wall_ns[k - 1]);
      r->interval_cpu_ns.push_back(d.mark_cpu_ns[k] - d.mark_cpu_ns[k - 1]);
    }
  }
  r->registry_json = RegistryJson();

  r->slots = measured.slots;
  r->failed_slots = measured.failed;
  r->committed_new_orders =
      warm.committed_new_orders + measured.committed_new_orders;
  if (!measured.first_error.empty()) r->problems.push_back(measured.first_error);
  for (auto& rs : reader_stats) {
    r->reads += rs.reads;
    r->failed_reads += rs.failed;
    r->read_ns.insert(r->read_ns.end(), rs.read_ns.begin(), rs.read_ns.end());
    if (!rs.first_error.empty()) r->problems.push_back(rs.first_error);
  }

  auto cert_after = db->Certification();
  if (!cert_after.ok()) return fail("certification", cert_after.status());
  r->log_bytes = cert_after.value().log_size - cert_before.value().log_size;

  Status consistent =
      CheckConsistency(db.get(), workload, r->committed_new_orders);
  r->consistent = consistent.ok();
  if (!consistent.ok()) r->consistency_error = consistent.ToString();

  // --- certification of the window, then the full audit
  const int64_t cert_start = NowNs();
  auto cert = db->AuditIncremental();
  const int64_t cert_end = NowNs();
  if (!cert.ok()) return fail("certification", cert.status());
  r->cert_s = (cert_end - cert_start) / 1e9;
  r->cert_problems = cert.value().problems.size();
  r->cert_bytes = cert.value().bytes_replayed;
  r->cert_records = cert.value().records_replayed;
  for (const auto& p : cert.value().problems) r->problems.push_back(p);

  const int64_t audit_start = NowNs();
  auto audit = db->Audit();
  const int64_t audit_end = NowNs();
  if (!audit.ok()) return fail("audit", audit.status());
  r->audit_s = (audit_end - audit_start) / 1e9;
  r->audit_problems = audit.value().problems.size();
  r->audit_timings = audit.value().timings;
  for (const auto& p : audit.value().problems) r->problems.push_back(p);
  if (main_spans != nullptr) {
    main_spans->Add("audit.incremental", round, -1, cert_start, cert_end);
    main_spans->Add("audit.full", round, -1, audit_start, audit_end);
  }

  s = db->Close();
  if (!s.ok()) return fail("close", s);
  db.reset();
  std::filesystem::remove_all(dir);
}

// Median of 10k one-shot SHA-256 hashes of a 4 KiB page, in microseconds.
double Sha256PageProbe(SpanBuffer* spans) {
  std::string page(4096, '\0');
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<char>((i * 131 + 7) & 0xff);
  }
  std::vector<int64_t> ns;
  ns.reserve(10000);
  uint8_t sink = 0;
  const int64_t start = NowNs();
  for (int i = 0; i < 10000; ++i) {
    page[0] = static_cast<char>(i);
    const int64_t t0 = NowNs();
    Sha256Digest d = Sha256::Hash(Slice(page));
    ns.push_back(NowNs() - t0);
    sink ^= d[0];
  }
  if (spans != nullptr) spans->Add("crypto.sha256_probe", 0, -1, start, NowNs());
  if (sink == 0x5a) std::fputc('\0', stderr);  // keeps the hashes alive
  return Percentile(ns, 0.5) / 1e3;
}

std::string SpanTable(const std::vector<const RoundResult*>& traced) {
  std::map<std::string, std::vector<int64_t>> dur;
  std::map<std::string, int64_t> self_total;
  for (const RoundResult* r : traced) {
    for (const auto& buf : r->spans) CollectSpanTimes(*buf, &dur, &self_total);
  }
  std::string out = "{";
  bool first = true;
  for (auto& [name, v] : dur) {
    double sum = 0;
    for (int64_t x : v) sum += static_cast<double>(x);
    out += std::string(first ? "\"" : ",\"") + name + "\":{\"count\":" +
           std::to_string(v.size()) + ",\"mean_us\":" +
           Num(sum / v.size() / 1e3) + ",\"self_mean_us\":" +
           Num(static_cast<double>(self_total[name]) / v.size() / 1e3) +
           ",\"p50_us\":" + Num(Percentile(v, 0.5) / 1e3) +
           ",\"p99_us\":" + Num(Percentile(v, 0.99) / 1e3) + "}";
    first = false;
  }
  return out + "}";
}

// Chrome trace_event JSON of span buffers (chrome://tracing,
// ui.perfetto.dev): one track per benchmark thread, parent and slot number
// in each event's args.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanBuffer*>& bufs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  bool first = true;
  for (const SpanBuffer* buf : bufs) {
    for (size_t i = 0; i < buf->spans.size(); ++i) {
      const SpanRec& s = buf->spans[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"key\":%llu,"
                   "\"id\":%zu,\"parent\":%d}}",
                   first ? "" : ",\n", s.name, buf->tid, s.start_ns / 1e3,
                   (s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.key), i, s.parent);
      first = false;
    }
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

std::string RoundJson(uint32_t index, const RoundResult& r) {
  std::string out = "{\"round\":" + std::to_string(index) +
                    ",\"traced\":" + (r.traced ? "true" : "false") +
                    ",\"setup_s\":" + Num(r.setup_s) +
                    ",\"read_wall_s\":" + Num(r.read_wall_s) +
                    ",\"slots\":" + std::to_string(r.slots) +
                    ",\"failed_slots\":" + std::to_string(r.failed_slots) +
                    ",\"reads\":" + std::to_string(r.reads) +
                    ",\"failed_reads\":" + std::to_string(r.failed_reads) +
                    ",\"slot_ns\":" + IntArray(r.slot_ns) +
                    ",\"interval_wall_ns\":" + IntArray(r.interval_wall_ns) +
                    ",\"interval_cpu_ns\":" + IntArray(r.interval_cpu_ns) +
                    ",\"cert_s\":" + Num(r.cert_s) +
                    ",\"audit_s\":" + Num(r.audit_s) +
                    ",\"log_bytes\":" + std::to_string(r.log_bytes) +
                    ",\"cert_problems\":" + std::to_string(r.cert_problems) +
                    ",\"audit_problems\":" + std::to_string(r.audit_problems) +
                    ",\"consistent\":" + (r.consistent ? "true" : "false") +
                    ",\"consistency_error\":\"" +
                    JsonEscape(r.consistency_error) + "\",\"problems\":[";
  for (size_t i = 0; i < r.problems.size() && i < 5; ++i) {
    out += (i ? ",\"" : "\"") + JsonEscape(r.problems[i]) + "\"";
  }
  const AuditTimings& t = r.audit_timings;
  out += "],\"audit\":{\"summarize_s\":" + Num(t.summarize_seconds) +
         ",\"replay_s\":" + Num(t.replay_seconds) +
         ",\"final_state_s\":" + Num(t.final_state_seconds) +
         ",\"index_check_s\":" + Num(t.index_check_seconds) +
         ",\"incremental_bytes\":" + std::to_string(r.cert_bytes) +
         ",\"incremental_records\":" + std::to_string(r.cert_records) +
         "},\"registry\":" + r.registry_json + "}";
  return out;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--dir") {
      a->dir = v;
    } else if (flag == "--trace-json") {
      a->trace_json = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a->trace = v == "1";
    } else if (flag == "--slots") {
      a->slots = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--warmup") {
      a->warmup = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--min-rounds") {
      a->min_rounds = static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else {
      return false;
    }
  }
  return !a->workload.empty() && !a->dir.empty() && a->min_rounds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload NAME --dir DIR [--seed N] "
                 "[--seconds S] [--trace 0|1] [--slots N] [--warmup N] "
                 "[--min-rounds N] [--trace-json PATH]\n");
    return 2;
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  std::vector<std::unique_ptr<RoundResult>> rounds;
  const int64_t start = NowNs();
  double longest_s = 0;
  while (true) {
    const double elapsed = (NowNs() - start) / 1e9;
    if (rounds.size() >= args.min_rounds &&
        elapsed + longest_s > args.seconds) {
      break;
    }
    const uint32_t index = static_cast<uint32_t>(rounds.size());
    // Traced runs alternate traced and untraced rounds, so the tracing
    // overhead is measured within one process.
    const bool traced = args.trace && index % 2 == 0;
    const int64_t round_start = NowNs();
    rounds.push_back(std::make_unique<RoundResult>());
    RunRound(*spec, args, index, traced, rounds.back().get());
    longest_s = std::max(longest_s, (NowNs() - round_start) / 1e9);
    if (!rounds.back()->ok) {
      std::fprintf(stderr, "round %u failed: %s\n", index,
                   rounds.back()->error.c_str());
      return 1;
    }
  }

  // Reads are not aligned across rounds (their count depends on timing),
  // so their latencies are pooled over the untraced rounds.
  std::vector<const RoundResult*> traced;
  std::vector<int64_t> read_ns;
  for (const auto& r : rounds) {
    if (r->traced) {
      traced.push_back(r.get());
    } else {
      read_ns.insert(read_ns.end(), r->read_ns.begin(), r->read_ns.end());
    }
  }

  const RoundResult& first = *rounds.front();
  std::string out = "{\"workload\":\"" + args.workload +
                    "\",\"seed\":" + std::to_string(args.seed) +
                    ",\"trace\":" + (args.trace ? "1" : "0") +
                    ",\"build_type\":\"" BENCH_E2E_BUILD_TYPE "\"" +
                    ",\"writers\":" + std::to_string(spec->writers) +
                    ",\"readers\":" + std::to_string(spec->readers) +
                    ",\"warehouses\":" + std::to_string(spec->warehouses) +
                    ",\"cache_pages\":" + std::to_string(spec->cache_pages) +
                    ",\"write_threads\":" +
                    std::to_string(first.write_threads) +
                    ",\"shipper_mode\":\"" + first.shipper_mode +
                    "\",\"scheduler_mode\":\"" + first.scheduler_mode + "\"";

  SpanBuffer probe_spans;
  double sha_us = 0;
  if (args.trace) {
    SetTracing(true);
    sha_us = Sha256PageProbe(&probe_spans);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  uint64_t bench_spans = probe_spans.spans.size();
  for (const RoundResult* r : traced) {
    for (const auto& buf : r->spans) bench_spans += buf->spans.size();
  }
  out += ",\"peak_rss_mb\":" + Num(usage.ru_maxrss / 1024.0) +
         ",\"read\":" + LatencyJson(read_ns);
  if (args.trace) {
    out += ",\"sha256_page_us\":" + Num(sha_us) +
           ",\"bench_spans\":" + std::to_string(bench_spans) +
           ",\"spans\":" + SpanTable(traced);
  }
  out += ",\"rounds\":[";
  for (size_t i = 0; i < rounds.size(); ++i) {
    out += (i ? "," : "") + RoundJson(static_cast<uint32_t>(i), *rounds[i]);
  }
  out += "]}";

  if (args.trace && !args.trace_json.empty() && !traced.empty()) {
    // The last traced round's spans plus the probe, as one trace.
    std::vector<const SpanBuffer*> bufs;
    for (const auto& buf : traced.back()->spans) bufs.push_back(buf.get());
    bufs.push_back(&probe_spans);
    if (!WriteChromeTrace(args.trace_json, bufs)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_json.c_str());
      return 1;
    }
  }
  std::printf("%s\n", out.c_str());
  return 0;
}
