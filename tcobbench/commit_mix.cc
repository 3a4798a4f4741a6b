// commit_mix: writer threads on disjoint atoms, each a closed loop of
// two small explicit transactions and one auto-commit update, with a
// synchronous WAL. Afterwards the database is closed, reopened
// and compared with the writers' ledger of acknowledged commits.
#include <iostream>
#include <map>
#include <thread>

#include "ledger.h"
#include "probes.h"
#include "workloads.h"

namespace tcobbench {

using tcob::Status;
using tcob::Value;

namespace {

constexpr int kWriters = 3;
/// One round of a writer: kTxnsPerRound transactions, then one
/// auto-commit update. Two to one puts the median inside the
/// transaction class, not on the boundary between the two classes.
constexpr int kTxnsPerRound = 2;
constexpr int kInsertsPerTxn = 3;

/// What one writer has had acknowledged.
struct WriterLedger {
  std::vector<AtomId> emps;                 // the writer's own Emps
  std::map<AtomId, int64_t> salary;         // last acknowledged salary
  std::map<AtomId, uint64_t> new_versions;  // acknowledged versions
  size_t inserted = 0;
  uint64_t commits = 0;  // acknowledged transactions + auto-commits
  std::vector<double> latency_us;
  std::vector<double> txn_us;
  std::vector<double> auto_us;
  SpanRecorder::Lane* lane = nullptr;
};

// The writers issue no operation that reads the stores outside the
// engine's writer mutex: a transaction's buffered UpdateAtom/Connect
// reads them unlocked and races with another writer's commit apply
// (see the FOUND line in CHANGES.md). So transactions insert, and the
// auto-commit update is the positional one, with every value known.
void Writer(tcob::Database* db, const Ledger* ledger, int w, uint64_t seed,
            Clock::time_point start, int seconds, WriterLedger* me,
            RunResult* failures, std::mutex* failures_mu) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1000 + w);
  auto fail = [&](const std::string& what) {
    std::lock_guard<std::mutex> lk(*failures_mu);
    failures->Failed(what);
  };
  size_t cursor = 0;
  uint64_t op = static_cast<uint64_t>(w) << 40;
  while (SecondsSince(start) < seconds) {
    for (int rep = 0; rep < kTxnsPerRound; ++rep) {
      ++op;
      Span span(me->lane, "txn", op);
      const auto t0 = Clock::now();
      tcob::Transaction txn = db->Begin();
      std::map<AtomId, int64_t> wrote;
      Status st;
      {
        Span buffer(me->lane, "Begin+buffer", op);
        for (int k = 0; k < kInsertsPerTxn && st.ok(); ++k) {
          const int64_t salary = Draw(&rng, kSalaryMin, kSalaryMax);
          const std::string name = "new-" + std::to_string(w) + "-" +
                                   std::to_string(me->inserted + k);
          auto id = txn.InsertAtom("Emp",
                                   {{"name", Value::String(name)},
                                    {"salary", Value::Int(salary)},
                                    {"rank", Value::Int(1)}},
                                   db->Now(), true);
          st = id.ok() ? Status::OK() : id.status();
          if (st.ok()) wrote[id.value()] = salary;
        }
      }
      if (st.ok()) {
        Span commit(me->lane, "Transaction::Commit", op);
        st = txn.Commit();
      }
      me->latency_us.push_back(MicrosSince(t0));
      me->txn_us.push_back(me->latency_us.back());
      if (!st.ok()) {
        fail("transaction: " + st.ToString());
        continue;
      }
      for (const auto& [id, salary] : wrote) {
        me->salary[id] = salary;
        me->new_versions[id] = 1;
      }
      me->inserted += wrote.size();
      ++me->commits;
    }
    ++op;
    Span span(me->lane, "Database::UpdateAtomValues", op);
    const AtomId emp = me->emps[cursor++ % me->emps.size()];
    const LAtom& atom = ledger->atoms.at(emp);
    const int64_t salary = Draw(&rng, kSalaryMin, kSalaryMax);
    const auto t0 = Clock::now();
    Status st = db->UpdateAtomValues(
        "Emp", emp,
        {Value::String(atom.name), Value::Int(salary),
         Value::Int(atom.versions.back().b)},
        db->Now(), true);
    me->latency_us.push_back(MicrosSince(t0));
    me->auto_us.push_back(me->latency_us.back());
    if (!st.ok()) {
      fail("auto-commit update: " + st.ToString());
      continue;
    }
    me->salary[emp] = salary;
    ++me->new_versions[emp];
    ++me->commits;
  }
}

}  // namespace

RunResult RunCommitMix(const RunConfig& cfg) {
  RunResult result;
  const std::string db_dir = cfg.work_dir + "/db";
  std::mt19937_64 rng(cfg.seed * 0x9e3779b97f4a7c15ull + 29);
  Shape shape;
  shape.depts = 30;
  shape.emps_per_dept = 10;
  shape.projs_per_emp = 2;
  shape.rounds = 6;
  shape.swaps_per_round = 0;
  tcob::DatabaseOptions options;
  options.parallelism = 1;
  options.buffer_pool_pages = 4096;

  // ---- setup: load without fsyncs, then reopen with a synchronous WAL ----
  Ledger ledger;
  {
    auto opened = tcob::Database::Open(db_dir, options);
    if (!opened.ok()) {
      result.Failed("open: " + opened.status().ToString());
      return result;
    }
    std::unique_ptr<tcob::Database> db = std::move(opened).value();
    Status st = LoadDatabase(db.get(), shape, &rng, &ledger);
    if (st.ok()) {
      st = db->CreateAttrIndex("idx_region", "Dept", "region").status();
    }
    if (st.ok()) st = db->Checkpoint();
    if (!st.ok()) {
      result.Failed("setup: " + st.ToString());
      return result;
    }
  }
  options.sync_wal = true;
  auto reopened = tcob::Database::Open(db_dir, options);
  if (!reopened.ok()) {
    result.Failed("reopen: " + reopened.status().ToString());
    return result;
  }
  std::unique_ptr<tcob::Database> db = std::move(reopened).value();
  const double setup_s = SecondsSince(cfg.process_start);
  const uint64_t stored_bytes = DirBytes(db_dir);

  // Disjoint ownership: writer w owns the Depts d with d % kWriters == w
  // and their Emps (no Emp changes Dept in this shape).
  std::vector<WriterLedger> writers(kWriters);
  const Timestamp now = db->Now();
  for (size_t d = 0; d < ledger.depts.size(); ++d) {
    WriterLedger& w = writers[d % kWriters];
    for (const auto& [id, kind] : ledger.MembersAt(ledger.depts[d], now)) {
      if (kind == kEmp) w.emps.push_back(id);
    }
  }

  SpanRecorder spans(cfg.process_start);
  if (cfg.trace) {
    for (WriterLedger& w : writers) w.lane = spans.NewLane();
  }
  std::mutex failures_mu;
  const tcob::MetricsSnapshot before = db->MetricsSnapshot();
  const double cpu_before = ProcessCpuSeconds();
  const auto start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back(Writer, db.get(), &ledger, w, cfg.seed, start,
                           cfg.seconds,
                           &writers[w], &result, &failures_mu);
    }
    for (std::thread& t : threads) t.join();
  }
  TimedPhase phase;
  phase.wall_s = SecondsSince(start);
  phase.cpu_s = ProcessCpuSeconds() - cpu_before;
  const tcob::MetricsSnapshot after = db->MetricsSnapshot();
  uint64_t commits = 0;
  for (const WriterLedger& w : writers) {
    phase.latency_us.insert(phase.latency_us.end(), w.latency_us.begin(),
                            w.latency_us.end());
    commits += w.commits;
  }
  phase.ops = phase.latency_us.size();
  result.attempted = phase.ops;
  {
    std::vector<double> txn, autoc;
    for (const WriterLedger& w : writers) {
      txn.insert(txn.end(), w.txn_us.begin(), w.txn_us.end());
      autoc.insert(autoc.end(), w.auto_us.begin(), w.auto_us.end());
    }
    std::cerr << "txn: n=" << txn.size() << " p50_ms=" << Median(txn) / 1000
              << " p99_ms=" << Quantile(txn, 0.99) / 1000 << "\nautocommit: n="
              << autoc.size() << " p50_ms=" << Median(autoc) / 1000
              << " p99_ms=" << Quantile(autoc, 0.99) / 1000 << "\n";
  }

  // ---- durability: close, reopen, compare with acknowledged commits ----
  db.reset();
  reopened = tcob::Database::Open(db_dir, options);
  if (!reopened.ok()) {
    result.Wrong("reopen after the timed phase: " +
                 reopened.status().ToString());
    return result;
  }
  db = std::move(reopened).value();
  // Per atom: versions = loaded + acknowledged, latest value = the last
  // acknowledged one. Totals over every atom the ledger knows.
  std::map<AtomId, uint64_t> want_versions;
  std::map<AtomId, int64_t> want_salary;
  for (const auto& [id, atom] : ledger.atoms) {
    want_versions[id] = atom.versions.size();
    if (atom.kind == kEmp) want_salary[id] = atom.versions.back().a;
  }
  for (const WriterLedger& w : writers) {
    for (const auto& [id, n] : w.new_versions) want_versions[id] += n;
    for (const auto& [id, salary] : w.salary) want_salary[id] = salary;
  }
  if (cfg.plant_wrong_answer) want_versions.begin()->second += 1;
  uint64_t want_total = 0;
  uint64_t got_total = 0;
  for (const auto& [id, want] : want_versions) {
    const int kind = ledger.atoms.count(id) ? ledger.atoms.at(id).kind : kEmp;
    const tcob::AtomTypeDef* type =
        db->catalog().GetAtomTypeByName(KindName(kind)).value();
    auto versions = db->store()->GetVersions(*type, id, tcob::Interval::All());
    const uint64_t got = versions.ok() ? versions.value().size() : 0;
    want_total += want;
    got_total += got;
    if (got != want) {
      result.Wrong("atom " + std::to_string(id) + ": expected " +
                   std::to_string(want) + " versions after reopen, got " +
                   std::to_string(got));
    } else if (kind == kEmp &&
               versions.value().back().attrs[1].AsInt() != want_salary[id]) {
      result.Wrong("atom " + std::to_string(id) +
                   " lost its last acknowledged salary");
    }
  }
  if (got_total != want_total) {
    result.Wrong("versions after reopen: expected " +
                 std::to_string(want_total) + ", got " +
                 std::to_string(got_total));
  }
  // The inserted Emps belong to no molecule; the loaded ones do.
  int64_t want_emps = 0;
  double want_sum = 0;
  for (AtomId id : ledger.emps) {
    ++want_emps;
    want_sum += static_cast<double>(want_salary[id]);
  }
  auto sums = db->Execute(
      "SELECT COUNT(*), SUM(Emp.salary) FROM DeptMol VALID AT NOW");
  if (!sums.ok() || sums.value().rows.size() != 1 ||
      sums.value().rows[0][0].AsInt() != want_emps ||
      sums.value().rows[0][1].NumericValue() != want_sum) {
    result.Wrong("Emp count and salary sum at NOW differ after reopen");
  }
  Status integrity = db->VerifyIntegrity();
  if (!integrity.ok()) result.Wrong("integrity: " + integrity.ToString());

  if (!cfg.trace) {
    AddEndToEnd(phase, setup_s, 0.99, stored_bytes, &result);
    return result;
  }
  result.Add("trace.ops_per_s",
             Ratio(static_cast<double>(phase.ops), phase.wall_s), "1/s");
  AddCounterRatios(before, after, phase.ops, commits, &result);
  ProbeInput in;
  in.db = db.get();
  in.ledger = &ledger;
  in.t = db->Now();
  in.statements = {
      "UPDATE ATOM Emp " + std::to_string(ledger.emps[0]) +
          " SET salary=2000 VALID FROM NOW",
      "INSERT ATOM Emp (name='new', salary=1000, rank=1) VALID FROM NOW",
      "CONNECT DeptEmp FROM " + std::to_string(ledger.depts[0]) + " TO " +
          std::to_string(ledger.emps[0]) + " VALID FROM NOW",
  };
  in.work_dir = cfg.work_dir;
  in.lane = spans.NewLane();
  RunProbes(in, &result);
  const std::string stem = cfg.out_dir + "/" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed);
  Status st = spans.WriteJson(stem + "-spans.json");
  if (st.ok()) st = db->DumpTraceToFile(stem + "-engine.json");
  if (!st.ok()) std::cerr << "trace files: " << st.ToString() << "\n";
  return result;
}

}  // namespace tcobbench
