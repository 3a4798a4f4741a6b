#include "probes.h"

#include <functional>
#include <iostream>
#include <map>

#include "query/parser.h"
#include "record/record_codec.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "tstore/cold_tier.h"
#include "wal/wal.h"

namespace tcobbench {

using tcob::Status;
using tcob::Value;

namespace {

/// Times `reps` calls of fn, each under its own span, and returns the
/// median call time in microseconds. A failing call is reported and
/// ends the probe.
double TimeCalls(SpanRecorder::Lane* lane, const char* name, int reps,
                 const std::function<Status(int)>& fn) {
  std::vector<double> us;
  us.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    Span span(lane, name, static_cast<uint64_t>(i));
    const auto start = Clock::now();
    Status st = fn(i);
    us.push_back(MicrosSince(start));
    if (!st.ok()) {
      std::cerr << "probe " << name << " failed: " << st.ToString() << "\n";
      break;
    }
  }
  return Median(us);
}

template <typename T>
Status StatusOf(const tcob::Result<T>& r) {
  return r.ok() ? Status::OK() : r.status();
}

}  // namespace

void RunProbes(const ProbeInput& in, RunResult* result) {
  tcob::Database* db = in.db;
  SpanRecorder::Lane* lane = in.lane;
  Span phase(lane, "probe_phase", 0);
  const tcob::Catalog& catalog = db->catalog();
  const tcob::MoleculeTypeDef* mol =
      catalog.GetMoleculeTypeByName("DeptMol").value();
  const tcob::AtomTypeDef* emp_def = catalog.GetAtomTypeByName("Emp").value();
  const tcob::LinkTypeDef* dept_emp =
      catalog.GetLinkTypeByName("DeptEmp").value();
  const int heavy_reps = in.history ? 5 : 20;

  // ---- query ----
  {
    Span group(lane, "probe.query.parse", 0);
    const size_t n = in.statements.size();
    result->Add("query.parse_us",
                TimeCalls(lane, "Parser::Parse", 2000,
                          [&](int i) {
                            return StatusOf(
                                tcob::Parser::Parse(in.statements[i % n]));
                          }),
                "us");
  }

  // ---- mad ----
  double materialize_ms = 0;
  {
    Span group(lane, "probe.mad.materialize", 0);
    tcob::Materializer m = db->materializer();
    if (in.history) {
      materialize_ms =
          TimeCalls(lane, "Materializer::AllHistories", heavy_reps, [&](int) {
            return m.AllHistories(
                *mol, tcob::Interval::All(),
                [](tcob::MoleculeHistory) -> tcob::Result<bool> {
                  return true;
                });
          }) / 1000.0;
    } else {
      materialize_ms =
          TimeCalls(lane, "Materializer::AllMoleculesAsOf", heavy_reps,
                    [&](int) {
                      return m.AllMoleculesAsOf(
                          *mol, in.t,
                          [](tcob::Molecule) -> tcob::Result<bool> {
                            return true;
                          });
                    }) / 1000.0;
    }
    result->Add("mad.materialize_ms", materialize_ms, "ms");
  }
  {
    // The same molecules and instant through the whole statement path:
    // the difference is parse, plan, emit and aggregation.
    Span group(lane, "probe.query.exec", 0);
    const std::string sql =
        in.history ? "SELECT COUNT(*) FROM DeptMol GROUP BY ROOT HISTORY"
                   : "SELECT ALL FROM DeptMol VALID AT " +
                         std::to_string(in.t);
    const double stmt_ms =
        TimeCalls(lane, "Database::Execute", heavy_reps,
                  [&](int) { return StatusOf(db->Execute(sql)); }) /
        1000.0;
    result->Add("query.exec_overhead_ms", stmt_ms - materialize_ms, "ms");
  }
  {
    Span group(lane, "probe.mad.neighbors", 0);
    const auto& depts = in.ledger->depts;
    result->Add("mad.neighbors_us",
                TimeCalls(lane, "LinkStore::NeighborsAsOf",
                          static_cast<int>(depts.size()) * 20,
                          [&](int i) {
                            return StatusOf(db->links()->NeighborsAsOf(
                                *dept_emp, depts[i % depts.size()],
                                /*forward=*/true, in.t));
                          }),
                "us");
  }

  // ---- tstore ----
  auto count_versions = [](const tcob::AtomVersion&) -> tcob::Result<bool> {
    return true;
  };
  {
    Span group(lane, "probe.tstore.scan_as_of", 0);
    result->Add("tstore.scan_as_of_ms",
                TimeCalls(lane, "TemporalAtomStore::ScanAsOf", heavy_reps,
                          [&](int) {
                            return db->store()->ScanAsOf(*emp_def, in.t,
                                                         count_versions);
                          }) / 1000.0,
                "ms");
  }
  {
    Span group(lane, "probe.tstore.scan_versions", 0);
    result->Add("tstore.scan_versions_ms",
                TimeCalls(lane, "TemporalAtomStore::ScanVersions", heavy_reps,
                          [&](int) {
                            return db->store()->ScanVersions(
                                *emp_def, tcob::Interval::All(),
                                count_versions);
                          }) / 1000.0,
                "ms");
  }
  {
    Span group(lane, "probe.tstore.cold_collect", 0);
    // A workload without a cold tier measures the decode path on a
    // private one holding its Emps' closed versions.
    std::unique_ptr<tcob::DiskManager> fixture_disk;
    std::unique_ptr<tcob::BufferPool> fixture_pool;
    std::unique_ptr<tcob::ColdTier> fixture;
    const tcob::ColdTier* cold = db->cold_tier();
    if (cold == nullptr) {
      auto disk = tcob::DiskManager::Open(in.work_dir + "/cold_probe");
      if (disk.ok()) {
        fixture_disk = std::move(disk).value();
        fixture_pool =
            std::make_unique<tcob::BufferPool>(fixture_disk.get(), 1024);
        fixture = std::make_unique<tcob::ColdTier>(fixture_pool.get(),
                                                   "probe");
        std::map<AtomId, std::vector<tcob::AtomVersion>> closed;
        for (AtomId id : in.ledger->emps) {
          auto versions =
              db->store()->GetVersions(*emp_def, id, tcob::Interval::All());
          if (!versions.ok() || versions.value().size() < 2) continue;
          versions.value().pop_back();  // the live version stays hot
          closed.emplace(id, std::move(versions).value());
        }
        auto migrated = fixture->Migrate(*emp_def, closed, nullptr, 0);
        if (!migrated.ok()) {
          std::cerr << "cold probe fixture: " << migrated.status().ToString()
                    << "\n";
        }
        cold = fixture.get();
      }
    }
    double ms = 0;
    if (cold != nullptr) {
      ms = TimeCalls(lane, "ColdTier::CollectAll", heavy_reps, [&](int) {
             std::map<AtomId, std::vector<tcob::AtomVersion>> out;
             return cold->CollectAll(*emp_def, tcob::Interval::All(), &out);
           }) / 1000.0;
    }
    result->Add("tstore.cold_collect_ms", ms, "ms");
  }

  // ---- storage ----
  {
    Span group(lane, "probe.storage.read_page", 0);
    tcob::DiskManager* disk = db->disk();
    std::vector<std::pair<tcob::FileId, tcob::PageNo>> pages;
    const size_t files = disk->FileNames().size();
    for (size_t f = 0; f < files; ++f) {
      auto n = disk->NumPages(static_cast<tcob::FileId>(f));
      if (!n.ok()) continue;
      for (tcob::PageNo p = 0; p < n.value() && p < 256; ++p) {
        pages.emplace_back(static_cast<tcob::FileId>(f), p);
      }
    }
    std::vector<char> buf(tcob::kPageSize);
    double us = 0;
    if (!pages.empty()) {
      us = TimeCalls(lane, "DiskManager::ReadPage", 1000, [&](int i) {
        const auto& [file, page] = pages[i % pages.size()];
        return disk->ReadPage(file, page, buf.data());
      });
    }
    result->Add("storage.page_read_us", us, "us");
  }

  // ---- index ----
  {
    Span group(lane, "probe.index.lookup", 0);
    const tcob::AttrIndexDef* idx =
        catalog.GetAttrIndexByName("idx_region").value();
    result->Add("index.lookup_us",
                TimeCalls(lane, "AttrIndexManager::LookupAsOf", 400,
                          [&](int i) {
                            tcob::ValueRange range;
                            range.lower = Value::Int(i % 8);
                            range.upper = Value::Int(i % 8);
                            range.upper_inclusive = true;
                            return StatusOf(db->attr_indexes()->LookupAsOf(
                                *idx, range, in.t));
                          }),
                "us");
  }

  // ---- record ----
  {
    Span group(lane, "probe.record.decode", 0);
    const std::vector<tcob::AttrType> schema = emp_def->AttrTypes();
    std::vector<std::string> encoded;
    for (AtomId id : in.ledger->emps) {
      const LAtom& atom = in.ledger->atoms.at(id);
      for (const LVersion& v : atom.versions) {
        std::string out;
        Status st = tcob::EncodeValues(
            schema,
            {Value::String(atom.name), Value::Int(v.a), Value::Int(v.b)},
            &out);
        if (st.ok()) encoded.push_back(std::move(out));
        if (encoded.size() >= 2000) break;
      }
      if (encoded.size() >= 2000) break;
    }
    // One timed call decodes the whole sample; report per record.
    const double batch_us =
        TimeCalls(lane, "DecodeValues x sample", 20, [&](int) {
          for (const std::string& rec : encoded) {
            tcob::Slice input(rec);
            Status st = StatusOf(tcob::DecodeValues(schema, &input));
            if (!st.ok()) return st;
          }
          return Status::OK();
        });
    result->Add("record.decode_ns",
                Ratio(batch_us * 1000.0, static_cast<double>(encoded.size())),
                "ns");
  }

  // ---- wal (a private log: the device floor) ----
  double fsync_us = 0;
  {
    Span group(lane, "probe.wal", 0);
    auto wal = tcob::WriteAheadLog::Open(in.work_dir + "/probe.wal");
    double append_us = 0;
    if (wal.ok()) {
      const std::string payload(128, 'x');
      append_us = TimeCalls(lane, "WriteAheadLog::Append", 300, [&](int) {
        return wal.value()->Append(tcob::Slice(payload));
      });
      fsync_us = TimeCalls(lane, "WriteAheadLog::Sync", 300, [&](int) {
        Status st = wal.value()->Append(tcob::Slice(payload));
        return st.ok() ? wal.value()->Sync() : st;
      });
    }
    result->Add("wal.append_us", append_us, "us");
    result->Add("wal.fsync_us", fsync_us, "us");
  }

  // ---- db (writes last) ----
  {
    Span group(lane, "probe.db", 0);
    const auto& emps = in.ledger->emps;
    int next = 0;
    auto salary = [&]() { return Value::Int(kSalaryMin + next % 1000); };
    std::vector<double> buffer_us;
    std::vector<double> commit_us;
    for (int i = 0; i < 60; ++i) {
      Span txn_span(lane, "probe.txn", static_cast<uint64_t>(i));
      auto start = Clock::now();
      tcob::Transaction txn = db->Begin();
      Status st;
      {
        Span s(lane, "Begin+buffer", static_cast<uint64_t>(i));
        for (int k = 0; k < 3 && st.ok(); ++k, ++next) {
          st = txn.UpdateAtom("Emp", emps[next % emps.size()],
                              {{"salary", salary()}}, db->Now(), true);
        }
      }
      buffer_us.push_back(MicrosSince(start));
      start = Clock::now();
      {
        Span s(lane, "Transaction::Commit", static_cast<uint64_t>(i));
        if (st.ok()) st = txn.Commit();
      }
      commit_us.push_back(MicrosSince(start));
      if (!st.ok()) {
        std::cerr << "probe txn failed: " << st.ToString() << "\n";
        break;
      }
    }
    const double commit = Median(commit_us);
    result->Add("db.buffer_us", Median(buffer_us), "us");
    result->Add("db.commit_us", commit, "us");
    result->Add("db.commit_minus_fsync_us", commit - fsync_us, "us");
    result->Add("db.autocommit_us",
                TimeCalls(lane, "Database::UpdateAtom", 60,
                          [&](int) {
                            ++next;
                            return db->UpdateAtom(
                                "Emp", emps[next % emps.size()],
                                {{"salary", salary()}}, db->Now(), true);
                          }),
                "us");
  }
}

void AddCounterRatios(const tcob::MetricsSnapshot& before,
                      const tcob::MetricsSnapshot& after, uint64_t ops,
                      uint64_t commits, RunResult* result) {
  auto d = [&](const char* name) {
    return static_cast<double>(CounterDelta(before, after, name));
  };
  const double n = static_cast<double>(ops);
  const double c = static_cast<double>(commits);
  result->Add("mad.versions_pinned_per_op",
              Ratio(d("tcob_vcache_versions_pinned_total"), n), "count");
  const double link_hits = d("tcob_vcache_link_hits_total");
  result->Add("mad.link_hit_rate",
              Ratio(link_hits, link_hits + d("tcob_vcache_link_misses_total")),
              "ratio");
  result->Add("tstore.get_versions_per_op",
              Ratio(d("tcob_store_get_versions_total"), n), "count");
  result->Add("tstore.cold_versions_read_per_op",
              Ratio(d("tcob_cold_versions_read_total"), n), "count");
  const double pruned = d("tcob_cold_segments_pruned_total");
  result->Add("tstore.cold_pruned_ratio",
              Ratio(pruned, pruned + d("tcob_cold_segments_scanned_total")),
              "ratio");
  result->Add("storage.pool_hit_rate",
              Ratio(d("tcob_pool_hits_total"), d("tcob_pool_fetches_total")),
              "ratio");
  result->Add("storage.pool_misses_per_op",
              Ratio(d("tcob_pool_misses_total"), n), "count");
  result->Add("storage.pages_written_per_commit",
              Ratio(d("tcob_disk_writes_total"), c), "count");
  result->Add("wal.fsyncs_per_commit", Ratio(d("tcob_wal_syncs_total"), c),
              "count");
  const auto [groups, members] =
      HistogramDelta(before, after, "tcob_wal_group_commit_size");
  result->Add("wal.group_size_mean",
              Ratio(static_cast<double>(members), static_cast<double>(groups)),
              "count");
  result->Add("wal.bytes_per_commit",
              Ratio(d("tcob_wal_appended_bytes_total"), c), "bytes");
}

}  // namespace tcobbench
