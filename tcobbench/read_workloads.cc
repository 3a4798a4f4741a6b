// slice_now and history_cold: one closed-loop client running a fixed
// round-robin mix of MQL statements.
#include <cmath>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>

#include "ledger.h"
#include "probes.h"
#include "workloads.h"

namespace tcobbench {

using tcob::ResultSet;
using tcob::Value;

void AddEndToEnd(const TimedPhase& phase, double setup_s, double tail_q,
                 uint64_t stored_bytes, RunResult* result) {
  const double n = static_cast<double>(phase.ops);
  if (n * (1.0 - tail_q) < 10) {
    std::cerr << "warning: only " << phase.ops << " samples for p"
              << tail_q * 100 << "\n";
  }
  result->Add("setup_s", setup_s, "s");
  result->Add("ops_per_s", Ratio(n, phase.wall_s), "1/s");
  result->Add("latency_p50_ms", Quantile(phase.latency_us, 0.5) / 1000.0,
              "ms");
  result->Add("latency_tail_ms", Quantile(phase.latency_us, tail_q) / 1000.0,
              "ms");
  result->Add("cpu_ms_per_op", Ratio(phase.cpu_s * 1000.0, n), "ms");
  result->Add("stored_bytes", static_cast<double>(stored_bytes), "bytes");
  result->Add("peak_rss_mb", PeakRssMb(), "MiB");
}

namespace {

/// One statement of a mix and the check of its answer (empty = right).
struct ReadOp {
  const char* kind;
  std::string sql;
  std::function<std::string(const ResultSet&)> check;
};
using Round = std::vector<ReadOp>;

int Column(const ResultSet& rs, const std::string& name) {
  for (size_t i = 0; i < rs.columns.size(); ++i) {
    if (rs.columns[i] == name) return static_cast<int>(i);
  }
  return -1;
}

std::string Mismatch(const char* what, double want, double got) {
  std::ostringstream os;
  os.precision(17);
  os << what << ": expected " << want << ", got " << got;
  return os.str();
}

std::string DigestMismatch(const Digest& want, const Digest& got) {
  if (want.rows != got.rows) {
    return Mismatch("row count", static_cast<double>(want.rows),
                    static_cast<double>(got.rows));
  }
  return want == got ? "" : "row contents differ";
}

int KindOf(const std::string& type) {
  for (int k = kDept; k <= kProj; ++k) {
    if (type == KindName(k)) return k;
  }
  return -1;
}

std::function<std::string(const ResultSet&)> ExpectAll(Digest want) {
  return [want](const ResultSet& rs) -> std::string {
    const int root = Column(rs, "ROOT");
    const int atom = Column(rs, "ATOM");
    const int type = Column(rs, "TYPE");
    if (root < 0 || atom < 0 || type < 0) return "missing columns";
    Digest got;
    for (const auto& row : rs.rows) {
      got.Add(AllRowHash(row[root].AsId(), row[atom].AsId(),
                         KindOf(row[type].AsString())));
    }
    return DigestMismatch(want, got);
  };
}

std::function<std::string(const ResultSet&)> ExpectEmps(Digest want) {
  return [want](const ResultSet& rs) -> std::string {
    const int root = Column(rs, "ROOT");
    const int name = Column(rs, "Emp.name");
    const int salary = Column(rs, "Emp.salary");
    if (root < 0 || name < 0 || salary < 0) return "missing columns";
    Digest got;
    for (const auto& row : rs.rows) {
      got.Add(EmpRowHash(row[root].AsId(), row[name].AsString(),
                         row[salary].AsInt()));
    }
    return DigestMismatch(want, got);
  };
}

/// One aggregate row: COUNT(*) then SUMs of the named columns.
std::function<std::string(const ResultSet&)> ExpectAggregate(
    int64_t count, std::vector<std::pair<std::string, double>> sums) {
  return [count, sums](const ResultSet& rs) -> std::string {
    if (rs.rows.size() != 1) {
      return Mismatch("aggregate rows", 1, static_cast<double>(rs.rows.size()));
    }
    const auto& row = rs.rows[0];
    const int c = Column(rs, "COUNT(*)");
    if (c < 0) return "missing COUNT(*)";
    if (row[c].AsInt() != count) {
      return Mismatch("COUNT(*)", static_cast<double>(count),
                      static_cast<double>(row[c].AsInt()));
    }
    for (const auto& [name, want] : sums) {
      const int col = Column(rs, name);
      if (col < 0) return "missing " + name;
      const double got = row[col].is_null() ? 0 : row[col].NumericValue();
      if (got != want) return Mismatch(name.c_str(), want, got);
    }
    return "";
  };
}

/// GROUP BY ROOT counts: one (ROOT, COUNT(*)) row per Dept.
std::function<std::string(const ResultSet&)> ExpectGroupCounts(
    std::map<AtomId, int64_t> want) {
  return [want](const ResultSet& rs) -> std::string {
    const int root = Column(rs, "ROOT");
    const int c = Column(rs, "COUNT(*)");
    if (root < 0 || c < 0) return "missing columns";
    std::map<AtomId, int64_t> got;
    for (const auto& row : rs.rows) got[row[root].AsId()] = row[c].AsInt();
    if (got.size() != want.size()) {
      return Mismatch("roots", static_cast<double>(want.size()),
                      static_cast<double>(got.size()));
    }
    for (const auto& [id, n] : want) {
      auto it = got.find(id);
      if (it == got.end()) return "root " + std::to_string(id) + " missing";
      if (it->second != n) {
        return Mismatch(("states of root " + std::to_string(id)).c_str(),
                        static_cast<double>(n),
                        static_cast<double>(it->second));
      }
    }
    return "";
  };
}

/// VALID IN [begin, end) rows (ROOT, VALID_FROM, VALID_TO, Dept.budget):
/// every state lies inside the window, states of one root do not
/// overlap, and each root's states are exactly the ledger's.
std::function<std::string(const ResultSet&)> ExpectWindow(
    Timestamp begin, Timestamp end,
    std::map<AtomId, std::vector<LState>> want) {
  return [=](const ResultSet& rs) -> std::string {
    const int root = Column(rs, "ROOT");
    const int from = Column(rs, "VALID_FROM");
    const int to = Column(rs, "VALID_TO");
    const int budget = Column(rs, "Dept.budget");
    if (root < 0 || from < 0 || to < 0 || budget < 0) return "missing columns";
    size_t want_rows = 0;
    for (const auto& [id, states] : want) want_rows += states.size();
    if (rs.rows.size() != want_rows) {
      return Mismatch("row count", static_cast<double>(want_rows),
                      static_cast<double>(rs.rows.size()));
    }
    std::map<AtomId, std::map<Timestamp, LState>> got;
    for (const auto& row : rs.rows) {
      LState s{row[from].AsTime(), row[to].AsTime(), row[budget].AsInt()};
      if (s.begin < begin || s.end > end || s.begin >= s.end) {
        return "state [" + std::to_string(s.begin) + ", " +
               std::to_string(s.end) + ") outside the window";
      }
      got[row[root].AsId()][s.begin] = s;
    }
    for (const auto& [id, states] : got) {
      Timestamp last_end = begin;
      for (const auto& [b, s] : states) {
        if (b < last_end) {
          return "overlapping states of root " + std::to_string(id);
        }
        last_end = s.end;
      }
    }
    for (const auto& [id, states] : want) {
      const auto& mine = got[id];
      if (mine.size() != states.size()) {
        return Mismatch(("states of root " + std::to_string(id)).c_str(),
                        static_cast<double>(states.size()),
                        static_cast<double>(mine.size()));
      }
      for (const LState& s : states) {
        auto it = mine.find(s.begin);
        if (it == mine.end() || it->second.end != s.end ||
            it->second.dept_budget != s.dept_budget) {
          return "state at " + std::to_string(s.begin) + " of root " +
                 std::to_string(id) + " differs";
        }
      }
    }
    return "";
  };
}

/// Every row rendered as text, in result order.
std::vector<std::string> RowsAsText(const std::vector<std::vector<Value>>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const auto& row : rows) {
    std::string line;
    for (const Value& v : row) line += v.ToString() + "|";
    out.push_back(std::move(line));
  }
  return out;
}

/// What distinguishes slice_now from history_cold.
struct ReadSpec {
  Shape shape;
  tcob::DatabaseOptions options;
  /// Tail percentile reported as latency_tail_ms.
  double tail_q = 0.99;
  bool history = false;
  std::function<std::vector<Round>(const Ledger&, tcob::Database*,
                                   std::mt19937_64*, bool plant)>
      build_rounds;
};

RunResult RunRead(const RunConfig& cfg, const ReadSpec& spec) {
  RunResult result;
  const std::string db_dir = cfg.work_dir + "/db";
  std::mt19937_64 rng(cfg.seed * 0x9e3779b97f4a7c15ull + 17);

  // ---- setup: open, load, index, tier migration, checkpoint ----
  auto opened = tcob::Database::Open(db_dir, spec.options);
  if (!opened.ok()) {
    result.Failed("open: " + opened.status().ToString());
    return result;
  }
  std::unique_ptr<tcob::Database> db = std::move(opened).value();
  Ledger ledger;
  tcob::Status st = LoadDatabase(db.get(), spec.shape, &rng, &ledger);
  if (st.ok()) {
    st = db->CreateAttrIndex("idx_region", "Dept", "region").status();
  }
  if (st.ok() && spec.options.tiering.enabled) {
    st = db->TierMigrate().status();
  }
  if (st.ok()) st = db->Checkpoint();
  if (!st.ok()) {
    result.Failed("setup: " + st.ToString());
    return result;
  }
  const double setup_s = SecondsSince(cfg.process_start);
  const uint64_t stored_bytes = DirBytes(db_dir);
  if (db->Now() != ledger.last_time + 1) {
    result.Wrong(Mismatch("clock after load",
                          static_cast<double>(ledger.last_time + 1),
                          static_cast<double>(db->Now())));
  }

  const std::vector<Round> rounds =
      spec.build_rounds(ledger, db.get(), &rng, cfg.plant_wrong_answer);

  std::map<std::string, std::vector<double>> by_kind;
  auto run_op = [&](const ReadOp& op, uint64_t id, SpanRecorder::Lane* lane,
                    TimedPhase* phase) {
    const auto start = Clock::now();
    tcob::Result<ResultSet> rs = [&] {
      Span span(lane, op.kind, id);
      return db->Execute(op.sql);
    }();
    const double us = MicrosSince(start);
    if (phase != nullptr) {
      phase->latency_us.push_back(us);
      ++phase->ops;
      by_kind[op.kind].push_back(us);
    }
    if (!rs.ok()) {
      if (phase != nullptr) {
        result.Failed(op.sql + ": " + rs.status().ToString());
      } else {
        result.Wrong("warm-up " + op.sql + ": " + rs.status().ToString());
      }
      return;
    }
    Span span(lane, "check", id);
    const std::string err = op.check(rs.value());
    if (!err.empty()) result.Wrong(op.sql + ": " + err);
  };

  // ---- warm-up: every round once ----
  for (const Round& round : rounds) {
    for (const ReadOp& op : round) run_op(op, 0, nullptr, nullptr);
  }

  // ---- timed phase: whole rounds until the run's time is up ----
  SpanRecorder spans(cfg.process_start);
  SpanRecorder::Lane* lane = cfg.trace ? spans.NewLane() : nullptr;
  TimedPhase phase;
  const tcob::MetricsSnapshot before = db->MetricsSnapshot();
  const double cpu_before = ProcessCpuSeconds();
  const auto start = Clock::now();
  uint64_t next_id = 1;
  for (size_t r = 0; SecondsSince(start) < cfg.seconds; ++r) {
    for (const ReadOp& op : rounds[r % rounds.size()]) {
      run_op(op, next_id++, lane, &phase);
    }
  }
  phase.wall_s = SecondsSince(start);
  phase.cpu_s = ProcessCpuSeconds() - cpu_before;
  const tcob::MetricsSnapshot after = db->MetricsSnapshot();
  result.attempted = phase.ops;
  for (const auto& [kind, us] : by_kind) {
    std::cerr << kind << ": n=" << us.size() << " p50_ms=" << Median(us) / 1000
              << " p99_ms=" << Quantile(us, 0.99) / 1000 << "\n";
  }

  // ---- properties: cursor == Execute; serial == parallel ----
  std::vector<std::vector<std::string>> parallel_rows;
  for (const ReadOp& op : rounds[0]) {
    auto executed = db->Execute(op.sql);
    auto cursor = db->Query(op.sql);
    if (!executed.ok() || !cursor.ok()) {
      result.Wrong("property check of " + op.sql + " did not run");
      continue;
    }
    std::vector<std::vector<Value>> pulled;
    std::vector<Value> row;
    for (;;) {
      auto more = cursor.value()->Next(&row);
      if (!more.ok()) {
        result.Wrong("cursor of " + op.sql + ": " + more.status().ToString());
        break;
      }
      if (!more.value()) break;
      pulled.push_back(row);
    }
    cursor.value()->Close();
    parallel_rows.push_back(RowsAsText(executed.value().rows));
    if (RowsAsText(pulled) != parallel_rows.back()) {
      result.Wrong("Query() cursor and Execute() disagree on " + op.sql);
    }
  }
  if (spec.options.parallelism > 1) {
    // A second, serial, read-only instance over the same files.
    tcob::DatabaseOptions serial = spec.options;
    serial.parallelism = 1;
    serial.read_only = true;
    auto other = tcob::Database::Open(db_dir, serial);
    if (!other.ok()) {
      result.Wrong("serial reopen: " + other.status().ToString());
    } else {
      for (size_t i = 0; i < rounds[0].size(); ++i) {
        auto rs = other.value()->Execute(rounds[0][i].sql);
        if (!rs.ok() || RowsAsText(rs.value().rows) != parallel_rows[i]) {
          result.Wrong("serial and parallel execution disagree on " +
                       rounds[0][i].sql);
        }
      }
    }
  }

  if (!cfg.trace) {
    AddEndToEnd(phase, setup_s, spec.tail_q, stored_bytes, &result);
    return result;
  }

  // ---- traced run: per-layer numbers and the span files ----
  result.Add("trace.ops_per_s",
             Ratio(static_cast<double>(phase.ops), phase.wall_s), "1/s");
  AddCounterRatios(before, after, phase.ops, /*commits=*/0, &result);
  ProbeInput in;
  in.db = db.get();
  in.ledger = &ledger;
  in.t = spec.history ? ledger.first_time + spec.shape.stride * 3 / 2
                      : db->Now();
  for (const Round& round : rounds) {
    for (const ReadOp& op : round) in.statements.push_back(op.sql);
  }
  in.history = spec.history;
  in.work_dir = cfg.work_dir;
  in.lane = lane;
  RunProbes(in, &result);
  const std::string stem = cfg.out_dir + "/" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed);
  st = spans.WriteJson(stem + "-spans.json");
  if (st.ok()) st = db->DumpTraceToFile(stem + "-engine.json");
  if (!st.ok()) std::cerr << "trace files: " << st.ToString() << "\n";
  return result;
}

}  // namespace

RunResult RunSliceNow(const RunConfig& cfg) {
  ReadSpec spec;
  spec.shape.depts = 32;
  spec.shape.emps_per_dept = 8;
  spec.shape.projs_per_emp = 2;
  spec.shape.rounds = 8;
  spec.shape.swaps_per_round = 2;
  spec.options.parallelism = 1;
  spec.options.buffer_pool_pages = 8192;  // 32 MiB: the database fits
  spec.tail_q = 0.99;
  spec.build_rounds = [](const Ledger& ledger, tcob::Database* db,
                         std::mt19937_64*, bool plant) {
    const Timestamp now = db->Now();
    Digest all = ledger.AllAsOf(now);
    if (plant) all.sum += 1;
    const Digest rich = ledger.EmpSalaryAbove(now, 3000);
    const CrossAgg pairs = ledger.EmpProjPairs(now);
    std::vector<Round> rounds;
    for (int region = 0; region < 8; ++region) {
      rounds.push_back(Round{
          {"select_all_now", "SELECT ALL FROM DeptMol VALID AT NOW",
           ExpectAll(all)},
          {"emp_predicate_now",
           "SELECT Emp.name, Emp.salary FROM DeptMol WHERE Emp.salary > 3000 "
           "VALID AT NOW",
           ExpectEmps(rich)},
          {"dept_index_now",
           "SELECT ALL FROM DeptMol WHERE Dept.region = " +
               std::to_string(region) + " VALID AT NOW",
           ExpectAll(ledger.AllAsOf(now, region))},
          {"cross_aggregate_now",
           "SELECT COUNT(*), SUM(Emp.salary), SUM(Proj.hours) FROM DeptMol "
           "VALID AT NOW",
           ExpectAggregate(pairs.count,
                           {{"SUM(Emp.salary)", pairs.sum_salary},
                            {"SUM(Proj.hours)", pairs.sum_hours}})},
          {"select_all_now", "SELECT ALL FROM DeptMol VALID AT NOW",
           ExpectAll(all)},
      });
    }
    return rounds;
  };
  return RunRead(cfg, spec);
}

RunResult RunHistoryCold(const RunConfig& cfg) {
  ReadSpec spec;
  spec.shape.depts = 16;
  spec.shape.emps_per_dept = 6;
  spec.shape.projs_per_emp = 2;
  spec.shape.rounds = 40;
  spec.shape.swaps_per_round = 1;
  spec.options.parallelism = 4;
  spec.options.buffer_pool_pages = 64;  // 256 KiB: a fraction of the data
  spec.options.tiering.enabled = true;
  spec.options.tiering.cold_age = 8 * spec.shape.stride;
  spec.tail_q = 0.95;
  spec.history = true;
  const Timestamp stride = spec.shape.stride;
  const Timestamp cold_age = spec.options.tiering.cold_age;
  spec.build_rounds = [stride, cold_age](const Ledger& ledger,
                                         tcob::Database* db,
                                         std::mt19937_64* rng, bool plant) {
    // Instants and windows inside the migrated (cold) part of history.
    const Timestamp lo = ledger.first_time + stride;
    const Timestamp hi = db->Now() - cold_age - 4 * stride;
    std::map<AtomId, int64_t> history;
    for (AtomId root : ledger.depts) {
      history[root] = static_cast<int64_t>(
          ledger.StatesIn(root, 0, tcob::kForever).size());
    }
    if (plant) history.begin()->second += 1;
    std::vector<Round> rounds;
    for (int k = 0; k < 8; ++k) {
      const Timestamp a = Draw(rng, lo, hi);
      const Timestamp b = a + 3 * stride;
      std::map<AtomId, std::vector<LState>> states;
      for (AtomId root : ledger.depts) {
        states[root] = ledger.StatesIn(root, a, b);
      }
      const Timestamp t1 = Draw(rng, lo, hi);
      const Timestamp t2 = Draw(rng, lo, hi);
      const CrossAgg emps = ledger.EmpCountSum(t2);
      const std::string window = "SELECT Dept.budget FROM DeptMol VALID IN [" +
                                 std::to_string(a) + ", " +
                                 std::to_string(b) + ")";
      rounds.push_back(Round{
          {"history_counts", "SELECT COUNT(*) FROM DeptMol GROUP BY ROOT HISTORY",
           ExpectGroupCounts(history)},
          {"window_states", window, ExpectWindow(a, b, states)},
          {"window_states", window, ExpectWindow(a, b, states)},
          {"select_all_past",
           "SELECT ALL FROM DeptMol VALID AT " + std::to_string(t1),
           ExpectAll(ledger.AllAsOf(t1))},
          {"sum_past",
           "SELECT COUNT(*), SUM(Emp.salary) FROM DeptMol VALID AT " +
               std::to_string(t2),
           ExpectAggregate(emps.count, {{"SUM(Emp.salary)", emps.sum_salary}})},
      });
    }
    return rounds;
  };
  return RunRead(cfg, spec);
}

}  // namespace tcobbench
