// The benchmark's data generator and its answer ledger.
//
// The generator writes a Dept -> Emp -> Proj molecule database through
// the public Database API and records, independently of the engine,
// every atom version and every link interval it wrote. The expected
// answers of the read mixes are computed from that record alone, by
// plain loops over it, so a wrong answer from the engine cannot also
// be the expected one.
#ifndef TCOBBENCH_LEDGER_H_
#define TCOBBENCH_LEDGER_H_

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "db/database.h"

namespace tcobbench {

using tcob::AtomId;
using tcob::Timestamp;

enum Kind : int { kDept = 0, kEmp = 1, kProj = 2 };
const char* KindName(int kind);

/// Attribute values of one version. Dept: budget, region. Emp: salary,
/// rank. Proj: hours. The name/title attribute is LAtom::name, fixed for
/// the atom's life.
struct LVersion {
  Timestamp begin = 0;
  Timestamp end = tcob::kForever;
  int64_t a = 0;  // Dept.budget | Emp.salary | Proj.hours
  int64_t b = 0;  // Dept.region | Emp.rank   | unused
};

struct LAtom {
  int kind = kDept;
  std::string name;
  std::vector<LVersion> versions;  // in time order, contiguous

  const LVersion* At(Timestamp t) const;
  /// 1-based version number of the version valid at t (0 = none).
  uint32_t VersionNoAt(Timestamp t) const;
};

struct LLink {
  AtomId from = 0;
  AtomId to = 0;
  Timestamp begin = 0;
  Timestamp end = tcob::kForever;
  bool Contains(Timestamp t) const { return begin <= t && t < end; }
};

/// The size and make-up of one generated database.
struct Shape {
  int depts = 16;
  int emps_per_dept = 8;
  int projs_per_emp = 2;
  /// Versions per atom: every atom is updated once per round after its
  /// insert round.
  int rounds = 8;
  /// Chronons per round; each update lands at a seeded offset inside it.
  Timestamp stride = 100;
  /// Pairs of Emps of different Depts that swap Depts per round
  /// (DeptEmp disconnect + connect).
  int swaps_per_round = 1;
  /// Distinct Dept.region values (the indexed attribute).
  int regions = 8;
};

/// Digest of a multiset of result rows: a count and an order-free sum
/// of per-row hashes. Equal digests are what the checks compare.
struct Digest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  void Add(uint64_t h) {
    ++rows;
    sum += h;
  }
  bool operator==(const Digest& o) const {
    return rows == o.rows && sum == o.sum;
  }
};

uint64_t Mix(uint64_t a, uint64_t b);
uint64_t HashString(const std::string& s);
/// Row hash of a SELECT ALL row (ROOT, ATOM, TYPE).
uint64_t AllRowHash(AtomId root, AtomId atom, int kind);
/// Row hash of an (ROOT, Emp.name, Emp.salary) projection row.
uint64_t EmpRowHash(AtomId root, const std::string& name, int64_t salary);

/// One maximal constant molecule state of a history, clipped to the
/// query window, with the root Dept's budget during it.
struct LState {
  Timestamp begin = 0;
  Timestamp end = 0;
  int64_t dept_budget = 0;
};

struct CrossAgg {
  int64_t count = 0;
  double sum_salary = 0;
  double sum_hours = 0;
};

class Ledger {
 public:
  std::map<AtomId, LAtom> atoms;
  std::vector<AtomId> depts;
  std::vector<AtomId> emps;
  std::vector<AtomId> projs;
  std::vector<LLink> dept_emp;
  std::vector<LLink> emp_proj;
  Timestamp first_time = 0;
  /// Largest stamp written by the load; the database clock is one past.
  Timestamp last_time = 0;
  /// Versions written by the load (inserts + updates).
  uint64_t versions_written = 0;

  /// Members of `root`'s molecule at t: (atom, kind), root first.
  std::vector<std::pair<AtomId, int>> MembersAt(AtomId root,
                                                Timestamp t) const;

  /// SELECT ALL FROM DeptMol [WHERE Dept.region = region] VALID AT t.
  Digest AllAsOf(Timestamp t, int region = -1) const;
  /// SELECT Emp.name, Emp.salary ... WHERE Emp.salary > min VALID AT t.
  Digest EmpSalaryAbove(Timestamp t, int64_t min) const;
  /// SELECT COUNT(*), SUM(Emp.salary), SUM(Proj.hours) ... VALID AT t:
  /// the rows are the (Emp, Proj) pairs of every molecule.
  CrossAgg EmpProjPairs(Timestamp t) const;
  /// SELECT COUNT(*), SUM(Emp.salary) ... VALID AT t: one row per Emp
  /// member of each molecule.
  CrossAgg EmpCountSum(Timestamp t) const;
  /// Maximal constant states of root's molecule inside [begin, end).
  std::vector<LState> StatesIn(AtomId root, Timestamp begin,
                               Timestamp end) const;

  /// Rebuilds the per-atom link indexes after links were appended.
  void Index();

 private:
  std::map<AtomId, std::vector<size_t>> dept_emp_by_dept_;
  std::map<AtomId, std::vector<size_t>> emp_proj_by_emp_;
};

/// Uniform draw in [lo, hi_exclusive).
int64_t Draw(std::mt19937_64* rng, int64_t lo, int64_t hi_exclusive);

/// Creates the schema (atom, link and molecule types, and the Dept
/// region index) and loads `shape` with values drawn from `rng`,
/// recording everything written in `ledger`.
tcob::Status LoadDatabase(tcob::Database* db, const Shape& shape,
                          std::mt19937_64* rng, Ledger* ledger);

/// Value ranges of the generated attributes (the checks depend on them).
inline constexpr int64_t kSalaryMin = 1000;
inline constexpr int64_t kSalaryMax = 5000;  // exclusive
inline constexpr int64_t kHoursMin = 10;
inline constexpr int64_t kHoursMax = 100;  // exclusive

}  // namespace tcobbench

#endif  // TCOBBENCH_LEDGER_H_
