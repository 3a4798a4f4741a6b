#include "ledger.h"

#include <algorithm>
#include <cstdio>
#include <set>

namespace tcobbench {

using tcob::Status;
using tcob::Value;

const char* KindName(int kind) {
  static const char* const kNames[] = {"Dept", "Emp", "Proj"};
  return kNames[kind];
}

const LVersion* LAtom::At(Timestamp t) const {
  for (const LVersion& v : versions) {
    if (v.begin <= t && t < v.end) return &v;
  }
  return nullptr;
}

uint32_t LAtom::VersionNoAt(Timestamp t) const {
  for (size_t i = 0; i < versions.size(); ++i) {
    if (versions[i].begin <= t && t < versions[i].end) {
      return static_cast<uint32_t>(i + 1);
    }
  }
  return 0;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 29;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 32);
}

uint64_t HashString(const std::string& s) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t AllRowHash(AtomId root, AtomId atom, int kind) {
  return Mix(Mix(root, atom), static_cast<uint64_t>(kind));
}

uint64_t EmpRowHash(AtomId root, const std::string& name, int64_t salary) {
  return Mix(Mix(root, HashString(name)), static_cast<uint64_t>(salary));
}

void Ledger::Index() {
  dept_emp_by_dept_.clear();
  emp_proj_by_emp_.clear();
  for (size_t i = 0; i < dept_emp.size(); ++i) {
    dept_emp_by_dept_[dept_emp[i].from].push_back(i);
  }
  for (size_t i = 0; i < emp_proj.size(); ++i) {
    emp_proj_by_emp_[emp_proj[i].from].push_back(i);
  }
}

std::vector<std::pair<AtomId, int>> Ledger::MembersAt(AtomId root,
                                                      Timestamp t) const {
  std::vector<std::pair<AtomId, int>> out;
  if (atoms.at(root).At(t) == nullptr) return out;
  out.emplace_back(root, kDept);
  auto de = dept_emp_by_dept_.find(root);
  if (de == dept_emp_by_dept_.end()) return out;
  for (size_t li : de->second) {
    const LLink& l = dept_emp[li];
    if (!l.Contains(t) || atoms.at(l.to).At(t) == nullptr) continue;
    out.emplace_back(l.to, kEmp);
    auto ep = emp_proj_by_emp_.find(l.to);
    if (ep == emp_proj_by_emp_.end()) continue;
    for (size_t pi : ep->second) {
      const LLink& p = emp_proj[pi];
      if (p.Contains(t) && atoms.at(p.to).At(t) != nullptr) {
        out.emplace_back(p.to, kProj);
      }
    }
  }
  return out;
}

Digest Ledger::AllAsOf(Timestamp t, int region) const {
  Digest d;
  for (AtomId root : depts) {
    const LVersion* rv = atoms.at(root).At(t);
    if (rv == nullptr || (region >= 0 && rv->b != region)) continue;
    for (const auto& [id, kind] : MembersAt(root, t)) {
      d.Add(AllRowHash(root, id, kind));
    }
  }
  return d;
}

Digest Ledger::EmpSalaryAbove(Timestamp t, int64_t min) const {
  Digest d;
  for (AtomId root : depts) {
    for (const auto& [id, kind] : MembersAt(root, t)) {
      if (kind != kEmp) continue;
      const LAtom& emp = atoms.at(id);
      const LVersion* v = emp.At(t);
      if (v->a > min) d.Add(EmpRowHash(root, emp.name, v->a));
    }
  }
  return d;
}

namespace {

struct MoleculeSums {
  int64_t emps = 0;
  int64_t projs = 0;
  int64_t salary = 0;
  int64_t hours = 0;
};

MoleculeSums SumMolecule(const Ledger& ledger, AtomId root, Timestamp t) {
  MoleculeSums s;
  for (const auto& [id, kind] : ledger.MembersAt(root, t)) {
    const LVersion* v = ledger.atoms.at(id).At(t);
    if (kind == kEmp) {
      ++s.emps;
      s.salary += v->a;
    } else if (kind == kProj) {
      ++s.projs;
      s.hours += v->a;
    }
  }
  return s;
}

}  // namespace

CrossAgg Ledger::EmpProjPairs(Timestamp t) const {
  CrossAgg out;
  for (AtomId root : depts) {
    MoleculeSums s = SumMolecule(*this, root, t);
    out.count += s.emps * s.projs;
    out.sum_salary += static_cast<double>(s.salary * s.projs);
    out.sum_hours += static_cast<double>(s.hours * s.emps);
  }
  return out;
}

CrossAgg Ledger::EmpCountSum(Timestamp t) const {
  CrossAgg out;
  for (AtomId root : depts) {
    MoleculeSums s = SumMolecule(*this, root, t);
    out.count += s.emps;
    out.sum_salary += static_cast<double>(s.salary);
  }
  return out;
}

std::vector<LState> Ledger::StatesIn(AtomId root, Timestamp begin,
                                     Timestamp end) const {
  // Every instant at which any atom or link that can belong to the
  // molecule inside the window changes; between two consecutive ones
  // the molecule is constant.
  std::set<Timestamp> points = {begin};
  auto add = [&](Timestamp t) {
    if (t > begin && t < end) points.insert(t);
  };
  auto add_atom = [&](AtomId id) {
    for (const LVersion& v : atoms.at(id).versions) {
      add(v.begin);
      add(v.end);
    }
  };
  add_atom(root);
  auto de = dept_emp_by_dept_.find(root);
  if (de != dept_emp_by_dept_.end()) {
    for (size_t li : de->second) {
      const LLink& l = dept_emp[li];
      if (l.end <= begin || l.begin >= end) continue;
      add(l.begin);
      add(l.end);
      add_atom(l.to);
      auto ep = emp_proj_by_emp_.find(l.to);
      if (ep == emp_proj_by_emp_.end()) continue;
      for (size_t pi : ep->second) {
        add(emp_proj[pi].begin);
        add(emp_proj[pi].end);
        add_atom(emp_proj[pi].to);
      }
    }
  }
  std::vector<Timestamp> cuts(points.begin(), points.end());
  cuts.push_back(end);

  std::vector<LState> out;
  std::vector<std::pair<AtomId, uint32_t>> prev;
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    const Timestamp t = cuts[i];
    std::vector<std::pair<AtomId, uint32_t>> sig;
    for (const auto& [id, kind] : MembersAt(root, t)) {
      (void)kind;
      sig.emplace_back(id, atoms.at(id).VersionNoAt(t));
    }
    std::sort(sig.begin(), sig.end());
    if (sig.empty()) {
      prev.clear();
      continue;  // the root is absent: a gap, not a state
    }
    if (!out.empty() && out.back().end == t && sig == prev) {
      out.back().end = cuts[i + 1];
    } else {
      out.push_back(LState{t, cuts[i + 1], atoms.at(root).At(t)->a});
    }
    prev = std::move(sig);
  }
  return out;
}

int64_t Draw(std::mt19937_64* rng, int64_t lo, int64_t hi_exclusive) {
  return lo + static_cast<int64_t>((*rng)() %
                                   static_cast<uint64_t>(hi_exclusive - lo));
}

namespace {

std::string Ordinal(const char* prefix, size_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s-%06zu", prefix, n);
  return buf;
}

}  // namespace

Status LoadDatabase(tcob::Database* db, const Shape& shape,
                    std::mt19937_64* rng, Ledger* ledger) {
  using tcob::AttrType;
  auto check = [](auto r) { return r.ok() ? Status::OK() : r.status(); };
  TCOB_RETURN_NOT_OK(check(db->CreateAtomType(
      "Dept", {{"name", AttrType::kString},
               {"budget", AttrType::kInt},
               {"region", AttrType::kInt}})));
  TCOB_RETURN_NOT_OK(check(db->CreateAtomType(
      "Emp", {{"name", AttrType::kString},
              {"salary", AttrType::kInt},
              {"rank", AttrType::kInt}})));
  TCOB_RETURN_NOT_OK(check(db->CreateAtomType(
      "Proj", {{"title", AttrType::kString}, {"hours", AttrType::kInt}})));
  TCOB_RETURN_NOT_OK(check(db->CreateLinkType("DeptEmp", "Dept", "Emp")));
  TCOB_RETURN_NOT_OK(check(db->CreateLinkType("EmpProj", "Emp", "Proj")));
  TCOB_RETURN_NOT_OK(check(db->CreateMoleculeType(
      "DeptMol", "Dept", {{"DeptEmp", true}, {"EmpProj", true}})));

  // The regions of the final Dept versions are a seeded permutation, so
  // each region holds the same number of Depts at NOW on every seed.
  std::vector<int> final_region(shape.depts);
  for (int d = 0; d < shape.depts; ++d) final_region[d] = d % shape.regions;
  std::shuffle(final_region.begin(), final_region.end(), *rng);

  auto values = [&](int kind, const LAtom& atom, const LVersion& v) {
    std::vector<Value> out = {Value::String(atom.name), Value::Int(v.a)};
    if (kind != kProj) out.push_back(Value::Int(v.b));
    return out;
  };
  auto draw_version = [&](int kind, Timestamp t, int region) {
    LVersion v;
    v.begin = t;
    if (kind == kDept) {
      v.a = Draw(rng, 100000, 1000000);
      v.b = region >= 0 ? region : Draw(rng, 0, shape.regions);
    } else if (kind == kEmp) {
      v.a = Draw(rng, kSalaryMin, kSalaryMax);
      v.b = Draw(rng, 1, 6);
    } else {
      v.a = Draw(rng, kHoursMin, kHoursMax);
    }
    return v;
  };
  auto insert = [&](int kind, Timestamp t, int region) -> tcob::Result<AtomId> {
    LAtom atom;
    atom.kind = kind;
    std::vector<AtomId>& list = kind == kDept   ? ledger->depts
                                : kind == kEmp ? ledger->emps
                                               : ledger->projs;
    atom.name = Ordinal(KindName(kind), list.size());
    atom.versions.push_back(draw_version(kind, t, region));
    TCOB_ASSIGN_OR_RETURN(
        AtomId id,
        db->InsertAtomValues(KindName(kind),
                             values(kind, atom, atom.versions.back()), t));
    list.push_back(id);
    ledger->atoms.emplace(id, std::move(atom));
    ++ledger->versions_written;
    return id;
  };

  const Timestamp t0 = 10;
  const bool single_round = shape.rounds <= 1;
  ledger->first_time = t0;
  ledger->last_time = t0;
  std::vector<AtomId> dept_of_emp;
  for (int d = 0; d < shape.depts; ++d) {
    TCOB_ASSIGN_OR_RETURN(
        AtomId dept, insert(kDept, t0, single_round ? final_region[d] : -1));
    for (int e = 0; e < shape.emps_per_dept; ++e) {
      TCOB_ASSIGN_OR_RETURN(AtomId emp, insert(kEmp, t0, -1));
      TCOB_RETURN_NOT_OK(db->Connect("DeptEmp", dept, emp, t0));
      ledger->dept_emp.push_back(LLink{dept, emp, t0, tcob::kForever});
      dept_of_emp.push_back(dept);
      for (int p = 0; p < shape.projs_per_emp; ++p) {
        TCOB_ASSIGN_OR_RETURN(AtomId proj, insert(kProj, t0, -1));
        TCOB_RETURN_NOT_OK(db->Connect("EmpProj", emp, proj, t0));
        ledger->emp_proj.push_back(LLink{emp, proj, t0, tcob::kForever});
      }
    }
  }

  // Update rounds: every atom gets one new version per round at a
  // seeded instant inside the round; a few Emps change Dept.
  std::vector<AtomId> all;
  for (AtomId id : ledger->depts) all.push_back(id);
  for (AtomId id : ledger->emps) all.push_back(id);
  for (AtomId id : ledger->projs) all.push_back(id);
  for (int r = 1; r < shape.rounds; ++r) {
    const Timestamp base = t0 + static_cast<Timestamp>(r) * shape.stride;
    const bool final_round = r == shape.rounds - 1;
    for (size_t i = 0; i < all.size(); ++i) {
      LAtom& atom = ledger->atoms.at(all[i]);
      const Timestamp t = base + Draw(rng, 1, shape.stride);
      int region = -1;
      if (final_round && atom.kind == kDept) region = final_region[i];
      LVersion v = draw_version(atom.kind, t, region);
      TCOB_RETURN_NOT_OK(db->UpdateAtomValues(KindName(atom.kind), all[i],
                                              values(atom.kind, atom, v), t));
      atom.versions.back().end = t;
      atom.versions.push_back(v);
      ++ledger->versions_written;
      ledger->last_time = std::max(ledger->last_time, t);
    }
    // Swaps keep every Dept's Emp count (and so every molecule's size)
    // fixed: two Emps of different Depts exchange Depts at one instant.
    std::set<size_t> used;
    for (int k = 0; k < shape.swaps_per_round && shape.depts > 1 &&
                    used.size() + 2 <= ledger->emps.size();
         ++k) {
      size_t a = 0;
      size_t b = 0;
      do {
        a = static_cast<size_t>((*rng)() % ledger->emps.size());
        b = static_cast<size_t>((*rng)() % ledger->emps.size());
      } while (used.count(a) || used.count(b) ||
               dept_of_emp[a] == dept_of_emp[b]);
      used.insert(a);
      used.insert(b);
      const Timestamp t = base + Draw(rng, 1, shape.stride);
      for (auto [e, to] : {std::pair{a, dept_of_emp[b]},
                           std::pair{b, dept_of_emp[a]}}) {
        const AtomId emp = ledger->emps[e];
        const AtomId from = dept_of_emp[e];
        TCOB_RETURN_NOT_OK(db->Disconnect("DeptEmp", from, emp, t));
        TCOB_RETURN_NOT_OK(db->Connect("DeptEmp", to, emp, t));
        for (LLink& l : ledger->dept_emp) {
          if (l.from == from && l.to == emp && l.end == tcob::kForever) {
            l.end = t;
          }
        }
        ledger->dept_emp.push_back(LLink{to, emp, t, tcob::kForever});
      }
      std::swap(dept_of_emp[a], dept_of_emp[b]);
      ledger->last_time = std::max(ledger->last_time, t);
    }
  }
  ledger->Index();
  return Status::OK();
}

}  // namespace tcobbench
