#include "fidelity.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

namespace perfbench {
namespace {

const char* const kKeyColumns[] = {"variant",         "classes",     "method",
                                   "sparsity",        "mitigation",  "backend",
                                   "xbar_size",       "sigma",       "parasitic_scale",
                                   "p_stuck_min",     "p_stuck_max"};
const char* const kExactColumns[] = {"repeats", "tiles", "solver_failures",
                                     "software_acc", "energy_pj"};

std::vector<std::string> split(const std::string& line) {
    std::vector<std::string> out;
    std::string field;
    std::istringstream is(line);
    while (std::getline(is, field, ',')) out.push_back(field);
    if (!line.empty() && line.back() == ',') out.emplace_back();
    return out;
}

int column(const CsvTable& t, const std::string& name) {
    const auto it = std::find(t.header.begin(), t.header.end(), name);
    return it == t.header.end() ? -1 : static_cast<int>(it - t.header.begin());
}

bool to_double(const std::string& s, double& out) {
    char* end = nullptr;
    out = std::strtod(s.c_str(), &end);
    return !s.empty() && end == s.c_str() + s.size() && std::isfinite(out);
}

}  // namespace

bool parse_csv(const std::string& text, CsvTable& out) {
    CsvTable t;
    std::istringstream is(text);
    std::string line;
    bool first = true;
    while (std::getline(is, line)) {
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty()) continue;
        std::vector<std::string> fields = split(line);
        if (first) {
            t.header = std::move(fields);
            first = false;
        } else {
            if (fields.size() != t.header.size()) return false;
            t.rows.push_back(std::move(fields));
        }
    }
    if (first) return false;
    out = std::move(t);
    return true;
}

bool read_csv(const std::string& path, CsvTable& out) {
    std::ifstream in(path);
    if (!in) return false;
    std::ostringstream os;
    os << in.rdbuf();
    return parse_csv(os.str(), out);
}

FidelityReport check_fidelity(const CsvTable& got, const CsvTable& reference,
                              const FidelityTolerance& tol) {
    FidelityReport rep;
    rep.groups = static_cast<std::int64_t>(reference.rows.size());

    std::vector<std::string> needed(std::begin(kKeyColumns), std::end(kKeyColumns));
    needed.insert(needed.end(), std::begin(kExactColumns), std::end(kExactColumns));
    needed.push_back("acc_mean");
    needed.push_back("nf_mean");
    for (const std::string& c : needed) {
        if (column(got, c) < 0 || column(reference, c) < 0) {
            rep.problems.push_back("column '" + c + "' missing");
            rep.groups_failed = rep.groups;
            return rep;
        }
    }
    const auto key_of = [](const CsvTable& t, const std::vector<std::string>& row) {
        std::string key;
        for (const char* c : kKeyColumns) key += row[column(t, c)] + "/";
        return key;
    };

    std::map<std::string, const std::vector<std::string>*> by_key;
    for (const auto& row : got.rows) {
        if (!by_key.emplace(key_of(got, row), &row).second)
            rep.problems.push_back("duplicate row " + key_of(got, row));
    }
    std::int64_t matched = 0, cells = 0;
    double acc_sum = 0.0, acc_ref_sum = 0.0;
    for (const auto& ref : reference.rows) {
        const std::string key = key_of(reference, ref);
        double repeats = 0.0;
        if (to_double(ref[column(reference, "repeats")], repeats))
            cells += static_cast<std::int64_t>(repeats);
        const auto fail = [&](const std::string& why) {
            rep.problems.push_back(key + ": " + why);
            ++rep.groups_failed;
            rep.cells_failed += static_cast<std::int64_t>(repeats);
        };
        const auto it = by_key.find(key);
        if (it == by_key.end()) {
            fail("missing from the CSV");
            continue;
        }
        ++matched;
        const std::vector<std::string>& row = *it->second;
        std::string why;
        for (const char* c : kExactColumns) {
            const std::string& g = row[column(got, c)];
            const std::string& r = ref[column(reference, c)];
            if (g != r) why += std::string(c) + " " + g + " != " + r + "; ";
        }
        if (row[column(got, "solver_failures")] != "0") why += "solver failures; ";
        double acc = 0, acc_ref = 0, nf = 0, nf_ref = 0;
        if (!to_double(row[column(got, "acc_mean")], acc) ||
            !to_double(ref[column(reference, "acc_mean")], acc_ref) ||
            !to_double(row[column(got, "nf_mean")], nf) ||
            !to_double(ref[column(reference, "nf_mean")], nf_ref)) {
            fail("unparseable acc_mean/nf_mean");
            continue;
        }
        acc_sum += acc;
        acc_ref_sum += acc_ref;
        const double acc_err = std::fabs(acc - acc_ref);
        const double nf_err = nf_ref != 0.0 ? std::fabs(nf - nf_ref) / std::fabs(nf_ref)
                                            : std::fabs(nf);
        rep.acc_err_pp = std::max(rep.acc_err_pp, acc_err);
        rep.nf_err_rel = std::max(rep.nf_err_rel, nf_err);
        if (acc_err > tol.acc_tol_pp) why += "acc_mean off by " + std::to_string(acc_err) + " pp; ";
        if (nf_err > tol.nf_tol_rel) why += "nf_mean off by " + std::to_string(nf_err) + " rel; ";
        if (!why.empty()) fail(why);
    }
    if (matched > 0) {
        rep.grid_acc_err_pp = std::fabs(acc_sum - acc_ref_sum) / static_cast<double>(matched);
        if (rep.grid_acc_err_pp > tol.grid_acc_tol_pp) {
            // The whole grid moved: every cell is suspect.
            rep.problems.push_back("grid-mean acc_mean off by " +
                                   std::to_string(rep.grid_acc_err_pp) + " pp");
            rep.groups_failed = rep.groups;
            rep.cells_failed = cells;
        }
    }
    if (static_cast<std::int64_t>(by_key.size()) != matched)
        rep.problems.push_back(std::to_string(by_key.size() - static_cast<std::size_t>(matched)) +
                               " row(s) not in the reference");
    return rep;
}

}  // namespace perfbench
