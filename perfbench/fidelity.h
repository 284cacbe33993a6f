// Fidelity check of a sweep's aggregate CSV against a recorded reference.
//
// Rows match on the grid-point key (every axis column). Per matched row:
//  - repeats, tiles, solver_failures, software_acc and energy_pj must equal
//    the reference exactly, and solver_failures must be 0;
//  - acc_mean must lie within `acc_tol_pp` percentage points and nf_mean
//    within `nf_tol_rel` relative error of the reference;
//  - over all matched rows, the mean of acc_mean must lie within
//    `grid_acc_tol_pp` of the reference's mean (a shift of the whole grid
//    that per-row tolerances sized for Monte-Carlo noise would miss).
// A reference row missing from the CSV fails its group, as does any extra
// or duplicated row.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct CsvTable {
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
};

// Parse the unquoted comma-separated CSV the sweep aggregator writes.
// Returns false if the file cannot be read or a row's width differs from
// the header's.
bool read_csv(const std::string& path, CsvTable& out);
bool parse_csv(const std::string& text, CsvTable& out);

struct FidelityTolerance {
    double acc_tol_pp = 1.0;
    double nf_tol_rel = 1e-3;
    double grid_acc_tol_pp = 1.0;
};

struct FidelityReport {
    std::int64_t groups = 0;         // reference rows
    std::int64_t groups_failed = 0;  // missing or outside tolerance
    std::int64_t cells_failed = 0;   // repeats of the failed groups
    double acc_err_pp = 0.0;         // max |acc_mean - ref| over matched rows
    double nf_err_rel = 0.0;         // max |nf_mean - ref| / |ref|
    double grid_acc_err_pp = 0.0;    // |mean acc_mean - mean ref acc_mean|
    std::vector<std::string> problems;  // one line per failure

    bool ok() const { return groups_failed == 0 && problems.empty(); }
};

FidelityReport check_fidelity(const CsvTable& got, const CsvTable& reference,
                              const FidelityTolerance& tol);

}  // namespace perfbench
