// Golden equivalence suite for the iterative solver: the workspace/SOR line
// relaxation must reproduce the dense MNA reference within tight tolerance
// on random conductance tiles, including stuck-fault and high-parasitic
// configurations, so a performance rewrite cannot silently change the
// numerics. Also pins down the `converged` reporting, and checks
// Kirchhoff's current law directly on the returned node voltages at sizes
// too large for the dense reference.
#include "tensor/ops.h"
#include "xbar/config.h"
#include "xbar/faults.h"
#include "xbar/solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

namespace xs::xbar {
namespace {

using tensor::Tensor;

CrossbarConfig config_of(std::int64_t size, double rd, double rwr, double rwc,
                         double rs) {
    CrossbarConfig c;
    c.size = size;
    c.parasitics.r_driver = rd;
    c.parasitics.r_wire_row = rwr;
    c.parasitics.r_wire_col = rwc;
    c.parasitics.r_sense = rs;
    return c;
}

Tensor random_g(std::int64_t n, std::uint64_t seed, const DeviceConfig& dev) {
    util::Rng rng(seed);
    Tensor g({n, n});
    for (std::int64_t i = 0; i < g.numel(); ++i)
        g[i] = static_cast<float>(rng.uniform(dev.g_min(), dev.g_max()));
    return g;
}

// One-lane solve; returns the converged flag.
bool solve_one(const CircuitSolver& solver, const Tensor& g,
               const std::vector<double>& v, SolveWorkspace& ws) {
    const Tensor* gp = &g;
    solver.solve(&gp, 1, v.data(), ws);
    return ws.converged[0] != 0;
}

void expect_matches_dense(const CircuitSolver& solver, const Tensor& g,
                          const std::vector<double>& v, SolveWorkspace& ws,
                          const std::string& label) {
    const std::int64_t n = solver.config().size;
    ASSERT_TRUE(solve_one(solver, g, v, ws)) << label << ": not converged";
    const SolveResult dense = solver.solve_dense(g, v);
    for (std::int64_t j = 0; j < n; ++j) {
        const double ref = dense.currents[static_cast<std::size_t>(j)];
        EXPECT_NEAR(ws.currents[static_cast<std::size_t>(j)], ref,
                    std::fabs(ref) * 1e-6 + 1e-15)
            << label << ": column " << j;
    }
    for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t j = 0; j < n; ++j) {
            EXPECT_NEAR(ws.vr[static_cast<std::size_t>(i * n + j)],
                        dense.v_row.at(i, j), 1e-6)
                << label << ": v_row(" << i << "," << j << ")";
            EXPECT_NEAR(ws.vc[static_cast<std::size_t>(i * n + j)],
                        dense.v_col.at(i, j), 1e-6)
                << label << ": v_col(" << i << "," << j << ")";
        }
}

TEST(SolverEquivalence, WorkspaceMatchesDenseAcrossSizes) {
    SolveWorkspace ws;
    for (const std::int64_t n : {2, 4, 8, 12}) {
        for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
            const CrossbarConfig c = config_of(n, 60, 2, 2, 60);
            const Tensor g = random_g(n, seed, c.device);
            util::Rng rng(seed + 99);
            std::vector<double> v(static_cast<std::size_t>(n));
            for (auto& vi : v) vi = rng.uniform(0.0, 0.3);
            const CircuitSolver solver(c);
            // The workspace is reused across all cases.
            expect_matches_dense(solver, g, v, ws,
                                 "n=" + std::to_string(n) +
                                     " seed=" + std::to_string(seed));
        }
    }
}

TEST(SolverEquivalence, HighParasiticConfigs) {
    SolveWorkspace ws;
    // Strong IR drop: 10 Ω wire segments and 200 Ω terminations.
    const CrossbarConfig c = config_of(8, 200, 10, 10, 200);
    const CircuitSolver solver(c);
    for (const std::uint64_t seed : {5ull, 6ull}) {
        const Tensor g = random_g(8, seed, c.device);
        const std::vector<double> v(8, 0.25);
        expect_matches_dense(solver, g, v, ws, "high-parasitic seed=" +
                                                   std::to_string(seed));
    }
}

TEST(SolverEquivalence, StuckFaultTiles) {
    SolveWorkspace ws;
    const CrossbarConfig c = config_of(8, 60, 2, 2, 60);
    const CircuitSolver solver(c);
    FaultConfig faults;
    faults.p_stuck_min = 0.1;
    faults.p_stuck_max = 0.1;
    for (const std::uint64_t seed : {7ull, 8ull}) {
        Tensor g = random_g(8, seed, c.device);
        util::Rng frng(seed * 31);
        apply_stuck_faults(g, c.device, faults, frng);
        const std::vector<double> v(8, 0.25);
        expect_matches_dense(solver, g, v, ws,
                             "faulted seed=" + std::to_string(seed));
    }
}

TEST(SolverEquivalence, SorRelaxationMatchesDense) {
    SolveWorkspace ws;
    const CrossbarConfig c = config_of(8, 60, 2, 2, 60);
    CircuitSolver solver(c);
    solver.set_relaxation(1.3);
    const Tensor g = random_g(8, 17, c.device);
    const std::vector<double> v(8, 0.25);
    expect_matches_dense(solver, g, v, ws, "sor");
}

TEST(SolverEquivalence, LegacySolveReportsConvergence) {
    const CrossbarConfig c = config_of(8, 60, 2, 2, 60);
    const CircuitSolver solver(c);
    const Tensor g = random_g(8, 3, c.device);
    const SolveResult sol = solver.solve(g, std::vector<double>(8, 0.25));
    EXPECT_TRUE(sol.converged);
    EXPECT_LT(sol.max_delta, solver.tolerance());
}

TEST(SolverEquivalence, ExhaustedSweepsSurfaceAsNotConverged) {
    const CrossbarConfig c = config_of(16, 60, 2, 2, 60);
    CircuitSolver solver(c);
    solver.set_max_sweeps(1);
    const Tensor g = random_g(16, 4, c.device);
    const SolveResult sol = solver.solve(g, std::vector<double>(16, 0.25));
    EXPECT_FALSE(sol.converged);
    EXPECT_EQ(sol.iterations, 1);
    EXPECT_GE(sol.max_delta, solver.tolerance());

    SolveWorkspace ws;
    EXPECT_FALSE(solve_one(solver, g, std::vector<double>(16, 0.25), ws));
    EXPECT_EQ(ws.iterations[0], 1);
}

// Largest nodal current imbalance of lane `lane` of a solved workspace,
// divided by the total current the drivers deliver. Every row node balances
// its driver (column 0 only), its two row-wire neighbours and its device;
// every column node balances its device, its two column-wire neighbours and
// (bottom row only) the sense resistor to ground.
double kcl_residual(const CrossbarConfig& c, const Tensor& g,
                    const std::vector<double>& v_in, const SolveWorkspace& ws,
                    int lane) {
    const std::int64_t n = c.size;
    const double gdrv = 1.0 / c.parasitics.r_driver;
    const double gwr = 1.0 / c.parasitics.r_wire_row;
    const double gwc = 1.0 / c.parasitics.r_wire_col;
    const double gsn = 1.0 / c.parasitics.r_sense;
    const auto L = static_cast<std::int64_t>(ws.lanes);
    const auto vr = [&](std::int64_t i, std::int64_t j) {
        return ws.vr[static_cast<std::size_t>((i * n + j) * L + lane)];
    };
    const auto vc = [&](std::int64_t i, std::int64_t j) {
        return ws.vc[static_cast<std::size_t>((i * n + j) * L + lane)];
    };
    double driven = 0.0, worst = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
        driven += gdrv * (v_in[static_cast<std::size_t>(i)] - vr(i, 0));
        for (std::int64_t j = 0; j < n; ++j) {
            const double device = g.at(i, j) * (vr(i, j) - vc(i, j));
            double row = -device;
            if (j == 0) row += gdrv * (v_in[static_cast<std::size_t>(i)] - vr(i, 0));
            if (j > 0) row += gwr * (vr(i, j - 1) - vr(i, j));
            if (j + 1 < n) row += gwr * (vr(i, j + 1) - vr(i, j));
            double col = device;
            if (i > 0) col += gwc * (vc(i - 1, j) - vc(i, j));
            if (i + 1 < n) col += gwc * (vc(i + 1, j) - vc(i, j));
            if (i == n - 1) col -= gsn * vc(i, j);
            worst = std::max({worst, std::fabs(row), std::fabs(col)});
        }
    }
    return worst / driven;
}

TEST(SolverEquivalence, KclResidualStaysBelowTolerance) {
    // ON/OFF 100, heavy 5 Ω wires with 100 Ω driver and sense, SOR ω = 1.5:
    // the strongly coupled corner of the parameter space, at sizes the dense
    // reference cannot reach, through the one-lane and the eight-lane kernel.
    for (const std::int64_t n : {64, 128}) {
        CrossbarConfig c = config_of(n, 100, 5, 5, 100);
        c.device.r_min = 2e3;
        CircuitSolver solver(c);
        solver.set_relaxation(1.5);
        util::Rng rng(static_cast<std::uint64_t>(n));
        std::vector<double> v(static_cast<std::size_t>(n));
        for (auto& vi : v) vi = rng.uniform(0.0, 0.3);
        for (const int lanes : {1, kMaxSolveLanes}) {
            std::vector<Tensor> gs;
            std::vector<const Tensor*> gp;
            for (int r = 0; r < lanes; ++r)
                gs.push_back(random_g(n, 500 + static_cast<std::uint64_t>(r),
                                      c.device));
            for (const Tensor& g : gs) gp.push_back(&g);
            SolveWorkspace ws;
            solver.solve(gp.data(), lanes, v.data(), ws);
            for (int r = 0; r < lanes; ++r) {
                SCOPED_TRACE("n=" + std::to_string(n) + " lanes=" +
                             std::to_string(lanes) + " lane=" +
                             std::to_string(r));
                ASSERT_TRUE(ws.converged[r]);
                EXPECT_LE(kcl_residual(c, gs[static_cast<std::size_t>(r)], v,
                                       ws, r),
                          1e-9);
            }
        }
    }
}

}  // namespace
}  // namespace xs::xbar
