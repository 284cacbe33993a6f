// Bit-identity of the multi-lane solver/degrade path against one-lane
// solves: every lane's voltages, currents, sweep counts and NF must be
// byte-identical to solving that repeat alone — the property the
// repeat-batched evaluator relies on.
//
// The solver once had a separate scalar kernel. Its outputs are pinned here
// as golden FNV-1a digests (recorded from that kernel before it was
// deleted), and the one remaining kernel must reproduce them, in one lane
// and as one lane of a wider solve.
#include "util/rng.h"
#include "xbar/config.h"
#include "xbar/degrade.h"
#include "xbar/solver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
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

// One-lane solve of `g`: the reference every lane is compared against.
void solve_one(const CircuitSolver& solver, const Tensor& g,
               const double* v, SolveWorkspace& ws) {
    const Tensor* gp = &g;
    solver.solve(&gp, 1, v, ws);
}

void degrade_one(const CircuitSolver& solver, const Tensor& g,
                 DegradeWorkspace& ws, TileDegradeResult& out) {
    const Tensor* gp = &g;
    TileDegradeResult* op = &out;
    degrade_tiles(&gp, 1, solver, ws, &op);
}

struct Fnv1a {
    std::uint64_t h = 14695981039346656037ull;
    void add(const void* p, std::size_t bytes) {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < bytes; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    }
};

// Digests of the deleted scalar kernel. Each case draws, from Rng(1000 + X),
// X input voltages uniform in [0, 0.3] V and then a chain of three tiles
// uniform in [G_MIN, G_MAX], solved cold (every solve restarts flat) at the
// default parasitics, and hashes, per solve, the bit patterns of vr, vc (X²
// doubles each), currents (X doubles) and the int32 iteration count.
struct GoldenCase {
    std::int64_t n;
    double omega;
    std::uint64_t digest;
};
constexpr GoldenCase kScalarKernelGolden[] = {
    {8, 1.0, 0x4482ad800e869d0bull},
    {8, 1.5, 0x28b875cac444a364ull},
    {16, 1.0, 0x04cf15af60d36d39ull},
    {16, 1.5, 0x4e9a7a847b2884f6ull},
    {32, 1.0, 0xf80dc149a01ae8b6ull},
    {32, 1.5, 0x631b5820a561693cull},
    {64, 1.0, 0xcd295623a41356ffull},
    {64, 1.5, 0x6e15fe113677688bull},
};

// The same chains cut off after two sweeps at ω = 1.5. A converged solve
// contracts any perturbation of the initial guess below one ulp, so the
// digests above cannot tell whether it started flat; these can (a 1 pV seed
// in vc changes every one of them). At ω = 1 the update v + (x − v) rounds
// such a seed away, so there are no ω = 1 rows. Recorded from the kernel
// before warm starting was removed; its cold path is unchanged.
constexpr GoldenCase kTwoSweepGolden[] = {
    {8, 1.5, 0xa5cddcdcdcaab3b2ull},
    {16, 1.5, 0x61685d1d4a3f7c1bull},
    {32, 1.5, 0x95dba478d8a94324ull},
    {64, 1.5, 0x09b94c351886cef4ull},
};

// Run one golden case with the chain in lane `lane` of a `lanes`-wide solve
// (the other lanes solve unrelated tiles) and hash that lane's outputs.
// max_sweeps = 0 keeps the solver's default budget.
std::uint64_t golden_chain_digest(const GoldenCase& gc, int lanes, int lane,
                                  int max_sweeps = 0) {
    const std::int64_t n = gc.n;
    CrossbarConfig c;
    c.size = n;
    CircuitSolver solver(c);
    solver.set_relaxation(gc.omega);
    if (max_sweeps > 0) solver.set_max_sweeps(max_sweeps);
    util::Rng rng(1000 + static_cast<std::uint64_t>(n));
    std::vector<double> v(static_cast<std::size_t>(n));
    for (auto& x : v) x = rng.uniform(0.0, 0.3);
    std::vector<Tensor> others;
    for (int r = 0; r < lanes; ++r)
        others.push_back(random_g(n, 77 + static_cast<std::uint64_t>(r), c.device));

    SolveWorkspace ws;
    Fnv1a f;
    const auto L = static_cast<std::size_t>(lanes);
    const auto at = [&](std::int64_t k) {
        return static_cast<std::size_t>(k) * L + static_cast<std::size_t>(lane);
    };
    for (int t = 0; t < 3; ++t) {
        Tensor g({n, n});
        for (std::int64_t k = 0; k < g.numel(); ++k)
            g[k] = static_cast<float>(
                rng.uniform(c.device.g_min(), c.device.g_max()));
        std::vector<const Tensor*> gp;
        for (int r = 0; r < lanes; ++r)
            gp.push_back(r == lane ? &g : &others[static_cast<std::size_t>(r)]);
        solver.solve(gp.data(), lanes, v.data(), ws);
        for (std::int64_t k = 0; k < n * n; ++k) f.add(&ws.vr[at(k)], sizeof(double));
        for (std::int64_t k = 0; k < n * n; ++k) f.add(&ws.vc[at(k)], sizeof(double));
        for (std::int64_t j = 0; j < n; ++j)
            f.add(&ws.currents[at(j)], sizeof(double));
        const std::int32_t it = ws.iterations[lane];
        f.add(&it, sizeof(it));
    }
    return f.h;
}

// Compare doubles as bits: the contract is bit-identity, not closeness.
void expect_bits_eq(double a, double b, const char* what, int lane) {
    std::uint64_t ba, bb;
    std::memcpy(&ba, &a, sizeof(ba));
    std::memcpy(&bb, &b, sizeof(bb));
    EXPECT_EQ(ba, bb) << what << " mismatch in lane " << lane << ": " << a
                      << " vs " << b;
}

TEST(BatchedSolver, OneLaneMatchesScalarKernelDigests) {
    for (const GoldenCase& gc : kScalarKernelGolden) {
        SCOPED_TRACE("n=" + std::to_string(gc.n) +
                     " omega=" + std::to_string(gc.omega));
        EXPECT_EQ(golden_chain_digest(gc, 1, 0), gc.digest);
        // The same chain riding lane 3 of a five-lane solve.
        EXPECT_EQ(golden_chain_digest(gc, 5, 3), gc.digest);
    }
}

TEST(BatchedSolver, TwoSweepChainsPinTheFlatGuess) {
    for (const GoldenCase& gc : kTwoSweepGolden) {
        SCOPED_TRACE("n=" + std::to_string(gc.n));
        EXPECT_EQ(golden_chain_digest(gc, 1, 0, 2), gc.digest);
        EXPECT_EQ(golden_chain_digest(gc, 5, 3, 2), gc.digest);
    }
}

TEST(BatchedSolver, ColdSolveMatchesScalarBitExact) {
    const CrossbarConfig c = config_of(16, 100, 2, 2, 100);
    const CircuitSolver solver(c);
    const std::vector<double> v(16, c.parasitics.v_nom);

    for (int lanes = 1; lanes <= kMaxSolveLanes; ++lanes) {
        std::vector<Tensor> gs;
        std::vector<const Tensor*> gp;
        for (int r = 0; r < lanes; ++r)
            gs.push_back(random_g(16, 100 + static_cast<std::uint64_t>(r), c.device));
        for (auto& g : gs) gp.push_back(&g);

        SolveWorkspace bws;
        solver.solve(gp.data(), lanes, v.data(), bws);

        for (int r = 0; r < lanes; ++r) {
            SolveWorkspace sws;
            solve_one(solver, gs[static_cast<std::size_t>(r)], v.data(), sws);
            ASSERT_EQ(bws.iterations[r], sws.iterations[0]) << "lane " << r;
            EXPECT_EQ(bws.converged[r], sws.converged[0]);
            expect_bits_eq(bws.max_delta[r], sws.max_delta[0], "max_delta", r);
            for (std::int64_t k = 0; k < 16 * 16; ++k) {
                expect_bits_eq(bws.vr[static_cast<std::size_t>(k * lanes + r)],
                               sws.vr[static_cast<std::size_t>(k)], "vr", r);
                expect_bits_eq(bws.vc[static_cast<std::size_t>(k * lanes + r)],
                               sws.vc[static_cast<std::size_t>(k)], "vc", r);
            }
            for (std::int64_t j = 0; j < 16; ++j)
                expect_bits_eq(
                    bws.currents[static_cast<std::size_t>(j * lanes + r)],
                    sws.currents[static_cast<std::size_t>(j)], "currents", r);
        }
    }
}

TEST(BatchedSolver, LanesConvergeIndependently) {
    // A lane with a much harder field (heavier parasitics make coupling
    // stronger) must not perturb an easier lane's result.
    const CrossbarConfig c = config_of(16, 500, 8, 8, 500);
    const CircuitSolver solver(c);
    const std::vector<double> v(16, c.parasitics.v_nom);

    Tensor easy({16, 16}, static_cast<float>(c.device.g_min()));
    Tensor hard = random_g(16, 7, c.device);
    for (std::int64_t i = 0; i < hard.numel(); ++i)
        hard[i] = static_cast<float>(c.device.g_max() * 2.0);

    const Tensor* gp[2] = {&easy, &hard};
    SolveWorkspace bws;
    solver.solve(gp, 2, v.data(), bws);

    SolveWorkspace se, sh;
    solve_one(solver, easy, v.data(), se);
    solve_one(solver, hard, v.data(), sh);
    EXPECT_NE(se.iterations[0], sh.iterations[0]);  // genuinely different lanes
    ASSERT_EQ(bws.iterations[0], se.iterations[0]);
    ASSERT_EQ(bws.iterations[1], sh.iterations[0]);
    for (std::int64_t j = 0; j < 16; ++j) {
        expect_bits_eq(bws.currents[static_cast<std::size_t>(j * 2)],
                       se.currents[static_cast<std::size_t>(j)], "easy", 0);
        expect_bits_eq(bws.currents[static_cast<std::size_t>(j * 2 + 1)],
                       sh.currents[static_cast<std::size_t>(j)], "hard", 1);
    }
}

void expect_same_tile(const TileDegradeResult& b, const TileDegradeResult& e,
                      int step, int lane) {
    ASSERT_EQ(b.sweeps, e.sweeps) << "step " << step << " lane " << lane;
    EXPECT_EQ(b.converged, e.converged);
    expect_bits_eq(b.nf, e.nf, "nf", lane);
    ASSERT_EQ(b.g_eff.numel(), e.g_eff.numel());
    for (std::int64_t k = 0; k < b.g_eff.numel(); ++k)
        EXPECT_EQ(b.g_eff[k], e.g_eff[k]) << "g_eff[" << k << "] lane " << lane;
}

TEST(BatchedDegrade, MatchesOneLaneDegrade) {
    // The workspaces are reused across steps; the last step's two-sweep
    // budget leaves every lane unconverged, and a cold start must still make
    // it match a one-lane degrade in a fresh workspace.
    const CrossbarConfig c = config_of(16, 100, 2, 2, 100);
    CircuitSolver solver(c);
    const int lanes = 3;
    const int steps = 3;

    DegradeWorkspace bws;
    std::vector<DegradeWorkspace> sws(static_cast<std::size_t>(lanes));
    std::vector<TileDegradeResult> bout(static_cast<std::size_t>(lanes));
    std::vector<TileDegradeResult> sout(static_cast<std::size_t>(lanes));

    for (int s = 0; s < steps; ++s) {
        const bool starved = s == steps - 1;
        if (starved) solver.set_max_sweeps(2);
        std::vector<Tensor> gs;
        for (int r = 0; r < lanes; ++r)
            gs.push_back(random_g(
                16, 5000 + static_cast<std::uint64_t>(s * lanes + r), c.device));
        std::vector<const Tensor*> gp;
        std::vector<TileDegradeResult*> op;
        for (int r = 0; r < lanes; ++r) {
            gp.push_back(&gs[static_cast<std::size_t>(r)]);
            op.push_back(&bout[static_cast<std::size_t>(r)]);
        }
        degrade_tiles(gp.data(), lanes, solver, bws, op.data());
        for (int r = 0; r < lanes; ++r) {
            const auto ri = static_cast<std::size_t>(r);
            degrade_one(solver, gs[ri], sws[ri], sout[ri]);
            EXPECT_EQ(bout[ri].converged, !starved);
            expect_same_tile(bout[ri], sout[ri], s, r);
            if (starved) {
                TileDegradeResult fresh_out;
                DegradeWorkspace fresh;
                degrade_one(solver, gs[ri], fresh, fresh_out);
                expect_same_tile(bout[ri], fresh_out, s, r);
            }
        }
    }
}

}  // namespace
}  // namespace xs::xbar
