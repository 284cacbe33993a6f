// Nodal circuit solver for a parasitic X×X crossbar (paper Fig. 1(a)).
//
// Network: every crosspoint (i, j) has a row node and a column node bridged
// by the device conductance G_ij. Row nodes chain through Rwire_row and are
// fed from V_in[i] through Rdriver; column nodes chain through Rwire_col and
// terminate through Rsense into virtual ground.
//
// The solver uses line relaxation: alternating exact tridiagonal (Thomas)
// solves of every row chain and every column chain. Wire conductances are
// orders of magnitude above device conductances, so the cross-coupling is
// weak and the iteration converges in a handful of sweeps — much faster than
// point Gauss–Seidel on the same 2·X² system. A dense Gaussian-elimination
// reference (solve_dense) validates it in the test suite.
//
// There is one relaxation kernel (DESIGN.md §4). It solves `lanes`
// (≤ kMaxSolveLanes) independent same-size systems in one pass, vectorizing
// the chain recurrences across lanes; a single solve is its one-lane case.
// Each chain's tridiagonal factorization is computed once per solve and
// reused across sweeps, and all scratch lives in a caller-owned workspace so
// the steady state performs no heap allocation. Every solve starts from the
// flat guess (row nodes at their driver voltage, column nodes at 0 V), so a
// result depends only on its own tile, never on what the workspace solved
// before. Optional SOR over-relaxation is available via set_relaxation().
#pragma once

#include "tensor/tensor.h"
#include "xbar/config.h"

#include <vector>

namespace xs::xbar {

// Upper bound on the lanes one solve processes; callers chunk larger
// repeat counts into groups of this size. Eight doubles fill one AVX-512
// vector (two AVX2 vectors), so the lane loops vectorize fully.
inline constexpr int kMaxSolveLanes = 8;

// Reusable scratch for CircuitSolver::solve: `lanes` independent same-size
// systems, with every buffer lane-interleaved (entry k of lane r lives at
// index k·lanes + r) so the per-lane inner loops are unit-stride vector
// operations. With one lane the layout is plain row-major. Buffers grow on
// demand and are never shrunk; after the first solve of a given (size,
// lanes), later solves perform zero heap allocations.
struct SolveWorkspace {
    // Node voltages, X×X row-major and lane-interleaved, double precision
    // (float storage would stall convergence). Valid after a solve.
    std::vector<double> vr, vc;
    // Sensed per-column output currents (A), X×lanes. Valid after a solve.
    std::vector<double> currents;

    // Per-solve internals: device conductances promoted to double and the
    // reciprocal Thomas pivots of every row/column chain. The forward
    // multiplier m_k = -gw · inv_d_{k-1} is recomputed rather than stored:
    // the sweep is bandwidth-bound, and the back-substitution streams inv_d
    // anyway. There is no transposed g copy either: lane-major layout puts
    // each (i,j) on its own cacheline, so the column half-sweep strides
    // through g_row.
    std::vector<double> g_row;
    std::vector<double> row_inv_d, col_inv_d;
    std::vector<double> rhs;

    std::int64_t n = 0;  // provisioned size
    int lanes = 0;       // provisioned lane count

    // Per-lane last-solve outputs.
    int iterations[kMaxSolveLanes] = {};     // relaxation sweeps used
    double max_delta[kMaxSolveLanes] = {};   // final sweep's largest update
    std::uint8_t converged[kMaxSolveLanes] = {};

    // Provision for (size × lane_count).
    void ensure(std::int64_t size, int lane_count);
};

struct SolveResult {
    std::vector<double> currents;  // sensed output current per column (A)
    tensor::Tensor v_row;          // row-node voltages (X×X)
    tensor::Tensor v_col;          // column-node voltages (X×X)
    int iterations = 0;            // relaxation sweeps used
    double max_delta = 0.0;        // final sweep's largest voltage update
    bool converged = false;        // tolerance reached within max_sweeps
};

class CircuitSolver {
public:
    explicit CircuitSolver(const CrossbarConfig& config);

    // Solve node voltages/currents for conductances `g` (X×X, siemens) and
    // input voltages `v_in` (X). Parasitic resistances of
    // exactly zero are treated as near-ideal (1 nΩ) conductors.
    SolveResult solve(const tensor::Tensor& g, const std::vector<double>& v_in) const;

    // Solve `lanes` (≤ kMaxSolveLanes) independent conductance fields that
    // share the same input voltages in one pass; results land in ws.vr /
    // ws.vc / ws.currents (plus the per-lane iterations / max_delta /
    // converged). Every lane runs the identical sweep sequence and freezes
    // at its own convergence sweep, so lane r's voltages, currents,
    // iteration count and convergence flag are bit-identical to a one-lane
    // solve of g[r].
    void solve(const tensor::Tensor* const* g, int lanes, const double* v_in,
               SolveWorkspace& ws) const;

    // Parasitic-free dot product I_j = Σ_i G_ij · V_i.
    std::vector<double> ideal_currents(const tensor::Tensor& g,
                                       const std::vector<double>& v_in) const;
    // Allocation-free variant; `out` must hold X doubles.
    void ideal_currents(const tensor::Tensor& g, const double* v_in,
                        double* out) const;

    // Dense modified-nodal-analysis reference with partial pivoting; O((2X²)³),
    // intended for validation at small X.
    SolveResult solve_dense(const tensor::Tensor& g,
                            const std::vector<double>& v_in) const;

    const CrossbarConfig& config() const { return config_; }

    // Iteration controls. omega is the SOR over-relaxation factor applied to
    // each line update (1.0 = plain alternating line relaxation; values in
    // (1, 2) can cut the sweep count on strongly-coupled configurations).
    void set_tolerance(double volts) { tolerance_ = volts; }
    void set_max_sweeps(int sweeps) { max_sweeps_ = sweeps; }
    void set_relaxation(double omega) { omega_ = omega; }
    double tolerance() const { return tolerance_; }
    int max_sweeps() const { return max_sweeps_; }
    double relaxation() const { return omega_; }

private:
    CrossbarConfig config_;
    double g_driver_, g_wire_row_, g_wire_col_, g_sense_;
    double tolerance_ = 1e-12;  // volts, on the max node update per sweep
    int max_sweeps_ = 20000;
    double omega_ = 1.0;
};

}  // namespace xs::xbar
