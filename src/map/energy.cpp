#include "map/energy.h"

#include "map/compaction.h"
#include "map/matrix_view.h"
#include "map/tiling.h"
#include "tensor/ops.h"
#include "util/parallel.h"
#include "xbar/mapper.h"

#include <cmath>

namespace xs::map {

using tensor::Tensor;

namespace {

Tiling tiling_for(const Tensor& work, prune::Method method, std::int64_t size) {
    switch (method) {
        case prune::Method::kXbarColumn:
            return tile_xcs(work, size);
        case prune::Method::kXbarRow:
            return tile_xrs(work, size);
        default:
            return tile_dense(work.dim(0), work.dim(1), size);
    }
}

}  // namespace

EnergyReport estimate_energy(nn::Sequential& model, prune::Method method,
                             const xbar::CrossbarConfig& xbar,
                             const EnergyConfig& config) {
    const double g_min = xbar.device.g_min();
    const double joule_scale = config.v_read * config.v_read *
                               config.t_read_ns * 1e-9 * 1e12;  // -> pJ

    // Layers are dealt over the pool; each layer's tiles sum in tile order
    // on one worker, and the report sums layers in layer order below, so the
    // totals do not depend on the deal.
    const std::vector<nn::Layer*> layers = mappable_layers(model);
    EnergyReport report;
    report.layers.resize(layers.size());
    util::parallel_deal(layers.size(), [&](std::size_t, std::size_t li) {
        Tensor matrix = extract_matrix(*layers[li]);
        if (method == prune::Method::kChannelFilter)
            matrix = compact_dense(matrix).matrix;

        double w_ref = tensor::abs_percentile_nonzero(matrix, 0.995);
        if (w_ref <= 0.0) w_ref = 1.0;
        const xbar::ConductanceMapper mapper(xbar.device, w_ref);

        const Tiling tiling = tiling_for(matrix, method, xbar.size);

        LayerEnergy& le = report.layers[li];
        le.layer = layers[li]->name();
        le.tiles = tiling.count();
        for (const Tile& tile : tiling.tiles) {
            // Mapped cells: G⁺ + G⁻ = 2·G_MIN + slope·|w|.
            double g_sum = 0.0;
            for (const auto r : tile.rows)
                for (const auto c : tile.cols)
                    g_sum += 2.0 * g_min +
                             mapper.slope() * std::fabs(matrix.at(r, c));
            // Padded cells idle at G_MIN on both arrays.
            const std::int64_t padded =
                xbar.size * xbar.size -
                static_cast<std::int64_t>(tile.rows.size() * tile.cols.size());
            g_sum += 2.0 * g_min * static_cast<double>(padded);

            le.array_energy_pj += g_sum * joule_scale;
            le.periph_energy_pj +=
                config.e_driver_pj_per_row * static_cast<double>(xbar.size) +
                config.e_sense_pj_per_col * static_cast<double>(xbar.size);
            le.area_um2 +=
                2.0 * static_cast<double>(xbar.size * xbar.size) *
                    config.cell_area_um2 +
                2.0 * static_cast<double>(xbar.size) * config.periph_area_um2_per_line;
        }
    });
    for (const LayerEnergy& le : report.layers) {
        report.tiles += le.tiles;
        report.array_energy_pj += le.array_energy_pj;
        report.periph_energy_pj += le.periph_energy_pj;
        report.area_um2 += le.area_um2;
    }
    return report;
}

}  // namespace xs::map
