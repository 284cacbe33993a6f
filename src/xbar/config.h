// Crossbar device + circuit parameters (paper Fig. 1(a) / Fig. 2 table).
//
// Device-agnostic regime following the authors' companion papers
// (RxNN, NEAT, SwitchX): R_MIN = 20 kΩ, R_MAX = 200 kΩ (ON/OFF = 10),
// Rdriver = 27 Ω, Rwire_row = 0.9 Ω/segment, Rwire_col = 0.9 Ω/segment,
// Rsense = 27 Ω, Gaussian conductance variation (the defaults below). The
// interconnect values are calibrated so the layer-average NF lands in the
// regime the paper reports (accuracy losses of ~5 % at 16×16 growing to
// tens of % at 64×64).
#pragma once

#include <cstdint>
#include <string>

namespace xs::xbar {

struct DeviceConfig {
    double r_min = 20e3;   // ohms, lowest programmable resistance (G_MAX)
    double r_max = 200e3;  // ohms, highest programmable resistance (G_MIN)
    // Relative device-to-device conductance variation (sigma/G), applied as
    // G ← G·(1 + ε), ε ~ N(0, sigma). 0 disables variation.
    double sigma_variation = 0.10;

    double g_max() const { return 1.0 / r_min; }
    double g_min() const { return 1.0 / r_max; }
    double on_off_ratio() const { return r_max / r_min; }
};

struct ParasiticsConfig {
    double r_driver = 27.0;     // input driver source resistance (ohms)
    double r_wire_row = 0.9;    // word-line wire resistance per cell (ohms)
    double r_wire_col = 0.9;    // bit-line wire resistance per cell (ohms)
    double r_sense = 27.0;      // sense amplifier input resistance (ohms)
    double v_nom = 0.25;        // nominal read voltage used for calibration (V)

    // Convenience: an ideal (parasitic-free) configuration.
    static ParasiticsConfig ideal();
};

struct CrossbarConfig {
    std::int64_t size = 32;  // X in an X×X array
    DeviceConfig device;
    ParasiticsConfig parasitics;

    std::string describe() const;
};

}  // namespace xs::xbar
