// Thermal sensor models.
//
// The paper's CSTH reports 4 CPU temperatures (2 sensors per die) and 32
// DIMM temperatures (1 per module).  Real sensors carry placement bias,
// noise and ADC quantization; modelling those keeps the controllers honest
// (the bang-bang controller reacts to *sensor* readings, not to the plant
// state).  A sensor is plain data: the plant's poll pass hands it the
// true temperature and the lane's RNG stream at read time.
#pragma once

#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace ltsc::thermal {

/// One temperature sensor: placement bias, read noise, ADC step.
class temperature_sensor {
public:
    /// `bias` models placement offset, `noise_sigma` Gaussian read noise,
    /// `quantum` the ADC step (0 disables quantization).
    temperature_sensor(std::string name, util::celsius_t bias, double noise_sigma,
                       double quantum);

    /// Reads `truth` through the sensor (bias + noise + quantization).
    /// Draws one normal from `rng` when the sensor is noisy.
    [[nodiscard]] util::celsius_t read(util::celsius_t truth, util::pcg32& rng) const;

    [[nodiscard]] const std::string& name() const { return name_; }

private:
    std::string name_;
    double bias_c_;
    double noise_sigma_;
    double quantum_;
};

/// The paper's sensor complement for one server: 2 sensors per CPU die
/// (+/- 0.8 degC placement spread) and `dimm_count` DIMM sensors spread
/// around the bank temperature by a positional gradient.
struct server_sensor_suite {
    std::vector<temperature_sensor> cpu;   ///< 4 sensors: cpu0_a, cpu0_b, cpu1_a, cpu1_b.
    std::vector<temperature_sensor> dimm;  ///< One per DIMM module.
};

[[nodiscard]] server_sensor_suite make_server_sensors(std::size_t dimm_count,
                                                      double noise_sigma = 0.15,
                                                      double quantum = 0.25);

}  // namespace ltsc::thermal
