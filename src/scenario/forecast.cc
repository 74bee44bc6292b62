#include "scenario/forecast.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"

namespace wanify {
namespace scenario {

core::BwForecast
forecastFromDynamics(const Dynamics &dyn,
                     const Matrix<Mbps> &believed, Seconds now,
                     const core::ForecastConfig &cfg)
{
    const std::size_t n = dyn.dcCount();
    if (believed.rows() != n || believed.cols() != n)
        fatal("forecastFromDynamics: believed matrix size mismatch");
    if (!(cfg.horizon > 0.0) || !(cfg.step > 0.0))
        fatal("forecastFromDynamics: horizon and step must be > 0");

    // Current anchor: divide each pair by the factor holding now,
    // floored so a belief gauged mid-outage still forecasts recovery.
    Matrix<double> nowFactor;
    if (cfg.anchor == core::ForecastConfig::Anchor::Current) {
        nowFactor = Matrix<double>::square(n, 1.0);
        for (net::DcId i = 0; i < n; ++i)
            for (net::DcId j = 0; j < n; ++j)
                if (i != j)
                    nowFactor.at(i, j) = std::max(
                        kMinAnchorFactor, dyn.capFactorAt(i, j, now));
    }

    core::BwForecast fc;
    const std::size_t steps = static_cast<std::size_t>(
        std::max(1.0, std::floor(cfg.horizon / cfg.step + 0.5)));
    for (std::size_t s = 1; s <= steps; ++s) {
        const Seconds end = now + static_cast<double>(s) * cfg.step;
        Matrix<Mbps> seg = believed;
        for (net::DcId i = 0; i < n; ++i) {
            for (net::DcId j = 0; j < n; ++j) {
                if (i == j)
                    continue;
                double factor = dyn.capFactorAt(i, j, end);
                if (cfg.anchor ==
                    core::ForecastConfig::Anchor::Current)
                    factor /= nowFactor.at(i, j);
                seg.at(i, j) =
                    std::max(0.0, believed.at(i, j) * factor);
            }
        }
        fc.addSegment(end, std::move(seg));
    }
    return fc;
}

} // namespace scenario
} // namespace wanify
