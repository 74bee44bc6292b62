#include "core/forecast.hh"

#include <algorithm>

#include "common/error.hh"

namespace wanify {
namespace core {

constexpr Mbps BwForecast::kMinFeasibleMbps;

void
BwForecast::addSegment(Seconds end, Matrix<Mbps> bw)
{
    if (bw.rows() != bw.cols() || bw.rows() == 0)
        fatal("BwForecast::addSegment: matrix must be square");
    if (!bw_.empty() && bw.rows() != bw_.front().rows())
        fatal("BwForecast::addSegment: inconsistent matrix size");
    if (!ends_.empty() && end <= ends_.back())
        fatal("BwForecast::addSegment: ends must be strictly "
              "increasing");
    ends_.push_back(end);
    bw_.push_back(std::move(bw));
}

std::size_t
BwForecast::dcCount() const
{
    return bw_.empty() ? 0 : bw_.front().rows();
}

Seconds
BwForecast::horizonEnd() const
{
    if (ends_.empty())
        fatal("BwForecast::horizonEnd: empty forecast");
    return ends_.back();
}

std::size_t
BwForecast::segmentFor(Seconds t) const
{
    // Segment k holds over (ends_[k-1], ends_[k]]: the first segment
    // whose end is >= t, clamped to the final segment past the
    // horizon (its matrix is held forever).
    const auto it =
        std::lower_bound(ends_.begin(), ends_.end(), t);
    if (it == ends_.end())
        return ends_.size() - 1;
    return static_cast<std::size_t>(it - ends_.begin());
}

const Matrix<Mbps> &
BwForecast::matrixAt(Seconds t) const
{
    if (bw_.empty())
        fatal("BwForecast::matrixAt: empty forecast");
    return bw_[segmentFor(t)];
}

Mbps
BwForecast::bwAt(net::DcId i, net::DcId j, Seconds t) const
{
    return matrixAt(t).at(i, j);
}

Seconds
BwForecast::transferTime(net::DcId i, net::DcId j, Bytes bytes,
                         double share, Seconds start) const
{
    if (bw_.empty())
        fatal("BwForecast::transferTime: empty forecast");
    if (bytes <= 0.0)
        return 0.0;
    Bytes remaining = bytes;
    Seconds t = start;
    std::size_t k = segmentFor(start);
    while (true) {
        const Mbps rate =
            std::max(kMinFeasibleMbps, bw_[k].at(i, j) * share);
        const double bytesPerSecond =
            rate * units::kBitsPerMegabit / units::kBitsPerByte;
        if (k + 1 >= bw_.size()) {
            // Final segment: held forever, drain the rest here.
            return t + remaining / bytesPerSecond - start;
        }
        const Seconds window = ends_[k] - t;
        if (window > 0.0) {
            const Bytes moved = bytesPerSecond * window;
            if (moved >= remaining)
                return t + remaining / bytesPerSecond - start;
            remaining -= moved;
        }
        t = ends_[k];
        ++k;
    }
}

GaugeTrend::GaugeTrend(std::size_t maxPoints) : maxPoints_(maxPoints)
{
    if (maxPoints_ < 2)
        fatal("GaugeTrend: maxPoints must be >= 2");
}

void
GaugeTrend::record(Seconds t, const Matrix<Mbps> &bw)
{
    if (bw.rows() != bw.cols() || bw.rows() == 0)
        fatal("GaugeTrend::record: matrix must be square");
    if (!points_.empty() && bw.rows() != points_.front().rows())
        fatal("GaugeTrend::record: inconsistent matrix size");
    if (!times_.empty() && t <= times_.back())
        fatal("GaugeTrend::record: times must be strictly increasing");
    times_.push_back(t);
    points_.push_back(bw);
    if (times_.size() > maxPoints_) {
        times_.erase(times_.begin());
        points_.erase(points_.begin());
    }
}

BwForecast
GaugeTrend::forecast(Seconds now, Seconds horizon, Seconds step) const
{
    BwForecast fc;
    if (points_.empty())
        return fc;
    if (!(horizon > 0.0) || !(step > 0.0))
        fatal("GaugeTrend::forecast: horizon and step must be > 0");

    const std::size_t n = points_.front().rows();
    const std::size_t m = times_.size();

    if (m < 2) {
        // No trend yet: hold the only observation flat.
        fc.addSegment(now + horizon, points_.back());
        return fc;
    }

    // Per-pair ordinary least squares over the recorded history:
    // bw(t) ~ a + b t. One shared accumulation of the time moments,
    // per-pair accumulation of the cross terms.
    double sumT = 0.0, sumTT = 0.0;
    for (Seconds t : times_) {
        sumT += t;
        sumTT += t * t;
    }
    const double count = static_cast<double>(m);
    const double det = count * sumTT - sumT * sumT;

    Matrix<double> slope = Matrix<double>::square(n, 0.0);
    Matrix<double> intercept = points_.back().map<double>(
        [](Mbps v) { return static_cast<double>(v); });
    if (det > 1.0e-12) {
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                double sumY = 0.0, sumTY = 0.0;
                for (std::size_t k = 0; k < m; ++k) {
                    const double y = points_[k].at(i, j);
                    sumY += y;
                    sumTY += times_[k] * y;
                }
                slope.at(i, j) = (count * sumTY - sumT * sumY) / det;
                intercept.at(i, j) =
                    (sumY * sumTT - sumT * sumTY) / det;
            }
        }
    }

    const std::size_t steps = static_cast<std::size_t>(
        std::max(1.0, horizon / step + 0.5));
    for (std::size_t s = 1; s <= steps; ++s) {
        const Seconds end = now + static_cast<double>(s) * step;
        Matrix<Mbps> seg = Matrix<Mbps>::square(n, 0.0);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j)
                seg.at(i, j) = std::max(
                    0.0, intercept.at(i, j) + slope.at(i, j) * end);
        fc.addSegment(end, std::move(seg));
    }
    return fc;
}

Matrix<Mbps>
GaugeTrend::extrapolateAt(Seconds t) const
{
    if (points_.empty())
        fatal("GaugeTrend::extrapolateAt: no observations");
    const std::size_t n = points_.front().rows();
    const std::size_t m = times_.size();
    if (m < 2)
        return points_.back();

    double sumT = 0.0, sumTT = 0.0;
    for (Seconds u : times_) {
        sumT += u;
        sumTT += u * u;
    }
    const double count = static_cast<double>(m);
    const double det = count * sumTT - sumT * sumT;
    if (det <= 1.0e-12)
        return points_.back();

    Matrix<Mbps> out = Matrix<Mbps>::square(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double sumY = 0.0, sumTY = 0.0;
            for (std::size_t k = 0; k < m; ++k) {
                const double y = points_[k].at(i, j);
                sumY += y;
                sumTY += times_[k] * y;
            }
            const double slope = (count * sumTY - sumT * sumY) / det;
            const double intercept =
                (sumY * sumTT - sumT * sumTY) / det;
            out.at(i, j) = std::max(0.0, intercept + slope * t);
        }
    }
    return out;
}

} // namespace core
} // namespace wanify
