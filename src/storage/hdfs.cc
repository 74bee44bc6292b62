#include "storage/hdfs.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"

namespace wanify {
namespace storage {

HdfsStore::HdfsStore(const net::Topology &topo, HdfsConfig cfg)
    : topo_(topo), cfg_(cfg), bytesByDc_(topo.dcCount(), 0.0)
{
    fatalIf(cfg_.blockSize <= 0.0, "HdfsStore: blockSize must be > 0");
    fatalIf(cfg_.s3ReadOverhead < 1.0,
            "HdfsStore: s3ReadOverhead must be >= 1");
}

void
HdfsStore::loadUniform(Bytes totalBytes)
{
    std::vector<double> fractions(
        topo_.dcCount(), 1.0 / static_cast<double>(topo_.dcCount()));
    loadFractions(totalBytes, fractions);
}

void
HdfsStore::loadSkewed(Bytes totalBytes,
                      const std::vector<double> &dcFractions)
{
    fatalIf(dcFractions.size() != topo_.dcCount(),
            "HdfsStore::loadSkewed: fraction count mismatch");
    double sum = 0.0;
    for (double f : dcFractions) {
        // A NaN would pass both checks below and place no bytes.
        fatalIf(!std::isfinite(f),
                "HdfsStore::loadSkewed: fractions must be finite");
        fatalIf(f < 0.0, "HdfsStore::loadSkewed: negative fraction");
        sum += f;
    }
    fatalIf(std::abs(sum - 1.0) > 1.0e-6,
            "HdfsStore::loadSkewed: fractions must sum to 1");
    loadFractions(totalBytes, dcFractions);
}

void
HdfsStore::loadFractions(Bytes totalBytes,
                         const std::vector<double> &fractions)
{
    // A NaN would load no block; +inf would never leave the block
    // loop (inf - blockSize == inf).
    fatalIf(!std::isfinite(totalBytes),
            "HdfsStore: totalBytes must be finite");
    fatalIf(totalBytes <= 0.0, "HdfsStore: totalBytes must be > 0");
    blocks_.clear();
    bytesByDc_.assign(topo_.dcCount(), 0.0);

    std::size_t nextId = 0;
    for (net::DcId dc = 0; dc < topo_.dcCount(); ++dc) {
        Bytes want = totalBytes * fractions[dc];
        while (want > 0.0) {
            const Bytes size = std::min(want, cfg_.blockSize);
            blocks_.push_back({nextId++, size, dc});
            bytesByDc_[dc] += size;
            want -= size;
        }
    }
}

Bytes
HdfsStore::bytesAt(net::DcId dc) const
{
    panicIf(dc >= bytesByDc_.size(), "HdfsStore::bytesAt: out of range");
    return bytesByDc_[dc] * cfg_.s3ReadOverhead;
}

std::vector<Bytes>
HdfsStore::distribution() const
{
    std::vector<Bytes> dist(topo_.dcCount(), 0.0);
    for (net::DcId dc = 0; dc < topo_.dcCount(); ++dc)
        dist[dc] = bytesAt(dc);
    return dist;
}

Bytes
HdfsStore::totalBytes() const
{
    Bytes total = 0.0;
    for (net::DcId dc = 0; dc < topo_.dcCount(); ++dc)
        total += bytesAt(dc);
    return total;
}

std::vector<double>
HdfsStore::skewWeights() const
{
    const std::size_t n = topo_.dcCount();
    const Bytes total = totalBytes();
    std::vector<double> ws(n, 1.0);
    if (total <= 0.0)
        return ws;
    for (net::DcId dc = 0; dc < n; ++dc) {
        const double share = bytesAt(dc) / total;
        ws[dc] = std::max(0.25, share * static_cast<double>(n));
    }
    return ws;
}

} // namespace storage
} // namespace wanify
