/**
 * @file
 * Geo-distributed HDFS-like block store.
 *
 * Input data lives as fixed-size blocks (64 MB in the paper's skew
 * experiments) distributed across DCs — uniformly, or skewed toward a
 * chosen subset by moving blocks (Section 5.8.1). The store exposes the
 * per-DC byte distribution and the skewness weights (ws) WANify's
 * global optimizer consumes (Section 3.3.1). S3-mounted data nodes add a
 * small (< 5%) read overhead (Section 5.1).
 */

#ifndef WANIFY_STORAGE_HDFS_HH
#define WANIFY_STORAGE_HDFS_HH

#include <cstddef>
#include <vector>

#include "common/units.hh"
#include "net/topology.hh"

namespace wanify {
namespace storage {

/** One HDFS block. */
struct Block
{
    std::size_t id = 0;
    Bytes size = 0.0;
    net::DcId location = 0;
};

/** Store configuration. */
struct HdfsConfig
{
    /** Block size (the paper's skew experiments use 64 MB). */
    Bytes blockSize = 64.0 * 1024.0 * 1024.0;

    /** Read-amplification of the data nodes, which are S3-mounted
     *  buckets (Section 5.1; < 5%). */
    double s3ReadOverhead = 1.03;
};

class HdfsStore
{
  public:
    explicit HdfsStore(const net::Topology &topo, HdfsConfig cfg = {});

    /** Load @p totalBytes (finite, > 0) spread as evenly as blocks
     *  allow. */
    void loadUniform(Bytes totalBytes);

    /**
     * Load @p totalBytes with the given per-DC fractions (finite,
     * >= 0, summing to ~1); used to emulate moving blocks into skewed
     * DCs.
     */
    void loadSkewed(Bytes totalBytes,
                    const std::vector<double> &dcFractions);

    const std::vector<Block> &blocks() const { return blocks_; }
    std::size_t blockCount() const { return blocks_.size(); }

    /** Bytes resident at a DC (including S3 read overhead if any). */
    Bytes bytesAt(net::DcId dc) const;

    /** Per-DC byte distribution (effective read bytes). */
    std::vector<Bytes> distribution() const;

    Bytes totalBytes() const;

    /**
     * Skewness weights ws (Section 3.3.1): per-DC data share scaled so
     * a uniform distribution yields all-ones. Clamped to >= 0.25 so
     * empty DCs keep a usable connection floor.
     */
    std::vector<double> skewWeights() const;

    const HdfsConfig &config() const { return cfg_; }

  private:
    void loadFractions(Bytes totalBytes,
                       const std::vector<double> &fractions);

    const net::Topology &topo_;
    HdfsConfig cfg_;
    std::vector<Block> blocks_;
    std::vector<Bytes> bytesByDc_;
};

} // namespace storage
} // namespace wanify

#endif // WANIFY_STORAGE_HDFS_HH
