/**
 * @file
 * CSV persistence for datasets.
 *
 * The paper open-sources the collected snapshot/runtime BW datasets
 * alongside the WANify code so future WAN-aware systems can reuse
 * them; this module provides the matching export/import path for the
 * Bandwidth Analyzer's output (one row per DC-pair sample: features,
 * then targets).
 */

#ifndef WANIFY_ML_CSV_HH
#define WANIFY_ML_CSV_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "ml/dataset.hh"

namespace wanify {
namespace ml {

/**
 * Write a dataset as CSV with a header line. Feature columns are
 * named from @p featureNames (must match the dataset's feature count;
 * empty = f0, f1, ...); target columns are named y0, y1, ...
 */
void writeCsv(std::ostream &out, const Dataset &data,
              const std::vector<std::string> &featureNames = {});

/** Write to a file; fatal() on I/O failure. */
void writeCsvFile(const std::string &path, const Dataset &data,
                  const std::vector<std::string> &featureNames = {});

/**
 * Read a dataset from CSV produced by writeCsv (header required;
 * the target columns are those whose names start with 'y'). Blank
 * lines are skipped and CRLF line endings accepted. When given,
 * @p rowLines receives the file line (the header is line 1) of each
 * data row, so a caller checking rows can name the line to fix.
 */
Dataset readCsv(std::istream &in,
                std::vector<std::size_t> *rowLines = nullptr);

/** Read from a file; fatal() on I/O failure. */
Dataset readCsvFile(const std::string &path,
                    std::vector<std::size_t> *rowLines = nullptr);

} // namespace ml
} // namespace wanify

#endif // WANIFY_ML_CSV_HH
