#include "ml/csv.hh"

#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.hh"

namespace wanify {
namespace ml {

namespace {

/** Parse the whole of @p cell as a number; std::stod alone stops at
 *  the first bad character, reading "1abc" as 1. Whitespace around
 *  the number is allowed on both sides, as std::stod allows it before. */
bool
parseCell(const std::string &cell, double &out)
{
    try {
        std::size_t used = 0;
        out = std::stod(cell, &used);
        for (; used < cell.size(); ++used)
            if (std::isspace(static_cast<unsigned char>(cell[used])) == 0)
                return false;
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

/** std::getline that also drops the '\r' of a CRLF line ending. */
bool
getLine(std::istream &in, std::string &line)
{
    if (!std::getline(in, line))
        return false;
    if (!line.empty() && line.back() == '\r')
        line.pop_back();
    return true;
}

} // namespace

void
writeCsv(std::ostream &out, const Dataset &data,
         const std::vector<std::string> &featureNames)
{
    fatalIf(!featureNames.empty() &&
                featureNames.size() != data.featureCount(),
            "writeCsv: feature name count mismatch");

    for (std::size_t f = 0; f < data.featureCount(); ++f) {
        if (f > 0)
            out << ",";
        if (featureNames.empty())
            out << "f" << f;
        else
            out << featureNames[f];
    }
    for (std::size_t k = 0; k < data.outputCount(); ++k)
        out << ",y" << k;
    out << "\n";

    // max_digits10: doubles survive the write/parse round trip
    // exactly — scenario trace replay (scenario/trace.hh) depends on
    // CSV not quantizing multipliers.
    out.precision(std::numeric_limits<double>::max_digits10);
    for (std::size_t i = 0; i < data.size(); ++i) {
        const auto &x = data.x(i);
        const auto &y = data.y(i);
        for (std::size_t f = 0; f < x.size(); ++f) {
            if (f > 0)
                out << ",";
            out << x[f];
        }
        for (double v : y)
            out << "," << v;
        out << "\n";
    }
}

void
writeCsvFile(const std::string &path, const Dataset &data,
             const std::vector<std::string> &featureNames)
{
    std::ofstream out(path);
    fatalIf(!out, "writeCsvFile: cannot open " + path);
    writeCsv(out, data, featureNames);
    fatalIf(!out, "writeCsvFile: write failed for " + path);
}

Dataset
readCsv(std::istream &in, std::vector<std::size_t> *rowLines)
{
    std::string header;
    fatalIf(!getLine(in, header), "readCsv: missing header");

    // Columns whose names start with 'y' are targets.
    std::size_t features = 0, targets = 0;
    {
        std::stringstream ss(header);
        std::string name;
        bool inTargets = false;
        while (std::getline(ss, name, ',')) {
            if (!name.empty() && name[0] == 'y') {
                inTargets = true;
                ++targets;
            } else {
                fatalIf(inTargets,
                        "readCsv: feature column after targets");
                ++features;
            }
        }
    }
    fatalIf(features == 0 || targets == 0,
            "readCsv: need at least one feature and target column");

    Dataset data(features, targets);
    if (rowLines != nullptr)
        rowLines->clear();
    std::string line;
    std::size_t lineNo = 1;
    while (getLine(in, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        std::stringstream ss(line);
        std::string cell;
        std::vector<double> x, y;
        while (std::getline(ss, cell, ',')) {
            double value = 0.0;
            if (!parseCell(cell, value))
                fatal("readCsv: bad number at line " +
                      std::to_string(lineNo));
            (x.size() < features ? x : y).push_back(value);
        }
        fatalIf(x.size() != features || y.size() != targets,
                "readCsv: wrong column count at line " +
                    std::to_string(lineNo));
        data.add(std::move(x), std::move(y));
        if (rowLines != nullptr)
            rowLines->push_back(lineNo);
    }
    return data;
}

Dataset
readCsvFile(const std::string &path, std::vector<std::size_t> *rowLines)
{
    std::ifstream in(path);
    fatalIf(!in, "readCsvFile: cannot open " + path);
    return readCsv(in, rowLines);
}

} // namespace ml
} // namespace wanify
