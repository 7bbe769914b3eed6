#pragma once

#include <iosfwd>
#include <string>

#include "monitoring/dataset.hpp"

namespace pfm::mon {

/// Plain-text serialization of monitoring traces, so real log data can be
/// brought into the library (the paper's Sect. 7 laments how hard field
/// data is to share — at least the format should not be the obstacle).
///
/// Format (one record per line, '#' comments ignored):
///   schema,<name1>,<name2>,...
///   s,<time>,<v1>,<v2>,...          symptom sample
///   e,<time>,<event_id>,<component>,<severity>
///   f,<time>                        failure
///
/// Records of each stream must appear in nondecreasing time order (the
/// MonitoringDataset contract). The schema record, when present, comes
/// before every data record.
void write_csv(const MonitoringDataset& dataset, std::ostream& out);

/// Parses a trace written by write_csv (or hand-authored in the same
/// format). Throws std::invalid_argument on malformed input: unknown
/// record tags, arity mismatches against the schema, non-numeric fields,
/// a misplaced or duplicate schema record, or out-of-order timestamps.
MonitoringDataset read_csv(std::istream& in);

/// Convenience file wrappers; throw std::runtime_error when the file
/// cannot be opened.
void save_csv(const MonitoringDataset& dataset, const std::string& path);
MonitoringDataset load_csv(const std::string& path);

}  // namespace pfm::mon
