#include "monitoring/io.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace pfm::mon {

namespace {

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream is(line);
  while (std::getline(is, field, ',')) out.push_back(field);
  return out;
}

double parse_number(const std::string& s, std::size_t line_no) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos != s.size()) throw std::invalid_argument("trailing characters");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("trace csv line " + std::to_string(line_no) +
                                ": bad number '" + s + "'");
  }
}

/// A timestamp: any finite number.
double parse_time(const std::string& s, std::size_t line_no) {
  const double v = parse_number(s, line_no);
  if (!std::isfinite(v)) {
    throw std::invalid_argument("trace csv line " + std::to_string(line_no) +
                                ": non-finite time '" + s + "'");
  }
  return v;
}

/// An event id, component or severity: an integral number in int32 range.
/// Casting anything else would truncate it or be undefined behaviour.
std::int32_t parse_int32(const std::string& s, std::size_t line_no) {
  const double v = parse_number(s, line_no);
  constexpr double kMin = std::numeric_limits<std::int32_t>::min();
  constexpr double kMax = std::numeric_limits<std::int32_t>::max();
  if (!(v >= kMin && v <= kMax) || v != std::trunc(v)) {
    throw std::invalid_argument("trace csv line " + std::to_string(line_no) +
                                ": not a 32-bit integer '" + s + "'");
  }
  return static_cast<std::int32_t>(v);
}

}  // namespace

void write_csv(const MonitoringDataset& dataset, std::ostream& out) {
  out << std::setprecision(17);
  out << "schema";
  for (const auto& name : dataset.schema().names()) out << ',' << name;
  out << '\n';
  // Streams are written separately; each is internally time-ordered.
  for (const auto& s : dataset.samples()) {
    out << "s," << s.time;
    for (double v : s.values) out << ',' << v;
    out << '\n';
  }
  for (const auto& e : dataset.events()) {
    out << "e," << e.time << ',' << e.event_id << ',' << e.component << ','
        << e.severity << '\n';
  }
  for (double f : dataset.failures()) {
    out << "f," << f << '\n';
  }
}

MonitoringDataset read_csv(std::istream& in) {
  std::string line;
  std::size_t line_no = 0;
  bool have_schema = false;
  MonitoringDataset dataset;
  std::vector<double> row;  // one sample's values, reused across lines
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const auto fields = split_fields(line);
    const auto& tag = fields.front();
    if (tag == "schema") {
      if (have_schema) {
        throw std::invalid_argument("trace csv line " +
                                    std::to_string(line_no) +
                                    ": duplicate schema record");
      }
      // A fresh dataset would silently drop the records read so far.
      if (!dataset.events().empty() || !dataset.failures().empty()) {
        throw std::invalid_argument("trace csv line " +
                                    std::to_string(line_no) +
                                    ": schema record after data records");
      }
      dataset = MonitoringDataset(
          SymptomSchema({fields.begin() + 1, fields.end()}));
      have_schema = true;
    } else if (tag == "s") {
      if (!have_schema) {
        throw std::invalid_argument("trace csv: sample before schema");
      }
      if (fields.size() != 2 + dataset.schema().size()) {
        throw std::invalid_argument("trace csv line " +
                                    std::to_string(line_no) +
                                    ": sample arity mismatch");
      }
      const double time = parse_time(fields[1], line_no);
      row.clear();
      for (std::size_t i = 2; i < fields.size(); ++i) {
        row.push_back(parse_number(fields[i], line_no));
      }
      dataset.add_sample(time, row);
    } else if (tag == "e") {
      if (fields.size() != 5) {
        throw std::invalid_argument("trace csv line " +
                                    std::to_string(line_no) +
                                    ": event arity mismatch");
      }
      ErrorEvent e;
      e.time = parse_time(fields[1], line_no);
      e.event_id = parse_int32(fields[2], line_no);
      e.component = parse_int32(fields[3], line_no);
      e.severity = parse_int32(fields[4], line_no);
      dataset.add_event(e);
    } else if (tag == "f") {
      if (fields.size() != 2) {
        throw std::invalid_argument("trace csv line " +
                                    std::to_string(line_no) +
                                    ": failure arity mismatch");
      }
      dataset.add_failure(parse_time(fields[1], line_no));
    } else {
      throw std::invalid_argument("trace csv line " + std::to_string(line_no) +
                                  ": unknown record tag '" + tag + "'");
    }
  }
  return dataset;
}

void save_csv(const MonitoringDataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_csv: cannot open " + path);
  write_csv(dataset, out);
  if (!out) throw std::runtime_error("save_csv: write failed for " + path);
}

MonitoringDataset load_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_csv: cannot open " + path);
  return read_csv(in);
}

}  // namespace pfm::mon
