#include "monitoring/io.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "property.hpp"
#include "telecom/simulator.hpp"

namespace pfm::mon {
namespace {

MonitoringDataset small_trace() {
  MonitoringDataset ds(SymptomSchema({"load", "mem"}));
  ds.add_sample({0.0, {1.25, 4096.0}});
  ds.add_sample({30.0, {1.5, 4000.5}});
  ds.add_event({12.0, 201, 3, 2});
  ds.add_event({25.0, 403, 1, 1});
  ds.add_failure(100.0);
  return ds;
}

TEST(TraceIo, RoundTripPreservesEverything) {
  const auto original = small_trace();
  std::stringstream buffer;
  write_csv(original, buffer);
  const auto restored = read_csv(buffer);

  ASSERT_EQ(restored.schema().size(), 2u);
  EXPECT_EQ(restored.schema().name(0), "load");
  EXPECT_EQ(restored.schema().name(1), "mem");
  ASSERT_EQ(restored.samples().size(), 2u);
  EXPECT_DOUBLE_EQ(restored.samples()[0].time, 0.0);
  EXPECT_DOUBLE_EQ(restored.samples()[1].values[1], 4000.5);
  ASSERT_EQ(restored.events().size(), 2u);
  EXPECT_EQ(restored.events()[0].event_id, 201);
  EXPECT_EQ(restored.events()[0].component, 3);
  EXPECT_EQ(restored.events()[0].severity, 2);
  ASSERT_EQ(restored.failures().size(), 1u);
  EXPECT_DOUBLE_EQ(restored.failures()[0], 100.0);
}

TEST(TraceIo, RoundTripOfSimulatorTrace) {
  telecom::SimConfig cfg;
  cfg.duration = 6.0 * 3600.0;
  cfg.seed = 3;
  telecom::ScpSimulator sim(cfg);
  sim.run();
  const auto& original = sim.trace();

  std::stringstream buffer;
  write_csv(original, buffer);
  const auto restored = read_csv(buffer);
  EXPECT_EQ(restored.samples().size(), original.samples().size());
  EXPECT_EQ(restored.events().size(), original.events().size());
  EXPECT_EQ(restored.failures().size(), original.failures().size());
  // Timestamps survive exactly (printed at 17 significant digits).
  for (std::size_t i = 0; i < original.events().size(); ++i) {
    EXPECT_DOUBLE_EQ(restored.events()[i].time, original.events()[i].time);
  }
}

TEST(TraceIo, CommentsAndBlankLinesIgnored) {
  std::stringstream in(
      "# a comment\n"
      "schema,x\n"
      "\n"
      "s,1.0,2.0\n"
      "# another comment\n"
      "f,5.0\n");
  const auto ds = read_csv(in);
  EXPECT_EQ(ds.samples().size(), 1u);
  EXPECT_EQ(ds.failures().size(), 1u);
}

TEST(TraceIo, MalformedInputRejected) {
  // Unknown tag.
  {
    std::stringstream in("schema,x\nq,1.0\n");
    EXPECT_THROW(read_csv(in), std::invalid_argument);
  }
  // Sample before schema.
  {
    std::stringstream in("s,1.0,2.0\n");
    EXPECT_THROW(read_csv(in), std::invalid_argument);
  }
  // Sample arity mismatch.
  {
    std::stringstream in("schema,x,y\ns,1.0,2.0\n");
    EXPECT_THROW(read_csv(in), std::invalid_argument);
  }
  // Non-numeric field.
  {
    std::stringstream in("schema,x\ns,abc,2.0\n");
    EXPECT_THROW(read_csv(in), std::invalid_argument);
  }
  // Event arity mismatch.
  {
    std::stringstream in("schema,x\ne,1.0,201\n");
    EXPECT_THROW(read_csv(in), std::invalid_argument);
  }
  // Duplicate schema.
  {
    std::stringstream in("schema,x\nschema,y\n");
    EXPECT_THROW(read_csv(in), std::invalid_argument);
  }
  // Out-of-order timestamps violate the dataset contract.
  {
    std::stringstream in("schema,x\ns,5.0,1.0\ns,1.0,1.0\n");
    EXPECT_THROW(read_csv(in), std::invalid_argument);
  }
  // Integer fields must be integral and fit int32 (casting 1e20 would be
  // undefined behaviour, nan would become INT_MIN, 2.5 would truncate);
  // times must be finite. The error names the offending line.
  for (const char* bad : {"e,1.0,1e20,0,0", "e,1.0,nan,0,0", "e,1.0,2.5,0,0",
                          "s,nan,1.0", "f,inf"}) {
    std::stringstream in(std::string("schema,x\n") + bad + "\n");
    try {
      read_csv(in);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << bad << ": " << e.what();
    }
  }
}

TEST(TraceIo, NanSymptomValueRoundTrips) {
  // Corrupted samples carry NaN values; write_csv writes them as "nan" and
  // read_csv must take them back.
  MonitoringDataset ds(SymptomSchema({"load", "mem"}));
  ds.add_sample({0.0, {std::nan(""), 4096.0}});
  ds.add_event({1.0, -7, 0, 2});
  std::stringstream buffer;
  write_csv(ds, buffer);
  const auto restored = read_csv(buffer);
  ASSERT_EQ(restored.samples().size(), 1u);
  EXPECT_TRUE(std::isnan(restored.samples()[0].values[0]));
  EXPECT_EQ(restored.samples()[0].values[1], 4096.0);
  ASSERT_EQ(restored.events().size(), 1u);
  EXPECT_EQ(restored.events()[0].event_id, -7);
}

// --- mutation fuzz: read_csv is the first untrusted input -------------------

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

std::size_t pick(num::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

// One random mutation of a CSV text: a byte flip, a truncation, or a
// deleted, duplicated or swapped line, or two swapped fields of a line.
std::string mutate(const std::string& text, num::Rng& rng) {
  auto lines = split_lines(text);
  switch (rng.uniform_int(0, 5)) {
    case 0: {  // byte flip
      std::string out = text;
      if (out.empty()) return out;
      const std::size_t at = pick(rng, out.size());
      out[at] = rng.bernoulli(0.5)
                    ? static_cast<char>(rng.uniform_int(0, 255))
                    : static_cast<char>(out[at] ^ (1 << rng.uniform_int(0, 7)));
      return out;
    }
    case 1:  // truncation
      return text.substr(0, pick(rng, text.size() + 1));
    case 2:  // deleted line
      if (!lines.empty()) {
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(
                                        pick(rng, lines.size())));
      }
      break;
    case 3:  // duplicated line
      if (!lines.empty()) {
        const std::size_t at = pick(rng, lines.size());
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                     lines[at]);
      }
      break;
    case 4:  // swapped lines
      if (!lines.empty()) {
        std::swap(lines[pick(rng, lines.size())],
                  lines[pick(rng, lines.size())]);
      }
      break;
    default: {  // swapped fields of one line
      if (lines.empty()) break;
      auto& line = lines[pick(rng, lines.size())];
      std::vector<std::string> fields;
      std::istringstream is(line);
      for (std::string f; std::getline(is, f, ',');) fields.push_back(f);
      if (fields.size() < 2) break;
      std::swap(fields[pick(rng, fields.size())],
                fields[pick(rng, fields.size())]);
      line.clear();
      for (std::size_t i = 0; i < fields.size(); ++i) {
        line += (i == 0 ? "" : ",") + fields[i];
      }
      break;
    }
  }
  std::string out;
  for (const auto& line : lines) out += line + '\n';
  return out;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Record lines per tag ("s", "e", "f") of a CSV text.
std::size_t count_records(const std::string& text, const std::string& tag) {
  std::size_t n = 0;
  for (const auto& line : split_lines(text)) {
    if (line.compare(0, tag.size() + 1, tag + ",") == 0 || line == tag) ++n;
  }
  return n;
}

// Valid: every stream time-ordered with no NaN time, every append
// retained, every sample as wide as the schema, and the write/read round
// trip returns the dataset bit for bit.
void expect_valid_and_stable(const MonitoringDataset& ds) {
  ASSERT_EQ(ds.sample_count(), ds.samples().size());
  ASSERT_EQ(ds.event_count(), ds.events().size());
  for (std::size_t i = 0; i < ds.samples().size(); ++i) {
    const auto& s = ds.samples()[i];
    ASSERT_FALSE(std::isnan(s.time));
    ASSERT_EQ(s.values.size(), ds.schema().size());
    if (i > 0) {
      ASSERT_LE(ds.samples()[i - 1].time, s.time);
    }
  }
  for (std::size_t i = 0; i < ds.events().size(); ++i) {
    ASSERT_FALSE(std::isnan(ds.events()[i].time));
    if (i > 0) {
      ASSERT_LE(ds.events()[i - 1].time, ds.events()[i].time);
    }
  }
  for (std::size_t i = 0; i < ds.failures().size(); ++i) {
    ASSERT_FALSE(std::isnan(ds.failures()[i]));
    if (i > 0) {
      ASSERT_LE(ds.failures()[i - 1], ds.failures()[i]);
    }
  }

  std::stringstream buffer;
  write_csv(ds, buffer);
  const auto again = read_csv(buffer);
  ASSERT_EQ(again.schema().names(), ds.schema().names());
  ASSERT_EQ(again.samples().size(), ds.samples().size());
  for (std::size_t i = 0; i < ds.samples().size(); ++i) {
    const auto& a = again.samples()[i];
    const auto& b = ds.samples()[i];
    ASSERT_TRUE(same_bits(a.time, b.time)) << "sample " << i;
    ASSERT_EQ(a.values.size(), b.values.size());
    for (std::size_t v = 0; v < a.values.size(); ++v) {
      ASSERT_TRUE(same_bits(a.values[v], b.values[v]))
          << "sample " << i << " value " << v << ": " << b.values[v];
    }
  }
  ASSERT_EQ(again.events().size(), ds.events().size());
  for (std::size_t i = 0; i < ds.events().size(); ++i) {
    const auto& a = again.events()[i];
    const auto& b = ds.events()[i];
    ASSERT_TRUE(same_bits(a.time, b.time)) << "event " << i;
    ASSERT_EQ(a.event_id, b.event_id);
    ASSERT_EQ(a.component, b.component);
    ASSERT_EQ(a.severity, b.severity);
  }
  ASSERT_EQ(again.failures().size(), ds.failures().size());
  for (std::size_t i = 0; i < ds.failures().size(); ++i) {
    ASSERT_TRUE(same_bits(again.failures()[i], ds.failures()[i]));
  }
}

TEST(TraceIo, MutatedCsvThrowsOrParsesToAValidTrace) {
  telecom::SimConfig cfg;
  cfg.seed = 11;
  cfg.duration = 3600.0;
  cfg.cascade_mtbf = 1800.0;  // error events and failures in one hour
  cfg.leak_mtbf = 1800.0;
  telecom::ScpSimulator sim(cfg);
  sim.run();
  std::stringstream base;
  write_csv(sim.trace(), base);
  ASSERT_FALSE(sim.trace().events().empty());

  std::size_t parsed = 0;
  std::size_t rejected = 0;
  proptest::run_cases(
      "read_csv mutation", 0x7ace, 600, [&](num::Rng& rng, std::size_t) {
        std::string text = base.str();
        const auto rounds = rng.uniform_int(1, 4);
        for (std::int64_t r = 0; r < rounds; ++r) text = mutate(text, rng);
        std::stringstream in(text);
        MonitoringDataset ds;
        try {
          ds = read_csv(in);
        } catch (const std::invalid_argument&) {
          ++rejected;  // fine
          return;
        }
        ++parsed;
        // Every record line became one element: nothing is lost silently.
        EXPECT_EQ(ds.samples().size(), count_records(text, "s"));
        EXPECT_EQ(ds.events().size(), count_records(text, "e"));
        EXPECT_EQ(ds.failures().size(), count_records(text, "f"));
        expect_valid_and_stable(ds);
      });
  // Both outcomes occur, so the sweep exercises the parser and the
  // checks alike.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
  std::printf("read_csv mutants: %zu parsed, %zu rejected\n", parsed,
              rejected);
}

TEST(TraceIo, SchemaAfterRecordsRejected) {
  // A late schema record would start a new dataset and silently lose the
  // events and failures read before it.
  for (const char* text : {"e,1.0,201,0,1\nschema,x\n", "f,5.0\nschema,x\n"}) {
    std::stringstream in(text);
    EXPECT_THROW(read_csv(in), std::invalid_argument) << text;
  }
  // Without any schema record, events and failures alone still parse.
  std::stringstream in("e,1.0,201,0,1\nf,5.0\n");
  const auto ds = read_csv(in);
  EXPECT_EQ(ds.events().size(), 1u);
  EXPECT_EQ(ds.failures().size(), 1u);
}

TEST(TraceIo, FileRoundTrip) {
  const auto original = small_trace();
  const std::string path = ::testing::TempDir() + "pfm_trace_io_test.csv";
  save_csv(original, path);
  const auto restored = load_csv(path);
  EXPECT_EQ(restored.samples().size(), original.samples().size());
  std::remove(path.c_str());
  EXPECT_THROW(load_csv("/nonexistent/dir/trace.csv"), std::runtime_error);
}

}  // namespace
}  // namespace pfm::mon
