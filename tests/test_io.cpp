#include "monitoring/io.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>

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
