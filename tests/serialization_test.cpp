// Tests for the model / placement-plan text serialization.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "core/serialization.hpp"
#include "memsim/dram_timing.hpp"
#include "placement/heuristic.hpp"
#include "workload/model_zoo.hpp"

namespace microrec {
namespace {

TEST(ModelSerializationTest, RoundTripSmallProductionModel) {
  const RecModelSpec original = SmallProductionModel();
  const std::string text = SerializeModel(original);
  const auto parsed_or = ParseModel(text);
  ASSERT_TRUE(parsed_or.ok()) << parsed_or.status();
  const RecModelSpec& parsed = *parsed_or;

  EXPECT_EQ(parsed.name, original.name);
  EXPECT_EQ(parsed.seed, original.seed);
  EXPECT_EQ(parsed.lookups_per_table, original.lookups_per_table);
  EXPECT_EQ(parsed.max_onchip_tables, original.max_onchip_tables);
  EXPECT_EQ(parsed.mlp.input_dim, original.mlp.input_dim);
  EXPECT_EQ(parsed.mlp.hidden, original.mlp.hidden);
  ASSERT_EQ(parsed.tables.size(), original.tables.size());
  for (std::size_t i = 0; i < original.tables.size(); ++i) {
    EXPECT_EQ(parsed.tables[i].id, original.tables[i].id);
    EXPECT_EQ(parsed.tables[i].rows, original.tables[i].rows);
    EXPECT_EQ(parsed.tables[i].dim, original.tables[i].dim);
    EXPECT_EQ(parsed.tables[i].name, original.tables[i].name);
  }
}

TEST(ModelSerializationTest, RoundTripDlrm) {
  const RecModelSpec original = DlrmRmc2Model(12, 64);
  const auto parsed = ParseModel(SerializeModel(original));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->lookups_per_table, 4u);
  EXPECT_EQ(parsed->tables.size(), 12u);
}

TEST(ModelSerializationTest, CommentsAndBlankLinesIgnored) {
  std::string text = SerializeModel(SmallProductionModel());
  text = "# a comment\n\n" + text + "\n# trailing\n";
  EXPECT_TRUE(ParseModel(text).ok());
}

TEST(ModelSerializationTest, RejectsMissingHeader) {
  const auto result = ParseModel("name foo\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ModelSerializationTest, RejectsUnknownKey) {
  const auto result = ParseModel("microrec-model v1\nbogus 1\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("unknown key"), std::string::npos);
}

TEST(ModelSerializationTest, RejectsMalformedInteger) {
  const auto result = ParseModel(
      "microrec-model v1\nmlp 8 16\ntable 0 abc 4 4 t0\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 3"), std::string::npos);
  // A negative count must not wrap around to a huge unsigned one.
  const auto negative = ParseModel(
      "microrec-model v1\nmax_onchip_tables -1\nmlp 4 16\n"
      "table 0 10 4 4 t0\n");
  ASSERT_FALSE(negative.ok());
  EXPECT_NE(negative.status().message().find("line 2"), std::string::npos);
  // 32-bit fields reject values above 2^32 - 1 instead of wrapping them:
  // a dim of 2^32 + 4 must not load as 4, a hidden width of 2^32 + 16 as
  // 16, or a table id of 2^32 as 0.
  const auto wide_dim = ParseModel(
      "microrec-model v1\nmlp 4 16\ntable 0 10 4294967300 4 t0\n");
  ASSERT_FALSE(wide_dim.ok());
  EXPECT_NE(wide_dim.status().message().find("line 3"), std::string::npos);
  const auto wide_hidden = ParseModel(
      "microrec-model v1\nmlp 4 4294967312\ntable 0 10 4 4 t0\n");
  ASSERT_FALSE(wide_hidden.ok());
  EXPECT_NE(wide_hidden.status().message().find("line 2"), std::string::npos);
  const auto wide_id = ParseModel(
      "microrec-model v1\nmlp 4 16\ntable 4294967296 10 4 4 t0\n");
  ASSERT_FALSE(wide_id.ok());
  EXPECT_NE(wide_id.status().message().find("line 3"), std::string::npos);
}

TEST(ModelSerializationTest, RejectsDuplicateTableIds) {
  const auto result = ParseModel(
      "microrec-model v1\nmlp 8 16\ntable 0 10 4 4 a\n"
      "table 0 20 4 4 b\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("duplicate table id 0"),
            std::string::npos)
      << result.status();
}

TEST(ModelSerializationTest, RejectsUnboundedLookupsPerTable) {
  // 2^32 - 1 fits the 32-bit field, but placement reserves one access per
  // table per lookup, so `plan` died in the allocation.
  const std::string head = "microrec-model v1\nmlp 4 16\ntable 0 10 4 4 t0\n";
  const auto huge = ParseModel(head + "lookups_per_table 4294967295\n");
  ASSERT_FALSE(huge.ok());
  EXPECT_NE(huge.status().message().find("lookups_per_table"),
            std::string::npos)
      << huge.status();
  const std::uint32_t cap = RecModelSpec::kMaxLookupsPerTable;
  EXPECT_TRUE(
      ParseModel(head + "lookups_per_table " + std::to_string(cap) + "\n")
          .ok());
  EXPECT_FALSE(
      ParseModel(head + "lookups_per_table " + std::to_string(cap + 1) + "\n")
          .ok());
}

TEST(ModelSerializationTest, RejectsTablesWhoseBytesOverflow) {
  // rows x 16-byte vectors wrapped to a small size, so `inspect` reported
  // 1.22 GiB of embeddings for a table of 2^64 - 1 rows.
  const auto wide_rows = ParseModel(
      "microrec-model v1\nmlp 4 16\ntable 0 18446744073709551615 4 4 t0\n");
  ASSERT_FALSE(wide_rows.ok());
  EXPECT_NE(wide_rows.status().message().find("t0"), std::string::npos)
      << wide_rows.status();
  // Each table fits on its own; together they exceed 2^64 bytes.
  const std::string largest = std::to_string(
      std::numeric_limits<std::uint64_t>::max() / 16);
  EXPECT_TRUE(ParseModel("microrec-model v1\nmlp 4 16\ntable 0 " + largest +
                         " 4 4 t0\n")
                  .ok());
  const auto wide_sum =
      ParseModel("microrec-model v1\nmlp 8 16\ntable 0 " + largest +
                 " 4 4 t0\ntable 1 " + largest + " 4 4 t1\n");
  ASSERT_FALSE(wide_sum.ok());
  EXPECT_NE(wide_sum.status().message().find("bytes"), std::string::npos)
      << wide_sum.status();
}

TEST(ModelSerializationTest, RejectsFeatureLengthPast32Bits) {
  // The dims summed in 32 bits to 4, so `inspect` accepted `mlp 4 16` and
  // printed "feature length 4" for two tables of dim 2147483650.
  const auto wrapped = ParseModel(
      "microrec-model v1\nmlp 4 16\ntable 0 10 2147483650 4 t0\n"
      "table 1 10 2147483650 4 t1\n");
  ASSERT_FALSE(wrapped.ok());
  EXPECT_EQ(wrapped.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wrapped.status().message().find("feature length 4294967300"),
            std::string::npos)
      << wrapped.status();
  // A sum of exactly 2^32 - 1 fits: the model fails only the MLP check.
  const auto widest = ParseModel(
      "microrec-model v1\nmlp 4 16\ntable 0 10 2147483647 4 t0\n"
      "table 1 10 2147483648 4 t1\n");
  ASSERT_FALSE(widest.ok());
  EXPECT_EQ(widest.status().code(), StatusCode::kFailedPrecondition)
      << widest.status();
  EXPECT_NE(widest.status().message().find("4294967295"), std::string::npos)
      << widest.status();
}

TEST(ModelSerializationTest, RejectsInvalidTable) {
  const auto result = ParseModel(
      "microrec-model v1\nmlp 8 16\ntable 0 0 4 4 empty\n");
  EXPECT_FALSE(result.ok());  // zero rows
}

TEST(ModelSerializationTest, RejectsEmptyInput) {
  EXPECT_FALSE(ParseModel("").ok());
  EXPECT_FALSE(ParseModel("# only comments\n").ok());
}

TEST(ModelSerializationTest, RejectsInconsistentMlp) {
  // mlp input dim disagrees with the tables' concatenated length.
  const auto result = ParseModel(
      "microrec-model v1\nmlp 99 16\ntable 0 10 4 4 t0\n");
  EXPECT_FALSE(result.ok());
}

TEST(PlanSerializationTest, RoundTripProductionPlan) {
  const RecModelSpec model = SmallProductionModel();
  const auto platform = MemoryPlatformSpec::AlveoU280();
  PlacementOptions options;
  options.max_onchip_tables = model.max_onchip_tables;
  PlacementPlan plan = HeuristicSearch(model.tables, platform, options).value();

  const std::string text = SerializePlan(plan);
  auto parsed_or = ParsePlan(text, model);
  ASSERT_TRUE(parsed_or.ok()) << parsed_or.status();
  PlacementPlan& parsed = *parsed_or;

  // Metrics recompute identically after the round trip.
  parsed.FinalizeMetrics(platform, options, model.TotalEmbeddingBytes());
  EXPECT_EQ(parsed.tables_total, plan.tables_total);
  EXPECT_EQ(parsed.tables_in_dram, plan.tables_in_dram);
  EXPECT_EQ(parsed.cartesian_products, plan.cartesian_products);
  EXPECT_NEAR(parsed.lookup_latency_ns, plan.lookup_latency_ns, 1e-9);
  EXPECT_EQ(parsed.storage_bytes, plan.storage_bytes);
}

TEST(ModelSerializationTest, SerializationIsIdempotent) {
  // serialize(parse(serialize(x))) == serialize(x) for the whole zoo.
  for (const RecModelSpec& model :
       {SmallProductionModel(), LargeProductionModel(), DlrmRmc2Model(8, 4)}) {
    const std::string once = SerializeModel(model);
    const std::string twice = SerializeModel(ParseModel(once).value());
    EXPECT_EQ(once, twice) << model.name;
  }
}

TEST(PlanSerializationTest, SerializationIsIdempotent) {
  const RecModelSpec model = SmallProductionModel();
  PlacementOptions options;
  options.max_onchip_tables = model.max_onchip_tables;
  const PlacementPlan plan =
      HeuristicSearch(model.tables, MemoryPlatformSpec::AlveoU280(), options)
          .value();
  const std::string once = SerializePlan(plan);
  const std::string twice = SerializePlan(ParsePlan(once, model).value());
  EXPECT_EQ(once, twice);
}

TEST(PlanSerializationTest, RejectsUnknownTableId) {
  const RecModelSpec model = DlrmRmc2Model(8, 4);
  const auto result = ParsePlan("microrec-plan v1\nplace 0 99\n", model);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("unknown table"), std::string::npos);
}

TEST(PlanSerializationTest, RejectsDuplicatePlacement) {
  const RecModelSpec model = DlrmRmc2Model(8, 4);
  std::string text = "microrec-plan v1\n";
  for (int i = 0; i < 8; ++i) {
    text += "place " + std::to_string(i) + " " + std::to_string(i) + "\n";
  }
  text += "place 9 0\n";  // table 0 again
  const auto result = ParsePlan(text, model);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("placed twice"), std::string::npos);
}

TEST(PlanSerializationTest, RejectsOutOfRangeBank) {
  const RecModelSpec model = DlrmRmc2Model(1, 4);
  // Bank 2^32 must not wrap to bank 0.
  const auto result =
      ParsePlan("microrec-plan v1\nplace 4294967296 0\n", model);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos)
      << result.status();
}

TEST(PlanSerializationTest, RejectsIncompleteCoverage) {
  const RecModelSpec model = DlrmRmc2Model(8, 4);
  const auto result = ParsePlan("microrec-plan v1\nplace 0 0\n", model);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("covers"), std::string::npos);
}

TEST(PlanSerializationTest, ProductMembersSerialized) {
  const RecModelSpec model = DlrmRmc2Model(8, 4);
  PlacementPlan plan;
  std::vector<TableSpec> pair = {model.tables[0], model.tables[1]};
  plan.placements.push_back(TablePlacement{CombinedTable(pair), 3});
  for (std::size_t i = 2; i < 8; ++i) {
    plan.placements.push_back(
        TablePlacement{CombinedTable(model.tables[i]),
                       static_cast<std::uint32_t>(i)});
  }
  const std::string text = SerializePlan(plan);
  EXPECT_NE(text.find("place 3 0x1"), std::string::npos);
  auto parsed = ParsePlan(text, model);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->placements[0].table.member_count(), 2u);
}

}  // namespace
}  // namespace microrec
