#include "storage/schema.h"

#include <gtest/gtest.h>

#include "common/arena.h"
#include "common/random.h"
#include "core/table.h"
#include "storage/table_leaf.h"
#include "tests/test_util.h"

namespace phoebe {
namespace {

Schema TestSchema() {
  return Schema({
      {"a", ColumnType::kInt32, 0, false},
      {"b", ColumnType::kInt64, 0, false},
      {"c", ColumnType::kDouble, 0, true},
      {"d", ColumnType::kString, 40, false},
      {"e", ColumnType::kString, 10, true},
  });
}

TEST(SchemaTest, LayoutAndLookup) {
  Schema s = TestSchema();
  EXPECT_EQ(s.num_columns(), 5u);
  EXPECT_EQ(s.ColumnIndex("c"), 2);
  EXPECT_EQ(s.ColumnIndex("zzz"), -1);
  EXPECT_EQ(Schema::FixedWidth(ColumnType::kInt32), 4u);
  EXPECT_EQ(Schema::FixedWidth(ColumnType::kInt64), 8u);
  EXPECT_EQ(Schema::FixedWidth(ColumnType::kString), 4u);  // offset+len slot
  EXPECT_GT(s.max_row_size(), 40u);
}

TEST(SchemaTest, SerializeRoundTrip) {
  Schema s = TestSchema();
  std::string bytes = s.Serialize();
  Result<Schema> back = Schema::Deserialize(bytes);
  ASSERT_OK_R(back);
  EXPECT_EQ(back.value().num_columns(), 5u);
  EXPECT_EQ(back.value().column(3).name, "d");
  EXPECT_EQ(back.value().column(3).max_len, 40u);
  EXPECT_TRUE(back.value().column(4).nullable);
}

TEST(RowCodecTest, RoundTripAllTypes) {
  Schema s = TestSchema();
  RowBuilder b(&s);
  b.SetInt32(0, -42).SetInt64(1, 1ll << 40).SetDouble(2, 3.25)
      .SetString(3, "hello world").SetNull(4);
  Result<std::string> row = b.Encode();
  ASSERT_OK_R(row);
  RowView v(&s, row.value().data());
  EXPECT_EQ(v.GetInt32(0), -42);
  EXPECT_EQ(v.GetInt64(1), 1ll << 40);
  EXPECT_DOUBLE_EQ(v.GetDouble(2), 3.25);
  EXPECT_EQ(v.GetString(3), Slice("hello world"));
  EXPECT_TRUE(v.IsNull(4));
  EXPECT_FALSE(v.IsNull(0));
  EXPECT_EQ(v.size(), row.value().size());
}

TEST(RowCodecTest, MissingRequiredColumnFails) {
  Schema s = TestSchema();
  RowBuilder b(&s);
  b.SetInt32(0, 1).SetInt64(1, 2);  // "d" (required) missing
  EXPECT_TRUE(b.Encode().status().IsInvalidArgument());
}

TEST(RowCodecTest, NullableUnsetBecomesNull) {
  Schema s = TestSchema();
  RowBuilder b(&s);
  b.SetInt32(0, 1).SetInt64(1, 2).SetString(3, "x");
  Result<std::string> row = b.Encode();
  ASSERT_OK_R(row);
  RowView v(&s, row.value().data());
  EXPECT_TRUE(v.IsNull(2));
  EXPECT_TRUE(v.IsNull(4));
}

TEST(RowCodecTest, OversizedStringRejected) {
  Schema s = TestSchema();
  RowBuilder b(&s);
  b.SetInt32(0, 1).SetInt64(1, 2).SetString(3, std::string(41, 'x'));
  EXPECT_TRUE(b.Encode().status().IsInvalidArgument());
}

TEST(RowCodecTest, GetValueMirrorsGetters) {
  Schema s = TestSchema();
  RowBuilder b(&s);
  b.SetInt32(0, 5).SetInt64(1, 6).SetDouble(2, 7.5).SetString(3, "s")
      .SetString(4, "t");
  auto row = b.Encode();
  ASSERT_OK_R(row);
  RowView v(&s, row.value().data());
  EXPECT_EQ(v.GetValue(0).i64, 5);
  EXPECT_EQ(v.GetValue(3).str, "s");
  EXPECT_FALSE(v.GetValue(4).is_null);
}

// --- DeltaCodec ----------------------------------------------------------------

TEST(DeltaCodecTest, BeforeDeltaRoundTrip) {
  Schema s = TestSchema();
  RowBuilder b1(&s);
  b1.SetInt32(0, 1).SetInt64(1, 100).SetDouble(2, 1.0).SetString(3, "old")
      .SetString(4, "keep");
  std::string old_row = b1.Encode().value();

  RowBuilder b2(&s);
  b2.SetInt32(0, 1).SetInt64(1, 200).SetDouble(2, 2.0).SetString(3, "new")
      .SetString(4, "keep");
  std::string new_row = b2.Encode().value();

  Arena arena;
  RowView old_view(&s, old_row.data());
  RowView new_view(&s, new_row.data());
  Slice delta = DeltaCodec::ComputeBeforeDeltaTo(s, old_view, new_view, &arena);
  EXPECT_FALSE(delta.empty());

  // Applying the before-delta onto the new row reconstructs the old row.
  Result<Slice> back = DeltaCodec::ApplyDeltaTo(s, new_row, delta, &arena);
  ASSERT_OK_R(back);
  EXPECT_EQ(back.value(), Slice(old_row));

  // Columns 1, 2 and 3 changed; 0 and 4 did not.
  for (uint32_t col = 0; col < 5; ++col) {
    Result<bool> touched = DeltaCodec::TouchesAny(s, delta, {col});
    ASSERT_OK_R(touched);
    EXPECT_EQ(touched.value(), col >= 1 && col <= 3) << col;
  }
  EXPECT_TRUE(DeltaCodec::TouchesAny(s, delta, {0, 4, 2}).value());
  EXPECT_FALSE(DeltaCodec::TouchesAny(s, delta, {}).value());
}

TEST(DeltaCodecTest, NoChangeProducesEmptyColumnSet) {
  Schema s = TestSchema();
  RowBuilder b(&s);
  b.SetInt32(0, 1).SetInt64(1, 2).SetString(3, "same");
  std::string row = b.Encode().value();
  RowView v(&s, row.data());
  Arena arena;
  Slice delta = DeltaCodec::ComputeBeforeDeltaTo(s, v, v, &arena);
  Result<bool> touched = DeltaCodec::TouchesAny(s, delta, {0, 1, 2, 3, 4});
  ASSERT_OK_R(touched);
  EXPECT_FALSE(touched.value());
  Result<Slice> same = DeltaCodec::ApplyDeltaTo(s, row, delta, &arena);
  ASSERT_OK_R(same);
  EXPECT_EQ(same.value(), Slice(row));
}

TEST(DeltaCodecTest, NullTransitions) {
  Schema s = TestSchema();
  RowBuilder b1(&s);
  b1.SetInt32(0, 1).SetInt64(1, 2).SetDouble(2, 5.0).SetString(3, "x");
  std::string old_row = b1.Encode().value();  // c=5.0, e=null
  RowBuilder b2(&s);
  b2.SetInt32(0, 1).SetInt64(1, 2).SetNull(2).SetString(3, "x")
      .SetString(4, "now");
  std::string new_row = b2.Encode().value();  // c=null, e="now"

  Arena arena;
  Slice delta = DeltaCodec::ComputeBeforeDeltaTo(
      s, RowView(&s, old_row.data()), RowView(&s, new_row.data()), &arena);
  Result<Slice> back = DeltaCodec::ApplyDeltaTo(s, new_row, delta, &arena);
  ASSERT_OK_R(back);
  EXPECT_EQ(back.value(), Slice(old_row));
}

TEST(DeltaCodecTest, CorruptDeltaRejected) {
  Schema s = TestSchema();
  RowBuilder b(&s);
  b.SetInt32(0, 1).SetInt64(1, 2).SetString(3, "x");
  std::string row = b.Encode().value();
  Arena arena;
  EXPECT_FALSE(DeltaCodec::ApplyDeltaTo(s, row, "\xff\xff\xff", &arena).ok());
  EXPECT_FALSE(DeltaCodec::TouchesAny(s, "\xff\xff\xff", {0}).ok());
  // One entry for column 1 (int64) whose payload is cut short.
  const std::string truncated("\x01\x01\x00\x2a", 4);
  EXPECT_FALSE(DeltaCodec::ApplyDeltaTo(s, row, truncated, &arena).ok());
  EXPECT_FALSE(DeltaCodec::TouchesAny(s, truncated, {3}).ok());
}

// Property sweep: random rows, random column subsets; before-delta applied
// to the new row always reconstructs the old row exactly.
class DeltaPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DeltaPropertyTest, RandomRoundTrips) {
  Schema s = TestSchema();
  Random rng(GetParam() * 2654435761u + 1);
  Arena arena;
  for (int iter = 0; iter < 200; ++iter) {
    auto random_row = [&]() {
      RowBuilder b(&s);
      b.SetInt32(0, static_cast<int32_t>(rng.Next()));
      b.SetInt64(1, static_cast<int64_t>(rng.Next()));
      if (rng.OneIn(3)) {
        b.SetNull(2);
      } else {
        b.SetDouble(2, static_cast<double>(rng.Next() % 1000) / 7.0);
      }
      b.SetString(3, std::string(rng.Uniform(40), 'a' + rng.Uniform(26)));
      if (rng.OneIn(3)) {
        b.SetNull(4);
      } else {
        b.SetString(4, std::string(rng.Uniform(10), 'z'));
      }
      return b.Encode().value();
    };
    std::string old_row = random_row();
    std::string new_row = random_row();
    Slice delta = DeltaCodec::ComputeBeforeDeltaTo(
        s, RowView(&s, old_row.data()), RowView(&s, new_row.data()), &arena);
    Result<Slice> back = DeltaCodec::ApplyDeltaTo(s, new_row, delta, &arena);
    ASSERT_OK_R(back);
    ASSERT_EQ(back.value(), Slice(old_row));
    arena.Reset();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaPropertyTest, ::testing::Range(0, 8));

// --- Golden bytes -----------------------------------------------------------
//
// The row, delta and index-key formats are read back by recovery (WAL
// payloads), by MVCC (UNDO before-images) and from checkpointed pages, so
// their bytes must never drift. The literals are the bytes existing builds
// write; a change to any of them makes older WAL, UNDO and checkpoint files
// unreadable.

Schema GoldenSchema() {
  return Schema({
      {"id", ColumnType::kInt32, 0, false},
      {"qty", ColumnType::kInt64, 0, true},
      {"price", ColumnType::kDouble, 0, true},
      {"code", ColumnType::kString, 8, false},
      {"note", ColumnType::kString, 10, true},
      {"tag", ColumnType::kString, 6, true},
  });
}

std::string Hex(Slice s) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    uint8_t b = static_cast<uint8_t>(s[i]);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 15]);
  }
  return out;
}

// id=-7, qty=null, price=1.5, code at its max length, note empty, tag null.
std::string GoldenRow(const Schema& s) {
  RowBuilder b(&s);
  b.SetInt32(0, -7).SetNull(1).SetDouble(2, 1.5).SetString(3, "ABCDEFGH")
      .SetString(4, "").SetNull(5);
  return b.Encode().value();
}

// Index key over `cols` of `s` with the given values.
std::string GoldenKey(const Schema& s, std::vector<uint32_t> cols,
                      std::vector<Value> values) {
  Arena arena;
  return Table::EncodeKey(s, cols, values, &arena).value().ToString();
}

// size | null bitmap (qty, tag) | id | qty | price | code off,len |
// note off,len | tag | string heap
const char kGoldenRowHex[] =
    "2b00" "22" "f9ffffff" "0000000000000000" "000000000000f83f"
    "23000800" "2b000000" "00000000" "4142434445464748";

TEST(GoldenBytesTest, Row) {
  Schema s = GoldenSchema();
  EXPECT_EQ(Hex(GoldenRow(s)), kGoldenRowHex);
}

TEST(GoldenBytesTest, BeforeAndAfterDelta) {
  Schema s = GoldenSchema();
  std::string old_row = GoldenRow(s);
  // Update qty null -> 42, price 1.5 -> null, code -> "xy", tag null -> "t".
  RowBuilder b(&s);
  b.SetInt32(0, -7).SetInt64(1, 42).SetNull(2).SetString(3, "xy")
      .SetString(4, "").SetString(5, "t");
  std::string new_row = b.Encode().value();
  RowView old_view(&s, old_row.data());
  RowView new_view(&s, new_row.data());
  const uint32_t cols[] = {1, 2, 3, 5};
  Arena arena;
  Slice before = DeltaCodec::MakeDeltaTo(s, old_view, cols, 4, &arena);
  Slice after = DeltaCodec::MakeDeltaTo(s, new_view, cols, 4, &arena);
  EXPECT_EQ(Hex(new_row),
            "2600" "04" "f9ffffff" "2a00000000000000" "0000000000000000"
            "23000200" "25000000" "25000100" "7879" "74");
  // count | col 1 null | col 2 1.5 | col 3 len 8 "ABCDEFGH" | col 5 null
  EXPECT_EQ(Hex(before),
            "04" "0101" "0200" "000000000000f83f" "0300" "08" "4142434445464748"
            "0501");
  // count | col 1 42 | col 2 null | col 3 len 2 "xy" | col 5 len 1 "t"
  EXPECT_EQ(Hex(after),
            "04" "0100" "2a00000000000000" "0201" "0300" "02" "7879" "0500"
            "01" "74");
  EXPECT_EQ(Hex(DeltaCodec::ComputeBeforeDeltaTo(s, old_view, new_view,
                                                 &arena)),
            Hex(before));
}

TEST(GoldenBytesTest, IndexKeys) {
  Schema s = GoldenSchema();
  EXPECT_EQ(Hex(GoldenKey(s, {0}, {Value::Int32(-7)})),
            "7ffffffffffffff9");
  EXPECT_EQ(Hex(GoldenKey(s, {1}, {Value::Int64(1ll << 40)})),
            "8000010000000000");
  EXPECT_EQ(Hex(GoldenKey(s, {3}, {Value::String(std::string("a\0b", 3))})),
            "61006200");
  EXPECT_EQ(Hex(GoldenKey(s, {0, 3, 1},
                          {Value::Int32(3), Value::String("k"),
                           Value::Int64(-1)})),
            "8000000000000003" "6b00" "7fffffffffffffff");
}

TEST(GoldenBytesTest, PaxReadRow) {
  Schema s = GoldenSchema();
  TableLeafLayout layout = TableLeafLayout::Compute(s);
  std::vector<char> page(kPageSize);
  TableLeaf::Init(page.data(), s, layout, /*first_row_id=*/1);
  TableLeaf leaf(page.data(), &s, &layout);
  std::string row = GoldenRow(s);
  ASSERT_OK(leaf.InsertRow(3, RowView(&s, row.data())));
  Arena arena;
  Result<Slice> read = leaf.ReadRowTo(3, &arena);
  ASSERT_OK_R(read);
  EXPECT_EQ(Hex(read.value()), kGoldenRowHex);
}

}  // namespace
}  // namespace phoebe
