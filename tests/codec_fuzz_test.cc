// Randomized oracles for the row and delta codecs. Each format has exactly
// one writer, so the checks compare against the values that went in rather
// than against a second encoder: every value reads back unchanged, deltas
// undo and redo updates byte for byte, the patch, delta and PAX paths agree
// with a fresh RowBuilder encode, and the touched-column check matches the
// update. Arena reuse across many Reset cycles must never leak stale bytes
// into fresh encodings (ASan poisoning turns stale reads into faults).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/random.h"
#include "storage/schema.h"
#include "storage/table_leaf.h"

namespace phoebe {
namespace {

Schema RandomSchema(Random* rng) {
  size_t ncols = 1 + rng->Uniform(12);
  std::vector<ColumnDef> cols;
  cols.reserve(ncols);
  bool has_non_nullable = false;
  for (size_t i = 0; i < ncols; ++i) {
    ColumnDef c;
    c.name = "c" + std::to_string(i);
    c.type = static_cast<ColumnType>(rng->Uniform(4));
    if (c.type == ColumnType::kString) {
      c.max_len = static_cast<uint32_t>(1 + rng->Uniform(64));
    }
    c.nullable = rng->OneIn(3);
    has_non_nullable |= !c.nullable;
    cols.push_back(std::move(c));
  }
  // Ensure at least one non-nullable column so Encode has a required slot.
  if (!has_non_nullable) cols[0].nullable = false;
  return Schema(std::move(cols));
}

Value RandomValue(const ColumnDef& col, Random* rng) {
  if (col.nullable && rng->OneIn(4)) return Value::Null(col.type);
  switch (col.type) {
    case ColumnType::kInt32:
      return Value::Int32(static_cast<int32_t>(rng->Next()));
    case ColumnType::kInt64:
      return Value::Int64(static_cast<int64_t>(rng->Next()));
    case ColumnType::kDouble:
      return Value::Double(rng->NextDouble() * 1e6 - 5e5);
    case ColumnType::kString: {
      size_t len = rng->Uniform(col.max_len + 1);
      std::string s;
      s.reserve(len);
      for (size_t i = 0; i < len; ++i) {
        // Include embedded NULs and high bytes: the codec is length-prefixed
        // and must not care.
        s.push_back(static_cast<char>(rng->Uniform(256)));
      }
      return Value::String(std::move(s));
    }
  }
  return Value::Null(col.type);
}

std::string BuildRow(const Schema& s, const std::vector<Value>& vals) {
  RowBuilder b(&s);
  for (size_t i = 0; i < vals.size(); ++i) b.Set(i, vals[i]);
  auto r = b.Encode();
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.value();
}

/// Every column of `row` reads back as the value that was set.
void ExpectRowHolds(const Schema& s, RowView row,
                    const std::vector<Value>& vals) {
  for (size_t i = 0; i < vals.size(); ++i) {
    SCOPED_TRACE("column " + std::to_string(i));
    const Value& v = vals[i];
    ASSERT_EQ(row.IsNull(i), v.is_null);
    if (v.is_null) continue;
    switch (s.column(i).type) {
      case ColumnType::kInt32:
        EXPECT_EQ(row.GetInt32(i), static_cast<int32_t>(v.i64));
        break;
      case ColumnType::kInt64:
        EXPECT_EQ(row.GetInt64(i), v.i64);
        break;
      case ColumnType::kDouble:
        EXPECT_EQ(row.GetDouble(i), v.f64);
        break;
      case ColumnType::kString:
        EXPECT_EQ(row.GetString(i), v.str_ref());
        break;
    }
  }
}

/// One fuzz iteration: random schema + row, a random update, and every
/// codec path checked against the values. `arena` is shared across
/// iterations and reset by the caller to exercise block recycling.
void FuzzOnce(Random* rng, Arena* arena) {
  Schema s = RandomSchema(rng);
  std::vector<Value> vals;
  for (size_t i = 0; i < s.num_columns(); ++i) {
    vals.push_back(RandomValue(s.column(i), rng));
  }

  // --- Values read back, for both encode entry points. Borrowed strings
  // (SetStringRef) must encode exactly like owned ones.
  RowBuilder b(&s);
  for (size_t i = 0; i < vals.size(); ++i) {
    const Value& v = vals[i];
    if (v.type == ColumnType::kString && !v.is_null && rng->OneIn(2)) {
      b.SetStringRef(i, Slice(v.str));
    } else {
      b.Set(i, v);
    }
  }
  auto encoded = b.Encode();
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  std::string old_row = encoded.value();
  RowView old_view(&s, old_row.data());
  ASSERT_EQ(old_view.size(), old_row.size());
  ExpectRowHolds(s, old_view, vals);
  auto to_arena = b.EncodeTo(arena);
  ASSERT_TRUE(to_arena.ok());
  EXPECT_EQ(Slice(old_row), to_arena.value());

  // --- A PAX round trip rebuilds the same bytes from the minipages.
  TableLeafLayout layout = TableLeafLayout::Compute(s);
  std::vector<char> page(kPageSize);
  TableLeaf::Init(page.data(), s, layout, /*first_row_id=*/1);
  TableLeaf leaf(page.data(), &s, &layout);
  uint16_t slot = static_cast<uint16_t>(rng->Uniform(layout.capacity()));
  ASSERT_TRUE(leaf.InsertRow(slot, old_view).ok());
  auto from_pax = leaf.ReadRowTo(slot, arena);
  ASSERT_TRUE(from_pax.ok()) << from_pax.status().ToString();
  EXPECT_EQ(Slice(old_row), from_pax.value());

  // --- Mutate a random non-empty column subset.
  std::vector<uint32_t> touched;
  std::vector<std::pair<uint32_t, Value>> sets;
  std::vector<Value> new_vals = vals;
  for (size_t i = 0; i < s.num_columns(); ++i) {
    if (!rng->OneIn(2)) continue;
    Value nv = RandomValue(s.column(i), rng);
    touched.push_back(static_cast<uint32_t>(i));
    sets.emplace_back(static_cast<uint32_t>(i), nv);
    new_vals[i] = nv;
  }
  if (touched.empty()) {
    uint32_t i = static_cast<uint32_t>(rng->Uniform(s.num_columns()));
    Value nv = RandomValue(s.column(i), rng);
    touched.push_back(i);
    sets.emplace_back(i, nv);
    new_vals[i] = nv;
  }

  // --- PatchRowTo equals a fresh RowBuilder encode of the final values.
  std::string new_row = BuildRow(s, new_vals);
  RowView new_view(&s, new_row.data());
  ExpectRowHolds(s, new_view, new_vals);
  auto patched = PatchRowTo(s, old_view, sets.data(), sets.size(), arena);
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();
  EXPECT_EQ(Slice(new_row), patched.value());

  // --- The before-delta undoes the update byte for byte.
  Slice before = DeltaCodec::ComputeBeforeDeltaTo(s, old_view, new_view,
                                                  arena);
  auto undone = DeltaCodec::ApplyDeltaTo(s, new_row, before, arena);
  ASSERT_TRUE(undone.ok()) << undone.status().ToString();
  EXPECT_EQ(Slice(old_row), undone.value());

  // --- The after-delta (WAL update payload) redoes it.
  Slice after = DeltaCodec::MakeDeltaTo(s, new_view, touched.data(),
                                        touched.size(), arena);
  auto redone = DeltaCodec::ApplyDeltaTo(s, old_row, after, arena);
  ASSERT_TRUE(redone.ok()) << redone.status().ToString();
  EXPECT_EQ(Slice(new_row), redone.value());

  // --- The touched-column check agrees with the update's column set.
  for (uint32_t col = 0; col < s.num_columns(); ++col) {
    auto hit = DeltaCodec::TouchesAny(s, after, {col});
    ASSERT_TRUE(hit.ok());
    EXPECT_EQ(hit.value(), std::count(touched.begin(), touched.end(), col) > 0)
        << "column " << col;
  }
}

TEST(CodecFuzzTest, RandomRowsRoundTripThroughEveryCodecPath) {
  Random rng(20260808);
  Arena arena;
  for (int iter = 0; iter < 400; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    FuzzOnce(&rng, &arena);
    // The per-transaction pattern: one Reset per iteration, blocks recycled.
    arena.Reset();
  }
  // Warmed arena: capacity stuck around, nothing grew without bound.
  EXPECT_GT(arena.bytes_capacity(), 0u);
  EXPECT_EQ(arena.bytes_used(), 0u);
}

/// Arena-reuse stress: many Reset cycles with allocations of adversarial
/// sizes (tiny, block-straddling, oversized). Contents written before a
/// Reset must never appear in slices returned after it, and every returned
/// slice must be fully writable/readable (ASan poisoning catches both
/// use-after-reset and out-of-bounds in the block recycler).
TEST(CodecFuzzTest, ArenaReuseStress) {
  Random rng(7);
  Arena arena(/*block_bytes=*/512);  // small blocks force frequent advances
  for (int cycle = 0; cycle < 2000; ++cycle) {
    std::vector<Slice> live;
    size_t expect_used = 0;
    int nallocs = 1 + static_cast<int>(rng.Uniform(16));
    for (int i = 0; i < nallocs; ++i) {
      size_t n;
      switch (rng.Uniform(3)) {
        case 0: n = rng.Uniform(16); break;            // tiny
        case 1: n = 400 + rng.Uniform(200); break;     // straddles blocks
        default: n = 600 + rng.Uniform(1000); break;   // oversized block
      }
      char fill = static_cast<char>('a' + (cycle + i) % 26);
      char* p = arena.Allocate(n);
      memset(p, fill, n);
      live.emplace_back(p, n);
      expect_used += (n + 7) & ~size_t{7};
      // Copy() must round-trip bytes through a fresh arena region.
      if (rng.OneIn(4) && n > 0) {
        Slice c = arena.Copy(live.back());
        ASSERT_NE(c.data(), live.back().data());
        ASSERT_EQ(c, live.back());
        live.push_back(c);
        expect_used += (n + 7) & ~size_t{7};
      }
    }
    ASSERT_EQ(arena.bytes_used(), expect_used);
    // All slices from this cycle still hold their fill bytes (no overlap
    // between allocations, no clobbering by later block appends).
    for (size_t i = 0; i < live.size(); ++i) {
      const Slice& s = live[i];
      for (size_t j = 0; j < s.size(); ++j) {
        ASSERT_EQ(s.data()[j], s.data()[0]) << "cycle " << cycle;
      }
    }
    arena.Reset();
  }
}

/// ShrinkLast gives back the tail of the most recent allocation and is a
/// no-op after an interleaving allocation.
TEST(CodecFuzzTest, ArenaShrinkLast) {
  Arena arena;
  char* a = arena.Allocate(128);
  size_t used_after_a = arena.bytes_used();
  arena.ShrinkLast(a, 128, 40);
  EXPECT_EQ(arena.bytes_used(), used_after_a - 128 + 40);
  // Next allocation reuses the reclaimed tail.
  char* b = arena.Allocate(8);
  EXPECT_EQ(b, a + 40);
  // Not the latest allocation anymore: must be a no-op.
  size_t used = arena.bytes_used();
  arena.ShrinkLast(a, 128, 8);
  EXPECT_EQ(arena.bytes_used(), used);
}

}  // namespace
}  // namespace phoebe
