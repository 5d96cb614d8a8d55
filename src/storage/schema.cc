#include "storage/schema.h"

#include <cassert>
#include <cstring>

#include "common/arena.h"
#include "common/coding.h"

namespace phoebe {

Schema::Schema(std::vector<ColumnDef> columns) : columns_(std::move(columns)) {
  fixed_offsets_.reserve(columns_.size());
  uint32_t off = 0;
  for (const auto& c : columns_) {
    fixed_offsets_.push_back(off);
    off += FixedWidth(c.type);
  }
  fixed_size_ = off;
}

int Schema::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

size_t Schema::max_row_size() const {
  size_t sz = 2 + null_bitmap_bytes() + fixed_size_;
  for (const auto& c : columns_) {
    if (c.type == ColumnType::kString) sz += c.max_len;
  }
  return sz;
}

std::string Schema::Serialize() const {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(columns_.size()));
  for (const auto& c : columns_) {
    PutLengthPrefixedSlice(&out, c.name);
    out.push_back(static_cast<char>(c.type));
    PutVarint32(&out, c.max_len);
    out.push_back(c.nullable ? 1 : 0);
  }
  return out;
}

Result<Schema> Schema::Deserialize(Slice input) {
  uint32_t n = 0;
  if (!GetVarint32(&input, &n)) {
    return Result<Schema>(Status::Corruption("schema: count"));
  }
  std::vector<ColumnDef> cols;
  cols.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ColumnDef c;
    Slice name;
    if (!GetLengthPrefixedSlice(&input, &name) || input.size() < 1) {
      return Result<Schema>(Status::Corruption("schema: column"));
    }
    c.name = name.ToString();
    c.type = static_cast<ColumnType>(input[0]);
    input.remove_prefix(1);
    if (!GetVarint32(&input, &c.max_len) || input.size() < 1) {
      return Result<Schema>(Status::Corruption("schema: column tail"));
    }
    c.nullable = input[0] != 0;
    input.remove_prefix(1);
    cols.push_back(std::move(c));
  }
  return Result<Schema>(Schema(std::move(cols)));
}

// --- RowView -----------------------------------------------------------------

uint16_t RowView::size() const {
  uint16_t sz;
  memcpy(&sz, data_, 2);
  return sz;
}

bool RowView::IsNull(size_t col) const {
  const uint8_t* bitmap = reinterpret_cast<const uint8_t*>(data_ + 2);
  return (bitmap[col / 8] >> (col % 8)) & 1;
}

const char* RowView::FixedSlot(size_t col) const {
  return data_ + 2 + schema_->null_bitmap_bytes() + schema_->fixed_offset(col);
}

int32_t RowView::GetInt32(size_t col) const {
  int32_t v;
  memcpy(&v, FixedSlot(col), 4);
  return v;
}

int64_t RowView::GetInt64(size_t col) const {
  int64_t v;
  memcpy(&v, FixedSlot(col), 8);
  return v;
}

double RowView::GetDouble(size_t col) const {
  double v;
  memcpy(&v, FixedSlot(col), 8);
  return v;
}

Slice RowView::GetString(size_t col) const {
  const char* slot = FixedSlot(col);
  uint16_t off, len;
  memcpy(&off, slot, 2);
  memcpy(&len, slot + 2, 2);
  return Slice(data_ + off, len);
}

Value RowView::GetValue(size_t col) const {
  const ColumnDef& def = schema_->column(col);
  if (IsNull(col)) return Value::Null(def.type);
  switch (def.type) {
    case ColumnType::kInt32: return Value::Int32(GetInt32(col));
    case ColumnType::kInt64: return Value::Int64(GetInt64(col));
    case ColumnType::kDouble: return Value::Double(GetDouble(col));
    case ColumnType::kString: return Value::String(GetString(col).ToString());
  }
  return Value{};
}

Value RowView::GetValueRef(size_t col) const {
  const ColumnDef& def = schema_->column(col);
  if (IsNull(col)) return Value::Null(def.type);
  if (def.type == ColumnType::kString) {
    return Value::StringRef(GetString(col));
  }
  return GetValue(col);
}

// --- RowBuilder --------------------------------------------------------------

RowBuilder::RowBuilder(const Schema* schema)
    : schema_(schema),
      values_(schema->num_columns()),
      set_(schema->num_columns(), false) {}

RowBuilder& RowBuilder::Set(size_t col, const Value& v) {
  assert(col < values_.size());
  values_[col] = v;
  set_[col] = true;
  return *this;
}

RowBuilder& RowBuilder::SetNull(size_t col) {
  values_[col] = Value::Null(schema_->column(col).type);
  set_[col] = true;
  return *this;
}

Status RowBuilder::Validate() const {
  for (size_t i = 0; i < schema_->num_columns(); ++i) {
    const ColumnDef& def = schema_->column(i);
    if (!set_[i] && !def.nullable) {
      return Status::InvalidArgument("column not set: " + def.name);
    }
    if (def.type == ColumnType::kString && !IsNull(i) &&
        String(i).size() > def.max_len) {
      return Status::InvalidArgument("string too long for column " +
                                     def.name);
    }
  }
  return Status::OK();
}

Result<std::string> RowBuilder::Encode() const {
  PHOEBE_RETURN_IF_ERROR(Validate());
  std::string out(schema_->max_row_size(), '\0');
  size_t len = WriteRow(*schema_, *this, out.data());
  if (len == 0) return Status::InvalidArgument("row too large");
  out.resize(len);
  return out;
}

Result<Slice> RowBuilder::EncodeTo(Arena* arena) const {
  PHOEBE_RETURN_IF_ERROR(Validate());
  return WriteRowTo(*schema_, *this, arena);
}

// --- Row patching ------------------------------------------------------------

namespace {

/// One column's replacement value when patching an encoded row. Strings are
/// borrowed (the source — a delta payload or an owned Value — must stay
/// alive while the row is written).
struct ColOverride {
  bool set = false;
  bool null = false;
  int64_t i64 = 0;
  double f64 = 0;
  Slice str;
};

/// WriteRow source: the old row's bytes plus per-column overrides.
struct PatchedRow {
  RowView old_row;
  const ColOverride* ov;

  bool IsNull(size_t i) const {
    return ov[i].set ? ov[i].null : old_row.IsNull(i);
  }
  int32_t Int32(size_t i) const {
    return ov[i].set ? static_cast<int32_t>(ov[i].i64) : old_row.GetInt32(i);
  }
  int64_t Int64(size_t i) const {
    return ov[i].set ? ov[i].i64 : old_row.GetInt64(i);
  }
  double Double(size_t i) const {
    return ov[i].set ? ov[i].f64 : old_row.GetDouble(i);
  }
  Slice String(size_t i) const {
    return ov[i].set ? ov[i].str : old_row.GetString(i);
  }
};

ColOverride* NewOverrideArray(const Schema& schema, Arena* arena) {
  const size_t ncols = schema.num_columns();
  ColOverride* ov = reinterpret_cast<ColOverride*>(
      arena->Allocate(ncols * sizeof(ColOverride)));
  for (size_t i = 0; i < ncols; ++i) ov[i] = ColOverride{};
  return ov;
}

}  // namespace

Result<Slice> PatchRowTo(const Schema& schema, RowView old_row,
                         const std::pair<uint32_t, Value>* sets, size_t nsets,
                         Arena* arena) {
  ColOverride* ov = NewOverrideArray(schema, arena);
  for (size_t k = 0; k < nsets; ++k) {
    uint32_t col = sets[k].first;
    if (col >= schema.num_columns()) {
      return Status::InvalidArgument("patch: bad column");
    }
    const Value& v = sets[k].second;
    ColOverride& o = ov[col];
    o.set = true;
    o.null = v.is_null;
    if (v.is_null) continue;
    switch (schema.column(col).type) {
      case ColumnType::kInt32:
      case ColumnType::kInt64:
        o.i64 = v.i64;
        break;
      case ColumnType::kDouble:
        o.f64 = v.f64;
        break;
      case ColumnType::kString:
        o.str = v.str_ref();
        break;
    }
  }
  return WriteRowTo(schema, PatchedRow{old_row, ov}, arena);
}

// --- DeltaCodec --------------------------------------------------------------

namespace {

bool ColumnEquals(const Schema& schema, RowView a, RowView b, size_t col) {
  const bool an = a.IsNull(col);
  const bool bn = b.IsNull(col);
  if (an != bn) return false;
  if (an) return true;
  switch (schema.column(col).type) {
    case ColumnType::kInt32: return a.GetInt32(col) == b.GetInt32(col);
    case ColumnType::kInt64: return a.GetInt64(col) == b.GetInt64(col);
    case ColumnType::kDouble: return a.GetDouble(col) == b.GetDouble(col);
    case ColumnType::kString: return a.GetString(col) == b.GetString(col);
  }
  return true;
}

/// The one reader of the delta format. Calls `fn(col, is_null, payload)` per
/// entry in order, where `payload` is the fixed-width value bytes or the
/// string bytes (empty for null); `fn` returns false to stop early.
template <typename Fn>
Status WalkDelta(const Schema& schema, Slice delta, Fn&& fn) {
  uint32_t count = 0;
  if (!GetVarint32(&delta, &count)) return Status::Corruption("delta: count");
  for (uint32_t k = 0; k < count; ++k) {
    uint32_t col = 0;
    if (!GetVarint32(&delta, &col) || delta.size() < 1 ||
        col >= schema.num_columns()) {
      return Status::Corruption("delta: column");
    }
    const bool is_null = delta[0] != 0;
    delta.remove_prefix(1);
    Slice payload;
    const ColumnType type = schema.column(col).type;
    if (!is_null && type == ColumnType::kString) {
      if (!GetLengthPrefixedSlice(&delta, &payload)) {
        return Status::Corruption("delta: str");
      }
    } else if (!is_null) {
      const size_t width = Schema::FixedWidth(type);
      if (delta.size() < width) return Status::Corruption("delta: value");
      payload = Slice(delta.data(), width);
      delta.remove_prefix(width);
    }
    if (!fn(col, is_null, payload)) break;
  }
  return Status::OK();
}

}  // namespace

Slice DeltaCodec::MakeDeltaTo(const Schema& schema, RowView row,
                              const uint32_t* columns, size_t ncols,
                              Arena* arena) {
  // Worst-case bound with actual string lengths, trimmed after encoding.
  size_t cap = 5;
  for (size_t k = 0; k < ncols; ++k) {
    cap += 5 + 1;
    uint32_t col = columns[k];
    if (row.IsNull(col)) continue;
    switch (schema.column(col).type) {
      case ColumnType::kInt32: cap += 4; break;
      case ColumnType::kInt64:
      case ColumnType::kDouble: cap += 8; break;
      case ColumnType::kString: cap += 5 + row.GetString(col).size(); break;
    }
  }
  char* buf = arena->Allocate(cap);
  char* p = EncodeVarint32(buf, static_cast<uint32_t>(ncols));
  for (size_t k = 0; k < ncols; ++k) {
    uint32_t col = columns[k];
    p = EncodeVarint32(p, col);
    const bool is_null = row.IsNull(col);
    *p++ = is_null ? 1 : 0;
    if (is_null) continue;
    switch (schema.column(col).type) {
      case ColumnType::kInt32: {
        int32_t v = row.GetInt32(col);
        memcpy(p, &v, 4);
        p += 4;
        break;
      }
      case ColumnType::kInt64: {
        int64_t v = row.GetInt64(col);
        memcpy(p, &v, 8);
        p += 8;
        break;
      }
      case ColumnType::kDouble: {
        double v = row.GetDouble(col);
        memcpy(p, &v, 8);
        p += 8;
        break;
      }
      case ColumnType::kString: {
        Slice s = row.GetString(col);
        p = EncodeVarint32(p, static_cast<uint32_t>(s.size()));
        memcpy(p, s.data(), s.size());
        p += s.size();
        break;
      }
    }
  }
  size_t len = static_cast<size_t>(p - buf);
  arena->ShrinkLast(buf, cap, len);
  return Slice(buf, len);
}

Slice DeltaCodec::ComputeBeforeDeltaTo(const Schema& schema, RowView old_row,
                                       RowView new_row, Arena* arena) {
  const size_t ncols = schema.num_columns();
  uint32_t* changed =
      reinterpret_cast<uint32_t*>(arena->Allocate(ncols * sizeof(uint32_t)));
  size_t n = 0;
  for (size_t i = 0; i < ncols; ++i) {
    if (!ColumnEquals(schema, old_row, new_row, i)) {
      changed[n++] = static_cast<uint32_t>(i);
    }
  }
  return MakeDeltaTo(schema, old_row, changed, n, arena);
}

Result<Slice> DeltaCodec::ApplyDeltaTo(const Schema& schema, Slice row,
                                       Slice delta, Arena* arena) {
  ColOverride* ov = NewOverrideArray(schema, arena);
  PHOEBE_RETURN_IF_ERROR(WalkDelta(
      schema, delta, [&](uint32_t col, bool is_null, Slice payload) {
        ColOverride& o = ov[col];
        o.set = true;
        o.null = is_null;
        if (is_null) return true;
        switch (schema.column(col).type) {
          case ColumnType::kInt32: {
            int32_t v;
            memcpy(&v, payload.data(), 4);
            o.i64 = v;
            break;
          }
          case ColumnType::kInt64:
            memcpy(&o.i64, payload.data(), 8);
            break;
          case ColumnType::kDouble:
            memcpy(&o.f64, payload.data(), 8);
            break;
          case ColumnType::kString:
            o.str = payload;
            break;
        }
        return true;
      }));
  return WriteRowTo(schema, PatchedRow{RowView(&schema, row.data()), ov},
                    arena);
}

Result<bool> DeltaCodec::TouchesAny(const Schema& schema, Slice delta,
                                    const std::vector<uint32_t>& columns) {
  bool touched = false;
  PHOEBE_RETURN_IF_ERROR(
      WalkDelta(schema, delta, [&](uint32_t col, bool, Slice) {
        for (uint32_t c : columns) touched |= c == col;
        return !touched;
      }));
  return touched;
}

}  // namespace phoebe
