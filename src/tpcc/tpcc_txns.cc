#include "tpcc/tpcc_txns.h"

#include <algorithm>
#include <cstring>

#include "common/arena.h"
#include "common/clock.h"
#include "common/profiler.h"

namespace phoebe {
namespace tpcc {

namespace {

constexpr int64_t kNowDate = 1742860800000000;  // 2025-03-25 in micros

Value I32V(int32_t v) { return Value::Int32(v); }

/// Index-key probe helpers: refill `k` in place so one hoisted vector is
/// reused across every probe of a transaction (steady state performs zero
/// key-vector allocations; Value::Int32 never heap-allocates).
const std::vector<Value>& Key1(std::vector<Value>* k, int32_t a) {
  k->clear();
  k->push_back(I32V(a));
  return *k;
}

const std::vector<Value>& Key2(std::vector<Value>* k, int32_t a, int32_t b) {
  k->clear();
  k->push_back(I32V(a));
  k->push_back(I32V(b));
  return *k;
}

const std::vector<Value>& Key3(std::vector<Value>* k, int32_t a, int32_t b,
                               int32_t c) {
  k->clear();
  k->push_back(I32V(a));
  k->push_back(I32V(b));
  k->push_back(I32V(c));
  return *k;
}

const std::vector<Value>& Key3S(std::vector<Value>* k, int32_t a, int32_t b,
                                const std::string& c) {
  k->clear();
  k->push_back(I32V(a));
  k->push_back(I32V(b));
  k->push_back(Value::StringRef(Slice(c)));
  return *k;
}

/// Concatenates two borrowed strings (plus a separator) in the transaction
/// arena; the result lives until the slot's next Begin.
Slice ArenaConcat(Arena* arena, Slice a, const char* sep, size_t sep_len,
                  Slice b) {
  char* buf = arena->Allocate(a.size() + sep_len + b.size());
  if (!a.empty()) memcpy(buf, a.data(), a.size());
  memcpy(buf + a.size(), sep, sep_len);
  if (!b.empty()) memcpy(buf + a.size() + sep_len, b.data(), b.size());
  return Slice(buf, a.size() + sep_len + b.size());
}

/// Abort helper: rolls back and classifies the failure.
Status AbortWith(Workload* w, TaskEnv* env, Transaction* txn, Status st,
                 bool user_initiated = false) {
  (void)w->db->Abort(&env->ctx, txn);
  if (user_initiated) {
    w->user_aborts.fetch_add(1, std::memory_order_relaxed);
  } else {
    w->sys_aborts.fetch_add(1, std::memory_order_relaxed);
  }
  if (env->global_slot_id < w->last_abort_user.size()) {
    w->last_abort_user[env->global_slot_id] = user_initiated ? 1 : 0;
  }
  return st;
}

}  // namespace

/// Runs `expr` with yield-on-blocked; on failure aborts the transaction and
/// co_returns. Must be used inside the transaction coroutines below where
/// `st`, `w`, `env`, and `txn` are in scope.
#define TPCC_OP(expr)                                           \
  PHOEBE_CO_AWAIT(st, (expr));                                  \
  if (!st.ok()) co_return AbortWith(w, env, txn, st)

/// Like TPCC_OP but NotFound is handed back to the caller code path.
#define TPCC_OP_ALLOW_NOTFOUND(expr)                            \
  PHOEBE_CO_AWAIT(st, (expr));                                  \
  if (!st.ok() && !st.IsNotFound()) co_return AbortWith(w, env, txn, st)

// ---------------------------------------------------------------------------
// Parameter generation
// ---------------------------------------------------------------------------

NewOrderParams MakeNewOrderParams(TpccRandom* rnd, const ScaleConfig& scale,
                                  int32_t w_id) {
  NewOrderParams p;
  p.w_id = w_id;
  p.d_id =
      static_cast<int32_t>(rnd->Uniform(1, scale.districts_per_warehouse));
  p.c_id = static_cast<int32_t>(
      rnd->NURandCustomerId(scale.customers_per_district));
  p.ol_cnt = static_cast<int>(rnd->Uniform(5, 15));
  p.rollback = rnd->Uniform(1, 100) == 1;
  for (int i = 0; i < p.ol_cnt; ++i) {
    p.lines[i].i_id = static_cast<int32_t>(rnd->NURandItemId(scale.items));
    p.lines[i].quantity = static_cast<int32_t>(rnd->Uniform(1, 10));
    p.lines[i].supply_w_id = w_id;
    if (scale.warehouses > 1 && rnd->Uniform(1, 100) == 1) {
      // 1% remote warehouse.
      int32_t remote;
      do {
        remote = static_cast<int32_t>(rnd->Uniform(1, scale.warehouses));
      } while (remote == w_id);
      p.lines[i].supply_w_id = remote;
    }
  }
  if (p.rollback) p.lines[p.ol_cnt - 1].i_id = -1;  // unused item id
  return p;
}

PaymentParams MakePaymentParams(TpccRandom* rnd, const ScaleConfig& scale,
                                int32_t w_id) {
  PaymentParams p;
  p.w_id = w_id;
  p.d_id =
      static_cast<int32_t>(rnd->Uniform(1, scale.districts_per_warehouse));
  if (scale.warehouses > 1 && rnd->Uniform(1, 100) <= 15) {
    do {
      p.c_w_id = static_cast<int32_t>(rnd->Uniform(1, scale.warehouses));
    } while (p.c_w_id == w_id);
    p.c_d_id =
        static_cast<int32_t>(rnd->Uniform(1, scale.districts_per_warehouse));
  } else {
    p.c_w_id = w_id;
    p.c_d_id = p.d_id;
  }
  p.by_name = rnd->Uniform(1, 100) <= 60;
  if (p.by_name) {
    p.c_last = TpccRandom::LastName(rnd->NURandLastNameRun(
        std::min<int64_t>(999, scale.customers_per_district - 1)));
  } else {
    p.c_id = static_cast<int32_t>(
        rnd->NURandCustomerId(scale.customers_per_district));
  }
  p.amount = static_cast<double>(rnd->Uniform(100, 500000)) / 100.0;
  return p;
}

OrderStatusParams MakeOrderStatusParams(TpccRandom* rnd,
                                        const ScaleConfig& scale,
                                        int32_t w_id) {
  OrderStatusParams p;
  p.w_id = w_id;
  p.d_id =
      static_cast<int32_t>(rnd->Uniform(1, scale.districts_per_warehouse));
  p.by_name = rnd->Uniform(1, 100) <= 60;
  if (p.by_name) {
    p.c_last = TpccRandom::LastName(rnd->NURandLastNameRun(
        std::min<int64_t>(999, scale.customers_per_district - 1)));
  } else {
    p.c_id = static_cast<int32_t>(
        rnd->NURandCustomerId(scale.customers_per_district));
  }
  return p;
}

DeliveryParams MakeDeliveryParams(TpccRandom* rnd, int32_t w_id) {
  DeliveryParams p;
  p.w_id = w_id;
  p.carrier_id = static_cast<int32_t>(rnd->Uniform(1, 10));
  return p;
}

StockLevelParams MakeStockLevelParams(TpccRandom* rnd, int32_t w_id) {
  StockLevelParams p;
  p.w_id = w_id;
  p.d_id = static_cast<int32_t>(rnd->Uniform(1, 10));
  p.threshold = static_cast<int32_t>(rnd->Uniform(10, 20));
  return p;
}

// ---------------------------------------------------------------------------
// NewOrder (clause 2.4)
//
// Allocation-free hot path: every row read borrows the transaction arena
// (IndexGetRef), every built row is encoded into it (EncodeTo(Arena*)), and
// the single hoisted key vector plus the hoisted order-line RowBuilder are
// reused across all probe/insert iterations. Steady state performs a handful
// of heap allocations per transaction (coroutine frame, sets vector) instead
// of one per row/key/delta (#ALLOC in the driver summary quantifies this).
// ---------------------------------------------------------------------------

TxnTask NewOrderTxn(Workload* w, TaskEnv* env, NewOrderParams p) {
  TxnScope txn_prof;
  OpContext* ctx = &env->ctx;
  Database* db = w->db;
  Tables& t = w->tables;
  Transaction* txn = db->BeginDefault(env->global_slot_id);
  db->StatementBegin(txn);
  Status st;
  Arena* arena = db->ScratchArena(txn);
  std::vector<Value> key;  // reused by every index probe below

  // Warehouse tax.
  Slice w_row;
  TPCC_OP(t.warehouse->IndexGetRef(ctx, txn, Tables::kPk, Key1(&key, p.w_id),
                                   nullptr, &w_row));
  double w_tax = RowView(&t.warehouse->schema(), w_row.data())
                     .GetDouble(Warehouse::kTax);

  // District: read tax and atomically fetch-and-increment next_o_id.
  RowId d_rid = 0;
  TPCC_OP(t.district->IndexGetRef(ctx, txn, Tables::kPk,
                                  Key2(&key, p.w_id, p.d_id), &d_rid,
                                  nullptr));
  double d_tax = 0;
  int32_t o_id = 0;
  TPCC_OP(t.district->UpdateApply(
      ctx, txn, d_rid,
      [&d_tax, &o_id](RowView cur,
                      std::vector<std::pair<uint32_t, Value>>* sets) {
        d_tax = cur.GetDouble(District::kTax);
        o_id = cur.GetInt32(District::kNextOId);
        sets->push_back({District::kNextOId, I32V(o_id + 1)});
        return Status::OK();
      }));

  // Customer discount / last / credit.
  Slice c_row;
  TPCC_OP(t.customer->IndexGetRef(ctx, txn, Tables::kPk,
                                  Key3(&key, p.w_id, p.d_id, p.c_id), nullptr,
                                  &c_row));
  double c_discount =
      RowView(&t.customer->schema(), c_row.data())
          .GetDouble(Customer::kDiscount);

  // Insert ORDER and NEW-ORDER rows.
  bool all_local = true;
  for (int i = 0; i < p.ol_cnt; ++i) {
    if (p.lines[i].supply_w_id != p.w_id) all_local = false;
  }
  {
    RowBuilder b(&t.order->schema());
    b.SetInt32(Order::kId, o_id)
        .SetInt32(Order::kDId, p.d_id)
        .SetInt32(Order::kWId, p.w_id)
        .SetInt32(Order::kCId, p.c_id)
        .SetInt64(Order::kEntryD, kNowDate)
        .SetNull(Order::kCarrierId)
        .SetInt32(Order::kOlCnt, p.ol_cnt)
        .SetInt32(Order::kAllLocal, all_local ? 1 : 0);
    Result<Slice> row = b.EncodeTo(arena);
    if (!row.ok()) co_return AbortWith(w, env, txn, row.status());
    RowId rid = 0;
    TPCC_OP(t.order->Insert(ctx, txn, row.value(), &rid));
  }
  {
    RowBuilder b(&t.new_order->schema());
    b.SetInt32(NewOrder::kOId, o_id)
        .SetInt32(NewOrder::kDId, p.d_id)
        .SetInt32(NewOrder::kWId, p.w_id);
    Result<Slice> row = b.EncodeTo(arena);
    if (!row.ok()) co_return AbortWith(w, env, txn, row.status());
    RowId rid = 0;
    TPCC_OP(t.new_order->Insert(ctx, txn, row.value(), &rid));
  }

  // Order lines. One RowBuilder serves all lines: every column is re-set
  // each iteration, so reuse is safe and saves two vector allocations per
  // line.
  double total = 0;
  RowBuilder ol(&t.order_line->schema());
  for (int i = 0; i < p.ol_cnt; ++i) {
    const auto& line = p.lines[i];
    Slice i_row;
    PHOEBE_CO_AWAIT(st,
                    t.item->IndexGetRef(ctx, txn, Tables::kPk,
                                        Key1(&key, line.i_id), nullptr,
                                        &i_row));
    if (st.IsNotFound()) {
      // Clause 2.4.2.3: unused item -> user-initiated rollback.
      co_return AbortWith(w, env, txn, Status::Aborted("unused item"),
                          /*user_initiated=*/true);
    }
    if (!st.ok()) co_return AbortWith(w, env, txn, st);
    double i_price =
        RowView(&t.item->schema(), i_row.data()).GetDouble(Item::kPrice);

    RowId s_rid = 0;
    TPCC_OP(t.stock->IndexGetRef(ctx, txn, Tables::kPk,
                                 Key2(&key, line.supply_w_id, line.i_id),
                                 &s_rid, nullptr));
    uint32_t dist_col = Stock::kDist01 + static_cast<uint32_t>(p.d_id - 1);
    // Borrows the arena-backed stock row read under UpdateApply's latch;
    // stays valid until the slot's next Begin (DESIGN.md 4g).
    Slice dist_info;
    bool remote = line.supply_w_id != p.w_id;
    TPCC_OP(t.stock->UpdateApply(
        ctx, txn, s_rid,
        [&line, &dist_info, dist_col, remote](
            RowView cur, std::vector<std::pair<uint32_t, Value>>* sets) {
          int32_t new_qty = cur.GetInt32(Stock::kQuantity) - line.quantity;
          if (new_qty < 10) new_qty += 91;
          dist_info = cur.GetString(dist_col);
          sets->push_back({Stock::kQuantity, I32V(new_qty)});
          sets->push_back(
              {Stock::kYtd,
               Value::Double(cur.GetDouble(Stock::kYtd) + line.quantity)});
          sets->push_back(
              {Stock::kOrderCnt, I32V(cur.GetInt32(Stock::kOrderCnt) + 1)});
          if (remote) {
            sets->push_back({Stock::kRemoteCnt,
                             I32V(cur.GetInt32(Stock::kRemoteCnt) + 1)});
          }
          return Status::OK();
        }));

    double amount = line.quantity * i_price;
    total += amount;
    ol.SetInt32(OrderLine::kOId, o_id)
        .SetInt32(OrderLine::kDId, p.d_id)
        .SetInt32(OrderLine::kWId, p.w_id)
        .SetInt32(OrderLine::kNumber, i + 1)
        .SetInt32(OrderLine::kIId, line.i_id)
        .SetInt32(OrderLine::kSupplyWId, line.supply_w_id)
        .SetNull(OrderLine::kDeliveryD)
        .SetInt32(OrderLine::kQuantity, line.quantity)
        .SetDouble(OrderLine::kAmount, amount)
        .SetStringRef(OrderLine::kDistInfo, dist_info);
    Result<Slice> row = ol.EncodeTo(arena);
    if (!row.ok()) co_return AbortWith(w, env, txn, row.status());
    RowId rid = 0;
    TPCC_OP(t.order_line->Insert(ctx, txn, row.value(), &rid));
  }
  total *= (1 - c_discount) * (1 + w_tax + d_tax);
  (void)total;

  uint64_t commit_t0 = NowNanos();
  PHOEBE_CO_AWAIT(st, db->Commit(ctx, txn));
  w->commit_wait_ns.fetch_add(NowNanos() - commit_t0,
                              std::memory_order_relaxed);
  if (!st.ok()) co_return AbortWith(w, env, txn, st);
  w->new_order_commits.fetch_add(1, std::memory_order_relaxed);
  co_return Status::OK();
}

// ---------------------------------------------------------------------------
// Payment (clause 2.5)
// ---------------------------------------------------------------------------

TxnTask PaymentTxn(Workload* w, TaskEnv* env, PaymentParams p) {
  TxnScope txn_prof;
  OpContext* ctx = &env->ctx;
  Database* db = w->db;
  Tables& t = w->tables;
  Transaction* txn = db->BeginDefault(env->global_slot_id);
  db->StatementBegin(txn);
  Status st;
  Arena* arena = db->ScratchArena(txn);
  std::vector<Value> key;

  // Warehouse: atomically ytd += amount; read the name while there. The
  // name slice borrows the arena-backed row read under the update latch.
  RowId w_rid = 0;
  TPCC_OP(t.warehouse->IndexGetRef(ctx, txn, Tables::kPk, Key1(&key, p.w_id),
                                   &w_rid, nullptr));
  Slice w_name;
  TPCC_OP(t.warehouse->UpdateApply(
      ctx, txn, w_rid,
      [&w_name, &p](RowView cur,
                    std::vector<std::pair<uint32_t, Value>>* sets) {
        w_name = cur.GetString(Warehouse::kName);
        sets->push_back(
            {Warehouse::kYtd,
             Value::Double(cur.GetDouble(Warehouse::kYtd) + p.amount)});
        return Status::OK();
      }));

  // District: atomically ytd += amount.
  RowId d_rid = 0;
  TPCC_OP(t.district->IndexGetRef(ctx, txn, Tables::kPk,
                                  Key2(&key, p.w_id, p.d_id), &d_rid,
                                  nullptr));
  Slice d_name;
  TPCC_OP(t.district->UpdateApply(
      ctx, txn, d_rid,
      [&d_name, &p](RowView cur,
                    std::vector<std::pair<uint32_t, Value>>* sets) {
        d_name = cur.GetString(District::kName);
        sets->push_back(
            {District::kYtd,
             Value::Double(cur.GetDouble(District::kYtd) + p.amount)});
        return Status::OK();
      }));

  // Customer selection (60% by last name -> middle row).
  RowId c_rid = 0;
  Slice c_row;
  if (p.by_name) {
    // Row slices stay valid across callbacks (they borrow the txn arena).
    std::vector<std::pair<RowId, Slice>> matches;
    TPCC_OP(t.customer->IndexScanRef(
        ctx, txn, Tables::kCustByName,
        Key3S(&key, p.c_w_id, p.c_d_id, p.c_last), {},
        [&matches](RowId rid, Slice row) {
          matches.emplace_back(rid, row);
          return true;
        }));
    if (matches.empty()) {
      co_return AbortWith(w, env, txn, Status::NotFound("no such customer"));
    }
    size_t pick = matches.size() / 2;  // ceil(n/2) with 0-based index
    c_rid = matches[pick].first;
    c_row = matches[pick].second;
  } else {
    TPCC_OP(t.customer->IndexGetRef(
        ctx, txn, Tables::kPk, Key3(&key, p.c_w_id, p.c_d_id, p.c_id), &c_rid,
        &c_row));
  }
  int32_t c_id =
      RowView(&t.customer->schema(), c_row.data()).GetInt32(Customer::kId);
  TPCC_OP(t.customer->UpdateApply(
      ctx, txn, c_rid,
      [&p, c_id](RowView cur,
                 std::vector<std::pair<uint32_t, Value>>* sets) {
        sets->push_back(
            {Customer::kBalance,
             Value::Double(cur.GetDouble(Customer::kBalance) - p.amount)});
        sets->push_back({Customer::kYtdPayment,
                         Value::Double(cur.GetDouble(Customer::kYtdPayment) +
                                       p.amount)});
        sets->push_back({Customer::kPaymentCnt,
                         I32V(cur.GetInt32(Customer::kPaymentCnt) + 1)});
        if (cur.GetString(Customer::kCredit) == Slice("BC")) {
          // Bad credit: prepend the payment info (clause 2.5.2.2). Rare
          // (10% of customers) -> the std::string build is acceptable.
          std::string data =
              std::to_string(c_id) + " " + std::to_string(p.c_d_id) + " " +
              std::to_string(p.c_w_id) + " " + std::to_string(p.d_id) + " " +
              std::to_string(p.w_id) + " " + std::to_string(p.amount) + "|" +
              cur.GetString(Customer::kData).ToString();
          if (data.size() > 500) data.resize(500);
          sets->push_back({Customer::kData, Value::String(std::move(data))});
        }
        return Status::OK();
      }));

  // History row.
  {
    RowBuilder b(&t.history->schema());
    b.SetInt32(History::kCId, c_id)
        .SetInt32(History::kCDId, p.c_d_id)
        .SetInt32(History::kCWId, p.c_w_id)
        .SetInt32(History::kDId, p.d_id)
        .SetInt32(History::kWId, p.w_id)
        .SetInt64(History::kDate, kNowDate)
        .SetDouble(History::kAmount, p.amount)
        .SetStringRef(History::kData,
                      ArenaConcat(arena, w_name, "    ", 4, d_name));
    Result<Slice> row = b.EncodeTo(arena);
    if (!row.ok()) co_return AbortWith(w, env, txn, row.status());
    RowId rid = 0;
    TPCC_OP(t.history->Insert(ctx, txn, row.value(), &rid));
  }

  uint64_t commit_t0 = NowNanos();
  PHOEBE_CO_AWAIT(st, db->Commit(ctx, txn));
  w->commit_wait_ns.fetch_add(NowNanos() - commit_t0,
                              std::memory_order_relaxed);
  if (!st.ok()) co_return AbortWith(w, env, txn, st);
  w->payment_commits.fetch_add(1, std::memory_order_relaxed);
  co_return Status::OK();
}

// ---------------------------------------------------------------------------
// OrderStatus (clause 2.6)
// ---------------------------------------------------------------------------

TxnTask OrderStatusTxn(Workload* w, TaskEnv* env, OrderStatusParams p) {
  TxnScope txn_prof;
  OpContext* ctx = &env->ctx;
  Database* db = w->db;
  Tables& t = w->tables;
  Transaction* txn = db->BeginDefault(env->global_slot_id);
  db->StatementBegin(txn);
  Status st;
  std::vector<Value> key;

  // Rows are read projected to the columns clause 2.6.2.2 returns, which
  // leaves out the customer's 500-byte C_DATA.
  constexpr ColumnSet kCustomerCols =
      ColumnBit(Customer::kId) | ColumnBit(Customer::kFirst) |
      ColumnBit(Customer::kMiddle) | ColumnBit(Customer::kLast) |
      ColumnBit(Customer::kBalance);
  constexpr ColumnSet kOrderCols = ColumnBit(Order::kId) |
                                   ColumnBit(Order::kEntryD) |
                                   ColumnBit(Order::kCarrierId);
  constexpr ColumnSet kOrderLineCols =
      ColumnBit(OrderLine::kIId) | ColumnBit(OrderLine::kSupplyWId) |
      ColumnBit(OrderLine::kQuantity) | ColumnBit(OrderLine::kAmount) |
      ColumnBit(OrderLine::kDeliveryD);

  RowId c_rid = 0;
  Slice c_row;
  if (p.by_name) {
    std::vector<std::pair<RowId, Slice>> matches;
    TPCC_OP(t.customer->IndexScanRef(
        ctx, txn, Tables::kCustByName,
        Key3S(&key, p.w_id, p.d_id, p.c_last), {},
        [&matches](RowId rid, Slice row) {
          matches.emplace_back(rid, row);
          return true;
        },
        kCustomerCols));
    if (matches.empty()) {
      co_return AbortWith(w, env, txn, Status::NotFound("no such customer"));
    }
    size_t pick = matches.size() / 2;
    c_rid = matches[pick].first;
    c_row = matches[pick].second;
  } else {
    TPCC_OP(t.customer->IndexGetRef(ctx, txn, Tables::kPk,
                                    Key3(&key, p.w_id, p.d_id, p.c_id),
                                    &c_rid, &c_row, kCustomerCols));
  }
  (void)c_rid;
  int32_t c_id =
      RowView(&t.customer->schema(), c_row.data()).GetInt32(Customer::kId);

  // Latest order of the customer (max o_id).
  Slice last_order;
  TPCC_OP(t.order->IndexScanRef(
      ctx, txn, Tables::kOrderByCust, Key3(&key, p.w_id, p.d_id, c_id), {},
      [&last_order](RowId, Slice row) {
        last_order = row;
        return true;  // keep going: last match = max o_id
      },
      kOrderCols));
  if (last_order.empty()) {
    co_return AbortWith(w, env, txn, Status::NotFound("no orders"));
  }
  int32_t o_id =
      RowView(&t.order->schema(), last_order.data()).GetInt32(Order::kId);

  // Its order lines.
  int line_count = 0;
  TPCC_OP(t.order_line->IndexScanRef(
      ctx, txn, Tables::kPk, Key3(&key, p.w_id, p.d_id, o_id), {},
      [&line_count](RowId, Slice) {
        ++line_count;
        return true;
      },
      kOrderLineCols));
  (void)line_count;

  uint64_t commit_t0 = NowNanos();
  PHOEBE_CO_AWAIT(st, db->Commit(ctx, txn));
  w->commit_wait_ns.fetch_add(NowNanos() - commit_t0,
                              std::memory_order_relaxed);
  if (!st.ok()) co_return AbortWith(w, env, txn, st);
  w->order_status_commits.fetch_add(1, std::memory_order_relaxed);
  co_return Status::OK();
}

// ---------------------------------------------------------------------------
// Delivery (clause 2.7)
// ---------------------------------------------------------------------------

TxnTask DeliveryTxn(Workload* w, TaskEnv* env, DeliveryParams p) {
  TxnScope txn_prof;
  OpContext* ctx = &env->ctx;
  Database* db = w->db;
  Tables& t = w->tables;
  Transaction* txn = db->BeginDefault(env->global_slot_id);
  db->StatementBegin(txn);
  Status st;
  std::vector<Value> key;
  std::vector<RowId> ol_rids;  // reused per district

  for (int32_t d_id = 1; d_id <= w->scale.districts_per_warehouse; ++d_id) {
    // Oldest undelivered order of this district.
    RowId no_rid = 0;
    int32_t o_id = -1;
    TPCC_OP(t.new_order->IndexScanRef(
        ctx, txn, Tables::kPk, Key2(&key, p.w_id, d_id), {},
        [&](RowId rid, Slice row) {
          no_rid = rid;
          o_id = RowView(&t.new_order->schema(), row.data())
                     .GetInt32(NewOrder::kOId);
          return false;  // first = min o_id
        }));
    if (o_id < 0) continue;  // district has no pending orders

    PHOEBE_CO_AWAIT(st, t.new_order->Delete(ctx, txn, no_rid));
    if (st.IsNotFound()) continue;  // another delivery raced us
    if (st.IsAborted()) co_return AbortWith(w, env, txn, st);
    if (!st.ok()) co_return AbortWith(w, env, txn, st);

    // Order: set carrier, read customer.
    RowId o_rid = 0;
    Slice o_row;
    TPCC_OP(t.order->IndexGetRef(ctx, txn, Tables::kPk,
                                 Key3(&key, p.w_id, d_id, o_id), &o_rid,
                                 &o_row));
    int32_t c_id =
        RowView(&t.order->schema(), o_row.data()).GetInt32(Order::kCId);
    TPCC_OP(t.order->Update(ctx, txn, o_rid,
                            {{Order::kCarrierId, I32V(p.carrier_id)}}));

    // Order lines: set delivery date, sum amounts.
    double total = 0;
    ol_rids.clear();
    TPCC_OP(t.order_line->IndexScanRef(
        ctx, txn, Tables::kPk, Key3(&key, p.w_id, d_id, o_id), {},
        [&](RowId rid, Slice row) {
          total += RowView(&t.order_line->schema(), row.data())
                       .GetDouble(OrderLine::kAmount);
          ol_rids.push_back(rid);
          return true;
        }));
    for (RowId rid : ol_rids) {
      TPCC_OP(t.order_line->Update(
          ctx, txn, rid, {{OrderLine::kDeliveryD, Value::Int64(kNowDate)}}));
    }

    // Customer: balance += total, delivery_cnt += 1.
    RowId c_rid = 0;
    TPCC_OP(t.customer->IndexGetRef(ctx, txn, Tables::kPk,
                                    Key3(&key, p.w_id, d_id, c_id), &c_rid,
                                    nullptr));
    TPCC_OP(t.customer->UpdateApply(
        ctx, txn, c_rid,
        [total](RowView cur,
                std::vector<std::pair<uint32_t, Value>>* sets) {
          sets->push_back(
              {Customer::kBalance,
               Value::Double(cur.GetDouble(Customer::kBalance) + total)});
          sets->push_back({Customer::kDeliveryCnt,
                           I32V(cur.GetInt32(Customer::kDeliveryCnt) + 1)});
          return Status::OK();
        }));
  }

  uint64_t commit_t0 = NowNanos();
  PHOEBE_CO_AWAIT(st, db->Commit(ctx, txn));
  w->commit_wait_ns.fetch_add(NowNanos() - commit_t0,
                              std::memory_order_relaxed);
  if (!st.ok()) co_return AbortWith(w, env, txn, st);
  w->delivery_commits.fetch_add(1, std::memory_order_relaxed);
  co_return Status::OK();
}

// ---------------------------------------------------------------------------
// StockLevel (clause 2.8)
// ---------------------------------------------------------------------------

TxnTask StockLevelTxn(Workload* w, TaskEnv* env, StockLevelParams p) {
  TxnScope txn_prof;
  OpContext* ctx = &env->ctx;
  Database* db = w->db;
  Tables& t = w->tables;
  Transaction* txn = db->BeginDefault(env->global_slot_id);
  db->StatementBegin(txn);
  Status st;
  std::vector<Value> key;
  std::vector<Value> hi_key;
  std::vector<int32_t> item_ids;

  RowId d_rid = 0;
  Slice d_row;
  TPCC_OP(t.district->IndexGetRef(ctx, txn, Tables::kPk,
                                  Key2(&key, p.w_id, p.d_id), &d_rid, &d_row,
                                  ColumnBit(District::kNextOId)));
  int32_t next_o_id =
      RowView(&t.district->schema(), d_row.data())
          .GetInt32(District::kNextOId);

  // Distinct items of the last 20 orders, in ascending order: sorted STOCK
  // probes land in the leaf the previous probe used (DESIGN.md 4h).
  int32_t lo_o_id = std::max(1, next_o_id - 20);
  item_ids.reserve(20 * 15);  // at most 15 lines per order
  TPCC_OP(t.order_line->IndexScanRef(
      ctx, txn, Tables::kPk, Key3(&key, p.w_id, p.d_id, lo_o_id),
      Key3(&hi_key, p.w_id, p.d_id, next_o_id),
      [&](RowId, Slice row) {
        item_ids.push_back(RowView(&t.order_line->schema(), row.data())
                               .GetInt32(OrderLine::kIId));
        return true;
      },
      ColumnBit(OrderLine::kIId)));
  std::sort(item_ids.begin(), item_ids.end());
  item_ids.erase(std::unique(item_ids.begin(), item_ids.end()),
                 item_ids.end());

  int low_stock = 0;
  for (int32_t i_id : item_ids) {
    Slice s_row;
    PHOEBE_CO_AWAIT(st, t.stock->IndexGetRef(ctx, txn, Tables::kPk,
                                             Key2(&key, p.w_id, i_id),
                                             nullptr, &s_row,
                                             ColumnBit(Stock::kQuantity)));
    if (st.IsNotFound()) continue;
    if (!st.ok()) co_return AbortWith(w, env, txn, st);
    if (RowView(&t.stock->schema(), s_row.data())
            .GetInt32(Stock::kQuantity) < p.threshold) {
      ++low_stock;
    }
  }
  (void)low_stock;

  uint64_t commit_t0 = NowNanos();
  PHOEBE_CO_AWAIT(st, db->Commit(ctx, txn));
  w->commit_wait_ns.fetch_add(NowNanos() - commit_t0,
                              std::memory_order_relaxed);
  if (!st.ok()) co_return AbortWith(w, env, txn, st);
  w->stock_level_commits.fetch_add(1, std::memory_order_relaxed);
  co_return Status::OK();
}

}  // namespace tpcc
}  // namespace phoebe
