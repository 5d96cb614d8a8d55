// Banking demo: concurrent balance transfers through the coroutine-pool
// scheduler, demonstrating MVCC isolation (total balance is invariant under
// any interleaving) and the transaction-ID lock protocol under contention.
//
//   ./build/examples/banking [accounts] [seconds]
#include <cstdio>

#include "core/database.h"
#include "runtime/scheduler.h"
#include "runtime/task.h"

using namespace phoebe;

namespace {

struct Bank {
  Database* db;
  Table* accounts;
  std::vector<RowId> rids;
  std::atomic<uint64_t> transfers{0};
  std::atomic<uint64_t> conflicts{0};
};

/// Moves `amount` from one account to another in a single transaction.
TxnTask TransferTask(Bank* bank, TaskEnv* env, size_t from, size_t to,
                     double amount) {
  Database* db = bank->db;
  Transaction* txn = db->Begin(env->global_slot_id);
  db->StatementBegin(txn);
  Status st;

  Table::UpdateFn debit =
      [amount](RowView cur, std::vector<std::pair<uint32_t, Value>>* sets) {
        sets->push_back({1, Value::Double(cur.GetDouble(1) - amount)});
        return Status::OK();
      };
  Table::UpdateFn credit =
      [amount](RowView cur, std::vector<std::pair<uint32_t, Value>>* sets) {
        sets->push_back({1, Value::Double(cur.GetDouble(1) + amount)});
        return Status::OK();
      };

  // Lock accounts in rid order to keep deadlocks rare (timeouts catch the
  // rest).
  size_t first = std::min(from, to), second = std::max(from, to);
  for (;;) {
    st = bank->accounts->UpdateApply(&env->ctx, txn, bank->rids[first],
                                     first == from ? debit : credit);
    if (st.IsBlocked()) {
      co_await YieldWait(st);
      continue;
    }
    break;
  }
  if (st.ok()) {
    for (;;) {
      st = bank->accounts->UpdateApply(&env->ctx, txn, bank->rids[second],
                                       second == from ? debit : credit);
      if (st.IsBlocked()) {
        co_await YieldWait(st);
        continue;
      }
      break;
    }
  }
  if (!st.ok()) {
    (void)db->Abort(&env->ctx, txn);
    bank->conflicts.fetch_add(1);
    co_return st;
  }
  for (;;) {
    st = db->Commit(&env->ctx, txn);
    if (st.IsBlocked()) {
      co_await YieldWait(st);
      continue;
    }
    break;
  }
  bank->transfers.fetch_add(1);
  co_return st;
}

double TotalBalance(Bank* bank) {
  OpContext ctx;
  ctx.synchronous = true;
  Transaction* txn = bank->db->Begin(bank->db->aux_slot());
  double total = 0;
  for (RowId rid : bank->rids) {
    Slice row;
    if (bank->accounts->GetRef(&ctx, txn, rid, &row).ok()) {
      total += RowView(&bank->accounts->schema(), row.data()).GetDouble(1);
    }
  }
  (void)bank->db->Commit(&ctx, txn);
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  int n_accounts = argc > 1 ? atoi(argv[1]) : 64;
  double seconds = argc > 2 ? atof(argv[2]) : 3.0;

  std::string dir = "/tmp/phoebe_banking";
  (void)Env::Default()->RemoveDirRecursive(dir);
  DatabaseOptions options;
  options.path = dir;
  options.workers = 2;
  options.slots_per_worker = 8;
  auto db = Database::Open(options);
  if (!db.ok()) return 1;

  Schema schema({{"id", ColumnType::kInt64, 0, false},
                 {"balance", ColumnType::kDouble, 0, false}});
  Bank bank;
  bank.db = db.value().get();
  bank.accounts = bank.db->CreateTable("accounts", schema).value();

  OpContext ctx;
  ctx.synchronous = true;
  Transaction* loader = bank.db->Begin(bank.db->aux_slot());
  for (int i = 0; i < n_accounts; ++i) {
    RowBuilder b(&bank.accounts->schema());
    b.SetInt64(0, i).SetDouble(1, 1000.0);
    RowId rid = 0;
    if (!bank.accounts->Insert(&ctx, loader, b.Encode().value(), &rid).ok()) {
      return 1;
    }
    bank.rids.push_back(rid);
  }
  if (!bank.db->Commit(&ctx, loader).ok()) return 1;
  double initial = TotalBalance(&bank);
  printf("loaded %d accounts, total=%.2f\n", n_accounts, initial);

  Scheduler::Options sopts;
  sopts.workers = options.workers;
  sopts.slots_per_worker = options.slots_per_worker;
  Scheduler sched(sopts, bank.db->MakeSchedulerHooks());
  sched.Start();

  std::atomic<bool> stop{false};
  std::thread feeder([&] {
    Random rng(7);
    while (!stop.load()) {
      size_t from = rng.Uniform(bank.rids.size());
      size_t to = rng.Uniform(bank.rids.size());
      if (from == to) continue;
      double amount = 1.0 + static_cast<double>(rng.Uniform(100));
      sched.Submit([&bank, from, to, amount](TaskEnv* env) {
        return TransferTask(&bank, env, from, to, amount);
      });
    }
  });
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop = true;
  sched.Stop();
  feeder.join();

  double final_total = TotalBalance(&bank);
  printf("transfers=%llu conflicts=%llu total=%.2f (%s)\n",
         static_cast<unsigned long long>(bank.transfers.load()),
         static_cast<unsigned long long>(bank.conflicts.load()), final_total,
         final_total == initial ? "invariant holds" : "INVARIANT BROKEN");
  (void)bank.db->Close();
  return final_total == initial ? 0 : 1;
}
