// waran::rt cell executor — one worker thread owning one cell shard.
//
// The multi-cell deployment (rt/deployment.h) bundles each cell's
// GnbMac + PluginManager + GnbAgent + engine instances into a shard and
// pins all of its execution to one CellExecutor: the shard's state is only
// ever touched from its worker (or from the coordinator strictly between
// wait_idle() and the next post(), which the mutex handshake orders), so
// none of it needs internal locking.
//
// Tasks run in FIFO order. wait_idle() is the barrier a deterministic
// deployment steps on: it returns only after every posted task finished,
// and the unlock/lock pair gives the coordinator a happens-before edge over
// all of the worker's writes.
//
// Without start() (or after stop()) post() runs the task inline on the
// caller's thread — byte-identical schedule, no concurrency — which is what
// single-threaded tier-1 tests and the differential determinism checks use.
// That hand-off takes no lock: post(), wait_idle(), threaded() and
// tasks_run() read only atomics when no worker runs.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

namespace waran::rt {

class CellExecutor {
 public:
  explicit CellExecutor(std::string name) : name_(std::move(name)) {}
  ~CellExecutor();

  CellExecutor(const CellExecutor&) = delete;
  CellExecutor& operator=(const CellExecutor&) = delete;

  /// Spawns the worker thread. Idempotent.
  void start();
  /// Drains the queue, then joins the worker. Subsequent posts run inline.
  void stop();
  bool threaded() const { return running_; }

  /// Enqueues `task` for the worker (or runs it inline when not started).
  void post(std::function<void()> task);

  /// Blocks until every task posted so far has finished.
  void wait_idle();

  const std::string& name() const { return name_; }
  uint64_t tasks_run() const { return tasks_run_; }

 private:
  void loop();

  std::string name_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // worker wakes on new work / stop
  std::condition_variable idle_cv_;  // wait_idle callers wake on drain
  std::deque<std::function<void()>> queue_;
  // Written by the worker under mu_, or inline by the caller of post().
  std::atomic<uint64_t> tasks_run_{0};
  // Worker thread exists. Written by start()/stop() on the thread that
  // posts, so post() reads it without the lock.
  std::atomic<bool> running_{false};
  bool busy_ = false;      // worker is inside a task
  bool stopping_ = false;
};

}  // namespace waran::rt
