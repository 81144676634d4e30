#include "rt/executor.h"

#include <utility>

namespace waran::rt {

CellExecutor::~CellExecutor() { stop(); }

void CellExecutor::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  stopping_ = false;
  running_ = true;
  thread_ = std::thread([this] { loop(); });
}

void CellExecutor::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stopping_ = true;
  }
  work_cv_.notify_all();
  thread_.join();
  // The worker drained the queue before it returned: inline posts may run.
  running_ = false;
}

void CellExecutor::post(std::function<void()> task) {
  if (!running_) {
    // Inline mode: same FIFO schedule, caller's thread.
    task();
    ++tasks_run_;
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  queue_.push_back(std::move(task));
  work_cv_.notify_one();
}

void CellExecutor::wait_idle() {
  // Inline tasks finished inside post(); a stopped worker left no queue.
  if (!running_) return;
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && !busy_; });
}

void CellExecutor::loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (queue_.empty()) {
      busy_ = false;
      idle_cv_.notify_all();
      if (stopping_) return;
      work_cv_.wait(lock, [this] { return !queue_.empty() || stopping_; });
      continue;
    }
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    busy_ = true;
    lock.unlock();
    task();
    lock.lock();
    ++tasks_run_;
  }
}

}  // namespace waran::rt
