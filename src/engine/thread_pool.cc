#include "src/engine/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace gent {

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(Group* group, std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push_back(QueuedTask{std::move(task), group});
    ++in_flight_;
    if (group != nullptr) ++group->outstanding_;
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  work_done_.wait(lock, [this]() { return in_flight_ == 0; });
}

void ThreadPool::Wait(Group* group) {
  std::unique_lock<std::mutex> lock(mutex_);
  work_done_.wait(lock, [group]() { return group->outstanding_ == 0; });
}

size_t ThreadPool::queue_depth() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return queue_.size();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this]() { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task.fn();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      --in_flight_;
      if (task.group != nullptr) --task.group->outstanding_;
      // One condvar serves both wait flavors; completions are rare
      // relative to task bodies, so the broadcast is cheap.
      if (in_flight_ == 0 || task.group != nullptr) {
        work_done_.notify_all();
      }
    }
  }
}

size_t ThreadPool::ResolveThreads(size_t requested) {
  if (requested != 0) return std::max<size_t>(1, requested);
  size_t hw = std::thread::hardware_concurrency();
  return std::max<size_t>(1, hw);
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (pool == nullptr || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<size_t> next{0};
  size_t shards = std::min(pool->num_threads(), n);
  ThreadPool::Group group;
  for (size_t t = 0; t < shards; ++t) {
    pool->Submit(&group, [&next, n, &fn]() {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        fn(i);
      }
    });
  }
  pool->Wait(&group);
}

}  // namespace gent
