// A small fixed-size worker pool for the engine layer.
//
// Workers are spawned once and fed through a mutex-guarded FIFO queue.
// Two wait primitives are offered:
//
//   * Wait() blocks until the pool is quiescent (every task submitted
//     so far, by anyone, has finished);
//   * Wait(Group*) blocks until the tasks submitted with that Group
//     have finished, regardless of other traffic in the pool.
//
// Group waits are what let several independent phases share one
// resident pool: ReclaimService::ReclaimBatch waits only for its own
// per-source tasks, so a concurrent batch — or the service's async
// admission queue — running in the same pool never extends its wait.
//
// Thread safety: all methods are safe to call concurrently from any
// number of threads. A Group must outlive every task submitted with it
// (Wait(&group) before the group leaves scope guarantees this).

#ifndef GENT_ENGINE_THREAD_POOL_H_
#define GENT_ENGINE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gent {

class ThreadPool {
 public:
  /// A completion group: tasks submitted with a Group can be awaited
  /// independently of the rest of the pool's traffic. The counter is
  /// guarded by the pool's mutex; the object itself is just a handle.
  class Group {
   public:
    Group() = default;
    Group(const Group&) = delete;
    Group& operator=(const Group&) = delete;

   private:
    friend class ThreadPool;
    size_t outstanding_ = 0;  // guarded by ThreadPool::mutex_
  };

  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding work, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task (FIFO start order). Tasks must not throw.
  /// Thread-safe.
  void Submit(std::function<void()> task) { Submit(nullptr, std::move(task)); }

  /// Enqueues a task tracked by `group` (null = untracked). The group
  /// must outlive the task. Thread-safe.
  void Submit(Group* group, std::function<void()> task);

  /// Blocks until every task submitted so far — by any caller, in any
  /// group — has completed (pool-wide quiescence). Thread-safe.
  void Wait();

  /// Blocks until every task submitted with `group` has completed.
  /// Unaffected by other tasks in the pool. Thread-safe.
  void Wait(Group* group);

  /// Tasks enqueued but not yet picked up by a worker (observability;
  /// the value is stale the moment it returns). Thread-safe.
  size_t queue_depth() const;

  /// Worker count for a requested thread count: 0 picks the hardware
  /// concurrency (uncapped — a 32-core host gets 32 workers; thread
  /// count never changes results anywhere in the engine).
  static size_t ResolveThreads(size_t requested);

 private:
  struct QueuedTask {
    std::function<void()> fn;
    Group* group = nullptr;
  };

  void WorkerLoop();

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable work_done_;
  std::deque<QueuedTask> queue_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

/// Runs fn(i) for every i in [0, n) on a caller-owned pool (serial when
/// `pool` is null) and blocks until done. Work is handed out through an
/// atomic counter; callers that write only to their own index stay
/// deterministic under any schedule. The pool can be reused across many
/// calls (e.g. every round of a traversal), and the wait is
/// group-scoped: concurrent ParallelFor calls — or async tasks —
/// sharing the pool never extend each other's return.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace gent

#endif  // GENT_ENGINE_THREAD_POOL_H_
