/**
 * @file
 * A bounded work queue + worker pool, the concurrency substrate for
 * the serving layer and the parallel fuzz campaigns.
 *
 * Deliberately minimal: tasks are type-erased closures, the queue
 * has a hard capacity (submit() blocks when full — backpressure
 * instead of unbounded memory under heavy traffic), and shutdown
 * drains what was accepted.  Per-task deadlines/cancellation live
 * inside the task (EvalOptions watchdog), not in the pool: a worker
 * is never killed, its run always returns cleanly with a terminal
 * verdict, so no allocation in a worker's MemoryModel can leak and
 * no partial trace escapes.
 */
#ifndef CHERISEM_SERVE_POOL_H
#define CHERISEM_SERVE_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cherisem::serve {

class WorkerPool
{
  public:
    /** Start @p threads workers.  @p queueCapacity bounds the number
     *  of queued (not yet running) tasks. */
    explicit WorkerPool(unsigned threads, size_t queueCapacity = 256);
    /** Drains accepted work, then joins. */
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Enqueue @p task; blocks while the queue is full.  Returns
     *  false (task dropped) after shutdown() began. */
    bool submit(std::function<void()> task);

    /** Block until every accepted task has finished. */
    void drain();

    /** Stop accepting, finish accepted tasks, join the workers.
     *  Idempotent. */
    void shutdown();

    size_t queueDepth() const;
    unsigned threads() const
    {
        return static_cast<unsigned>(workers_.size());
    }

  private:
    void workerLoop();

    mutable std::mutex mu_;
    std::condition_variable notEmpty_;
    std::condition_variable notFull_;
    std::condition_variable idle_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    size_t capacity_;
    unsigned running_ = 0; ///< tasks currently executing
    bool stopping_ = false;
};

} // namespace cherisem::serve

#endif // CHERISEM_SERVE_POOL_H
