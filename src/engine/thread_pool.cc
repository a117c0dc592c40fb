#include "engine/thread_pool.hh"

#include <string>
#include <utility>

#include "support/logging.hh"
#include "support/telemetry.hh"
#include "support/trace.hh"

namespace gpsched
{

ThreadPool::ThreadPool(int num_threads, PoolTelemetry telemetry)
    : telemetry_(telemetry)
{
    GPSCHED_ASSERT(num_threads >= 0,
                   "negative thread count ", num_threads);
    workers_.reserve(static_cast<std::size_t>(num_threads));
    for (int i = 0; i < num_threads; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        allDone_.wait(lock, [this] { return unfinished_ == 0; });
        stopping_ = true;
        // A destructor cannot rethrow; a still-captured task
        // exception is dropped here.
        firstError_ = nullptr;
    }
    workReady_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::runTask(Task task, int workerIndex)
{
    std::uint64_t startNanos = 0;
    if (telemetry_.enabled()) {
        startNanos = traceNowNanos();
        if (task.enqueueNanos != 0) {
            std::uint64_t waitNanos = startNanos >= task.enqueueNanos
                                          ? startNanos - task.enqueueNanos
                                          : 0;
            if (telemetry_.metrics != nullptr)
                telemetry_.metrics->histogram("pool.taskWaitMicros")
                    .add(static_cast<double>(waitNanos) * 1e-3);
            // Async span, not 'X': the wait interval overlaps
            // whatever this worker thread was running.
            if (telemetry_.trace != nullptr)
                telemetry_.trace->asyncSpan(
                    "queue-wait", "queue", telemetry_.pid,
                    traceThreadId(), traceNextPairId(),
                    task.enqueueNanos, startNanos);
        }
    }

    // The catch-all is the pool's fault barrier: a throwing task
    // must neither std::terminate a worker nor skip the unfinished_
    // decrement below (which would deadlock every later wait()).
    try {
        task.fn();
    } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!firstError_)
            firstError_ = std::current_exception();
    }

    if (telemetry_.metrics != nullptr) {
        std::uint64_t runNanos = traceNowNanos() - startNanos;
        telemetry_.metrics->histogram("pool.taskRunMicros")
            .add(static_cast<double>(runNanos) * 1e-3);
        if (workerIndex >= 0) {
            std::string prefix =
                "pool.worker." + std::to_string(workerIndex);
            telemetry_.metrics->counter(prefix + ".tasks").add(1);
            telemetry_.metrics->counter(prefix + ".busyMicros")
                .add(runNanos / 1000);
        }
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        --unfinished_;
        if (unfinished_ == 0)
            allDone_.notify_all();
    }
}

void
ThreadPool::submit(std::function<void()> task)
{
    Task entry;
    entry.fn = std::move(task);
    if (workers_.empty()) {
        // Inline mode counts the task like a worker would, so a
        // throw mid-task still balances the books for wait().
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++unfinished_;
        }
        runTask(std::move(entry), -1);
        return;
    }
    if (telemetry_.enabled())
        entry.enqueueNanos = traceNowNanos();
    std::size_t depth = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        GPSCHED_ASSERT(!stopping_, "submit on a stopping pool");
        queue_.push_back(std::move(entry));
        ++unfinished_;
        depth = queue_.size();
    }
    if (telemetry_.metrics != nullptr)
        telemetry_.metrics->gauge("pool.queueDepth")
            .set(static_cast<std::int64_t>(depth));
    workReady_.notify_one();
}

void
ThreadPool::wait()
{
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        allDone_.wait(lock, [this] { return unfinished_ == 0; });
        error = std::exchange(firstError_, nullptr);
    }
    if (error)
        std::rethrow_exception(error);
}

int
ThreadPool::hardwareConcurrency()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

void
ThreadPool::workerLoop(int workerIndex)
{
    if (telemetry_.trace != nullptr)
        telemetry_.trace->metadata(
            "thread_name", telemetry_.pid, traceThreadId(),
            "worker-" + std::to_string(workerIndex));
    for (;;) {
        Task task;
        std::size_t depth = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workReady_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // stopping_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
            depth = queue_.size();
        }
        if (telemetry_.metrics != nullptr)
            telemetry_.metrics->gauge("pool.queueDepth")
                .set(static_cast<std::int64_t>(depth));
        runTask(std::move(task), workerIndex);
    }
}

} // namespace gpsched
