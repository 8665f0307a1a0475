#include "src/util/thread_pool.h"

#include <algorithm>

namespace segram::util
{

ThreadPool::ThreadPool(int num_threads)
{
    const int n = std::max(1, num_threads);
    workers_.reserve(static_cast<size_t>(n));
    try {
        for (int i = 0; i < n; ++i)
            workers_.emplace_back([this, i] { workerLoop(i); });
    } catch (...) {
        // Destroying a vector of joinable threads calls
        // std::terminate; join the ones that did spawn first.
        {
            MutexLock lock(mutex_);
            stop_ = true;
        }
        wake_.notify_all();
        for (auto &worker : workers_)
            worker.join();
        throw;
    }
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

int
ThreadPool::defaultThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

void
ThreadPool::workerLoop(int worker_id)
{
    uint64_t seen_generation = 0;
    while (true) {
        const ItemFn *fn = nullptr;
        uint64_t my_generation = 0;
        {
            MutexLock lock(mutex_);
            // Explicit wait loop (not the predicate overload): the
            // thread-safety analysis cannot look inside a lambda, but
            // it checks these guarded reads fine in the enclosing
            // scope, where the capability is held.
            while (!(stop_ || (stealJob_ != nullptr &&
                               jobGeneration_ != seen_generation)))
                wake_.wait(lock.native());
            if (stop_)
                return;
            seen_generation = my_generation = jobGeneration_;
            fn = stealJob_;
            ++jobActiveWorkers_;
        }

        // Claim work until it is exhausted, a failure abandons the
        // job, or the job is superseded (a straggler must never claim
        // work of a later generation with the old fn).
        while (true) {
            size_t item = 0;
            {
                MutexLock lock(mutex_);
                if (jobGeneration_ != my_generation ||
                    jobError_ != nullptr ||
                    !claimStealItem(worker_id, item))
                    break;
                --stealRemaining_;
            }
            try {
                (*fn)(item, worker_id);
            } catch (...) {
                MutexLock lock(mutex_);
                if (jobGeneration_ == my_generation &&
                    jobError_ == nullptr)
                    jobError_ = std::current_exception();
                break;
            }
        }

        {
            MutexLock lock(mutex_);
            --jobActiveWorkers_;
        }
        done_.notify_all();
    }
}

bool
ThreadPool::claimStealItem(int worker_id, size_t &item)
{
    auto &mine = stealRanges_[static_cast<size_t>(worker_id)];
    if (mine.first >= mine.second) {
        // Own range drained: steal the back half of the richest
        // remaining range (back, so the victim keeps working forward
        // through its front undisturbed).
        size_t victim = stealRanges_.size();
        size_t victim_remaining = 0;
        for (size_t v = 0; v < stealRanges_.size(); ++v) {
            const size_t remaining =
                stealRanges_[v].second - stealRanges_[v].first;
            if (remaining > victim_remaining) {
                victim_remaining = remaining;
                victim = v;
            }
        }
        if (victim == stealRanges_.size())
            return false;
        auto &range = stealRanges_[victim];
        const size_t take = (victim_remaining + 1) / 2;
        mine.first = range.second - take;
        mine.second = range.second;
        range.second = mine.first;
    }
    item = mine.first++;
    return true;
}

void
ThreadPool::parallelSteal(size_t num_items, const ItemFn &fn)
{
    if (num_items == 0)
        return;

    MutexLock lock(mutex_);
    stealJob_ = &fn;
    const size_t num_workers = workers_.size();
    stealRanges_.assign(num_workers, {0, 0});
    for (size_t w = 0; w < num_workers; ++w) {
        stealRanges_[w] = {num_items * w / num_workers,
                           num_items * (w + 1) / num_workers};
    }
    stealRemaining_ = num_items;
    jobError_ = nullptr;
    ++jobGeneration_;
    wake_.notify_all();

    while (!(jobActiveWorkers_ == 0 &&
             (stealRemaining_ == 0 || jobError_ != nullptr)))
        done_.wait(lock.native());

    // stealJob_ is cleared under the same lock hold the predicate was
    // last evaluated under, so no straggler can begin the finished job.
    stealJob_ = nullptr;
    if (jobError_ != nullptr) {
        std::exception_ptr error = jobError_;
        jobError_ = nullptr;
        lock.unlock();
        std::rethrow_exception(error);
    }
}

} // namespace segram::util
