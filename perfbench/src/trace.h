/**
 * @file
 * In-memory span recorder of the traced benchmark run.
 *
 * Spans are recorded by the benchmark's own code around each call into
 * a layer's public functions (index build, pack save/load, FASTX read,
 * mapBatch, PAF write, seeding, linearization, BitAlign launches,
 * serve round trips). Each span carries its name, start and end, the
 * span that caused it, an id (batch, read or request) and a work
 * count recorded at the same boundary (reads, bases, regions, windows,
 * characters). Nothing is written while measuring: writeChromeJson()
 * dumps the Chrome trace-event file when the run ends.
 *
 * A disabled tracer records nothing; begin() then costs one branch,
 * which is what the untraced (end-to-end) runs pay.
 */

#ifndef SEGRAM_PERFBENCH_TRACE_H
#define SEGRAM_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

inline double
secondsSince(Clock::time_point from)
{
    return secondsBetween(from, Clock::now());
}

/** One recorded span. Times are nanoseconds since the tracer's epoch. */
struct Span
{
    const char *name = "";
    int64_t startNs = 0;
    int64_t endNs = 0;
    int64_t parent = -1; ///< index of the causing span, -1 = root
    int64_t id = 0;      ///< batch / read / request id
    uint64_t count = 0;  ///< work units counted at this boundary
    int tid = 0;         ///< recording thread (client number for serve)
};

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now())
    {
    }

    /** Opens a span; returns its handle (-1 when disabled). */
    int64_t
    begin(const char *name, int64_t parent = -1, int64_t id = 0,
          int tid = 0)
    {
        if (!enabled_)
            return -1;
        const int64_t now = nowNs();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({name, now, now, parent, id, 0, tid});
        return static_cast<int64_t>(spans_.size() - 1);
    }

    /** Closes span @p handle, recording @p count work units. */
    void
    end(int64_t handle, uint64_t count = 0)
    {
        if (handle < 0)
            return;
        const int64_t now = nowNs();
        std::lock_guard<std::mutex> lock(mutex_);
        Span &span = spans_[static_cast<size_t>(handle)];
        span.endNs = now;
        span.count = count;
    }

    /** Records an already-measured span (serve clients time their own
     *  round trips and hand them over afterwards). */
    void
    record(const char *name, Clock::time_point start, Clock::time_point end,
           int64_t parent, int64_t id, uint64_t count, int tid)
    {
        if (!enabled_)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({name, toNs(start), toNs(end), parent, id, count,
                          tid});
    }

    /**
     * Writes the spans as Chrome trace-event JSON ("X" complete events,
     * microsecond timestamps), viewable in Perfetto or chrome://tracing.
     * @return False when the file could not be written.
     */
    bool
    writeChromeJson(const std::string &path) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::ofstream out(path, std::ios::binary);
        out << "{\"traceEvents\":[\n";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1"
                << ",\"tid\":" << s.tid << ",\"ts\":" << s.startNs / 1000
                << "." << (s.startNs % 1000) / 100
                << ",\"dur\":" << (s.endNs - s.startNs) / 1000 << "."
                << ((s.endNs - s.startNs) % 1000) / 100
                << ",\"args\":{\"span\":" << i << ",\"parent\":"
                << s.parent << ",\"id\":" << s.id << ",\"count\":"
                << s.count << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        out << "],\"displayTimeUnit\":\"ms\"}\n";
        return static_cast<bool>(out);
    }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_.size();
    }

  private:
    int64_t toNs(Clock::time_point t) const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                                    epoch_)
            .count();
    }
    int64_t nowNs() const { return toNs(Clock::now()); }

    const bool enabled_;
    const Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // SEGRAM_PERFBENCH_TRACE_H
