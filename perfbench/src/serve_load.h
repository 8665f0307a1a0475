/**
 * @file
 * Open-loop load generator for the in-process `segram serve` daemon.
 *
 * Requests follow a fixed schedule drawn from the seed: Poisson
 * arrivals (exponential gaps normalised to the offered rate) over a
 * seeded permutation of the fixed read batches, cycled. At most
 * `connections` client connections send; a request whose connections
 * are all busy goes out late, and every latency is timed from the
 * request's *due* time, so a stall is charged to every request queued
 * behind it. A failed or refused request counts as missing any latency
 * limit.
 */

#ifndef SEGRAM_PERFBENCH_SERVE_LOAD_H
#define SEGRAM_PERFBENCH_SERVE_LOAD_H

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "perfbench/src/trace.h"
#include "src/serve/protocol.h"

namespace perfbench
{

/** The fixed request batches and the PAF each must come back with. */
struct ServeCorpus
{
    std::vector<std::vector<segram::serve::ReadRecord>> batches;
    std::vector<std::string> expectedPaf; ///< offline PAF per batch
};

/** One request of an open-loop run. */
struct RequestLog
{
    double dueSec = 0.0;   ///< since the run's start
    double sendSec = 0.0;
    double replySec = 0.0;
    size_t batch = 0;
    uint32_t reads = 0;
    uint32_t mappedLines = 0;
    bool ok = false;
    bool busy = false;
    bool mismatch = false; ///< OK reply whose PAF differs from offline

    double
    latencyMs() const
    {
        return ok && !mismatch ? (replySec - dueSec) * 1e3
                               : std::numeric_limits<double>::infinity();
    }
};

struct OpenLoopResult
{
    std::vector<RequestLog> requests;

    uint64_t readsSent() const;
    uint64_t readsFailed() const;   ///< error, BUSY or no reply
    uint64_t busyReplies() const;
    uint64_t mismatches() const;
    /** OK reads per second from the first due time to the last reply. */
    double goodputReadsPerSec() const;
    std::vector<double> latenciesMs() const;
};

/**
 * Sends @p num_requests requests at @p reads_per_sec (offered) to the
 * daemon at @p socket_path. @p schedule_seed fixes arrival gaps and
 * batch order. Spans (one per request, send to reply) go to @p tracer.
 */
OpenLoopResult runOpenLoop(const std::string &socket_path,
                           const ServeCorpus &corpus, double reads_per_sec,
                           size_t num_requests, int connections,
                           uint64_t schedule_seed, Tracer &tracer,
                           int64_t parent);

/** Nearest-rank percentile (0..1) of @p values; inf-safe. */
double percentile(std::vector<double> values, double quantile);

} // namespace perfbench

#endif // SEGRAM_PERFBENCH_SERVE_LOAD_H
