#include "perfbench/src/serve_load.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <thread>

#include "src/serve/client.h"
#include "src/util/rng.h"

namespace perfbench
{

using namespace segram;

uint64_t
OpenLoopResult::readsSent() const
{
    uint64_t n = 0;
    for (const RequestLog &r : requests)
        n += r.reads;
    return n;
}

uint64_t
OpenLoopResult::readsFailed() const
{
    uint64_t n = 0;
    for (const RequestLog &r : requests)
        if (!r.ok || r.mismatch)
            n += r.reads;
    return n;
}

uint64_t
OpenLoopResult::busyReplies() const
{
    return static_cast<uint64_t>(
        std::count_if(requests.begin(), requests.end(),
                      [](const RequestLog &r) { return r.busy; }));
}

uint64_t
OpenLoopResult::mismatches() const
{
    return static_cast<uint64_t>(
        std::count_if(requests.begin(), requests.end(),
                      [](const RequestLog &r) { return r.mismatch; }));
}

double
OpenLoopResult::goodputReadsPerSec() const
{
    if (requests.empty())
        return 0.0;
    double last = 0.0;
    uint64_t ok_reads = 0;
    for (const RequestLog &r : requests) {
        last = std::max(last, r.replySec);
        if (r.ok && !r.mismatch)
            ok_reads += r.reads;
    }
    const double span = last - requests.front().dueSec;
    return span > 0.0 ? static_cast<double>(ok_reads) / span : 0.0;
}

std::vector<double>
OpenLoopResult::latenciesMs() const
{
    std::vector<double> out;
    out.reserve(requests.size());
    for (const RequestLog &r : requests)
        out.push_back(r.latencyMs());
    return out;
}

double
percentile(std::vector<double> values, double quantile)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<size_t>(
        std::ceil(quantile * static_cast<double>(values.size())));
    return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

OpenLoopResult
runOpenLoop(const std::string &socket_path, const ServeCorpus &corpus,
            double reads_per_sec, size_t num_requests, int connections,
            uint64_t schedule_seed, Tracer &tracer, int64_t parent)
{
    OpenLoopResult result;
    result.requests.resize(num_requests);
    if (num_requests == 0)
        return result;

    // The schedule: exponential gaps normalised so the run offers
    // exactly the requested rate, and a seeded batch order.
    Rng rng(schedule_seed);
    const double reads_per_request =
        static_cast<double>(corpus.batches.front().size());
    const double mean_gap = reads_per_request / reads_per_sec;
    std::vector<double> gaps(num_requests);
    double gap_sum = 0.0;
    for (double &gap : gaps) {
        gap = -std::log(1.0 - rng.nextDouble());
        gap_sum += gap;
    }
    // Batches go out in a seeded permutation, cycled, so every batch
    // is sent equally often.
    std::vector<size_t> order(corpus.batches.size());
    for (size_t b = 0; b < order.size(); ++b)
        order[b] = b;
    for (size_t b = order.size(); b > 1; --b)
        std::swap(order[b - 1], order[rng.nextBelow(b)]);
    double due = 0.0;
    for (size_t j = 0; j < num_requests; ++j) {
        RequestLog &request = result.requests[j];
        request.dueSec = due;
        request.batch = order[j % order.size()];
        request.reads =
            static_cast<uint32_t>(corpus.batches[request.batch].size());
        due += gaps[j] * mean_gap * static_cast<double>(num_requests) /
               gap_sum;
    }

    // Connect every client before the clock starts.
    std::vector<serve::ServeClient> clients;
    clients.reserve(static_cast<size_t>(connections));
    for (int c = 0; c < connections; ++c)
        clients.push_back(serve::ServeClient::connectUnixSocket(socket_path));

    std::atomic<size_t> next{0};
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(5);
    const auto at = [start](double sec) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(sec));
    };
    const auto client_loop = [&](int c) {
        serve::ServeClient &client = clients[static_cast<size_t>(c)];
        bool connected = true;
        for (;;) {
            const size_t j = next.fetch_add(1);
            if (j >= num_requests)
                return;
            RequestLog &request = result.requests[j];
            std::this_thread::sleep_until(at(request.dueSec));
            const Clock::time_point sent = Clock::now();
            request.sendSec = secondsBetween(start, sent);
            if (connected) {
                try {
                    const serve::Reply reply = client.mapReads(
                        "ref", corpus.batches[request.batch]);
                    request.ok = reply.ok;
                    request.busy = !reply.ok && reply.code == serve::kErrBusy;
                    request.mappedLines =
                        static_cast<uint32_t>(reply.lines);
                    request.mismatch =
                        reply.ok &&
                        reply.payload != corpus.expectedPaf[request.batch];
                } catch (const std::exception &) {
                    connected = false; // the rest of this client's
                                       // requests count as failed
                }
            }
            const Clock::time_point replied = Clock::now();
            request.replySec = secondsBetween(start, replied);
            tracer.record("serve.rtt", sent, replied, parent,
                          static_cast<int64_t>(j), request.reads, c + 1);
        }
    };
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(connections));
    try {
        for (int c = 0; c < connections; ++c)
            threads.emplace_back(client_loop, c);
    } catch (...) {
        next = num_requests; // the started clients stop after one request
        for (std::thread &thread : threads)
            thread.join();
        throw;
    }
    for (std::thread &thread : threads)
        thread.join();
    return result;
}

} // namespace perfbench
