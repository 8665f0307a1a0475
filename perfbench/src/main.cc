/**
 * @file
 * segram_bench: the end-to-end benchmark program.
 *
 *   segram_bench --workload NAME --seed N --seconds S --trace 0|1
 *                --work DIR [--trace-out FILE] [--smoke]
 *   segram_bench --workload NAME --seed N --work DIR --gen-only
 *
 * One run generates the workload's inputs from the seed, sets the
 * reference up several times (index build, pack save, pack load,
 * mapper construction; for the serve workload through the daemon's
 * first PING), then maps the reads through the paths users run:
 * FASTX -> ShardedBatchMapper -> PAF at T = min(nproc, 4) threads and
 * at 1 thread, and, on the serve workload only, the in-process daemon
 * over a Unix socket in an open loop. It checks the outputs (the
 * correctness gate) and prints, as its last line, one JSON object: the
 * end-to-end metrics every workload reports with --trace 0, the
 * per-layer metrics with --trace 1. The metrics only one workload has
 * (the daemon's) go on the line before it, as {"workload_metrics": ...}.
 * Any gate failure exits 1 without a result line.
 */

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/offline.h"
#include "perfbench/src/replay.h"
#include "perfbench/src/serve_load.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workload.h"
#include "src/eval/accuracy.h"
#include "src/io/fastx.h"
#include "src/io/paf.h"
#include "src/serve/client.h"
#include "src/serve/server.h"
#include "src/serve/service.h"

namespace
{

using namespace segram;
using namespace perfbench;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string work;
    std::string traceOut;
    bool genOnly = false;
    bool smoke = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "segram_bench: %s\nusage: segram_bench --workload NAME "
                 "--seed N --seconds S --trace 0|1 --work DIR "
                 "[--trace-out FILE] [--smoke] [--gen-only]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + flag).c_str());
            return argv[++i];
        };
        if (flag == "--workload")
            args.workload = value();
        else if (flag == "--seed")
            args.seed = std::stoull(value());
        else if (flag == "--seconds")
            args.seconds = std::stod(value());
        else if (flag == "--trace")
            args.trace = std::stoi(value());
        else if (flag == "--work")
            args.work = value();
        else if (flag == "--trace-out")
            args.traceOut = value();
        else if (flag == "--gen-only")
            args.genOnly = true;
        else if (flag == "--smoke")
            args.smoke = true;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (args.workload.empty() || args.work.empty())
        usage("--workload and --work are required");
    if (args.trace != 0 && args.trace != 1)
        usage("--trace must be 0 or 1");
    if (args.seconds <= 0.0)
        usage("--seconds must be positive");
    return args;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** VmRSS and VmHWM (peak RSS) of this process, MiB. */
struct RssMb
{
    double current = 0.0;
    double peak = 0.0;
};

RssMb
readRss()
{
    std::ifstream status("/proc/self/status");
    RssMb rss;
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmRSS:", 0) == 0)
            rss.current = std::stod(line.substr(6)) / 1024.0;
        else if (line.rfind("VmHWM:", 0) == 0)
            rss.peak = std::stod(line.substr(6)) / 1024.0;
    }
    if (rss.current <= 0.0 || rss.peak <= 0.0)
        throw std::runtime_error("no VmRSS/VmHWM in /proc/self/status");
    return rss;
}

/**
 * Starts the window peak_rss_mb measures: hands the heap freed by the
 * set-ups back to the kernel, then resets the peak-RSS mark (VmHWM) to
 * the current RSS. @return The RSS the window starts from.
 * @throws std::runtime_error when the kernel did not reset the mark, so
 * the peak of the index builds can never be reported as the mapping's.
 */
double
startPeakRssWindow()
{
    malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.close();
    if (!clear)
        throw std::runtime_error(
            "cannot reset the peak RSS: writing /proc/self/clear_refs failed");
    const RssMb rss = readRss();
    if (rss.peak > rss.current + 1.0)
        throw std::runtime_error("the peak RSS was not reset (VmHWM " +
                                 std::to_string(rss.peak) + " MiB, VmRSS " +
                                 std::to_string(rss.current) + " MiB)");
    return rss.current;
}

/**
 * p99 robust to a single stall of the shared host: the requests are cut
 * into @p segments consecutive runs, and the median of their p99s is
 * returned. A stall that hits one segment moves one of the values, not
 * the result.
 */
double
segmentedP99(const std::vector<double> &latencies, size_t segments)
{
    std::vector<double> p99s;
    const size_t per = latencies.size() / segments;
    for (size_t s = 0; s < segments && per > 0; ++s)
        p99s.push_back(percentile(
            std::vector<double>(latencies.begin() + static_cast<long>(s * per),
                                latencies.begin() +
                                    static_cast<long>((s + 1) * per)),
            0.99));
    return p99s.empty() ? percentile(latencies, 0.99) : median(p99s);
}

/** Segments of the reference-rate leg behind latency_p99_ms. */
constexpr size_t kLatencySegments = 5;

/** Collects metrics and renders the result line. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        entries_.push_back({name, value, unit});
    }

    bool
    empty() const
    {
        return entries_.empty();
    }

    std::string
    json() const
    {
        std::ostringstream out;
        out.precision(10);
        out << "{";
        for (size_t i = 0; i < entries_.size(); ++i)
            out << (i ? ", " : "") << "\"" << entries_[i].name
                << "\": {\"value\": " << entries_[i].value
                << ", \"unit\": \"" << entries_[i].unit << "\"}";
        out << "}";
        return out.str();
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/** A gate failure: reported, then the run exits 1 with no result. */
struct GateFailure
{
    std::string what;
};

void
gate(bool ok, const std::string &what)
{
    if (!ok)
        throw GateFailure{what};
}

/** The in-process daemon: one tenant named "ref" on a Unix socket. */
struct Daemon
{
    serve::ServiceRegistry registry;
    std::unique_ptr<serve::Server> server;

    Daemon() = default;
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;
    ~Daemon()
    {
        if (server != nullptr)
            server->stop();
    }
};

serve::ServiceConfig
serviceConfig(int threads)
{
    serve::ServiceConfig config;
    config.segram = mapConfig();
    config.batch.threads = threads;
    return config;
}

/** Timings of one set-up, seconds. */
struct SetupTimes
{
    double build = 0.0;
    double save = 0.0;
    double load = 0.0;
    double mapperInit = 0.0;
    double daemonStart = 0.0; ///< service load + start + first PING
};

/** Everything one run keeps alive after set-up. */
struct Prepared
{
    core::PreprocessedReference reference;
    std::unique_ptr<core::ShardedBatchMapper> mapper;
    std::shared_ptr<serve::MappingService> service;
    std::unique_ptr<Daemon> daemon;

    /** Tears down in dependency order: daemon, mapper, reference. */
    void
    reset()
    {
        daemon.reset();
        service.reset();
        mapper.reset();
        reference = core::PreprocessedReference();
    }
};

std::unique_ptr<Daemon>
startDaemon(const std::string &pack, const std::string &socket, int threads,
            std::shared_ptr<serve::MappingService> *service, Tracer &tracer,
            int64_t parent)
{
    auto daemon = std::make_unique<Daemon>();
    int64_t span = tracer.begin("serve.service_load", parent);
    *service = std::make_shared<serve::MappingService>("ref", pack,
                                                       serviceConfig(threads));
    daemon->registry.add(*service);
    tracer.end(span);
    span = tracer.begin("serve.start", parent);
    serve::ServerConfig config;
    config.unixPath = socket;
    daemon->server = std::make_unique<serve::Server>(daemon->registry, config);
    daemon->server->start();
    tracer.end(span);
    span = tracer.begin("serve.first_ping", parent);
    auto client = serve::ServeClient::connectUnixSocket(socket);
    gate(client.ping().ok, "daemon did not answer PING");
    tracer.end(span);
    return daemon;
}

/**
 * One full set-up. On the serve workload the daemon is part of it
 * (set-up ends when the first PING is answered); the other workloads
 * never start it.
 */
SetupTimes
setUp(const WorkloadSpec &spec, const WorkloadInputs &inputs,
      const std::string &pack, const std::string &socket, int threads,
      Prepared &prepared, Tracer &tracer, int64_t parent)
{
    SetupTimes t;
    prepared.reset();
    {
        auto t0 = Clock::now();
        int64_t span = tracer.begin("index.build", parent);
        core::PreprocessedReference built =
            spec.fromGfa
                ? core::PreprocessedReference::buildFromGfa(inputs.gfaPath,
                                                            indexConfig())
                : core::PreprocessedReference::buildFromFiles(
                      inputs.fastaPath, inputs.vcfPath, indexConfig());
        tracer.end(span);
        t.build = secondsSince(t0);
        t0 = Clock::now();
        span = tracer.begin("io.pack.save", parent);
        built.save(pack);
        tracer.end(span, std::filesystem::file_size(pack));
        t.save = secondsSince(t0);
    }
    auto t0 = Clock::now();
    int64_t span = tracer.begin("io.pack.load", parent);
    prepared.reference = core::PreprocessedReference::load(pack);
    tracer.end(span);
    t.load = secondsSince(t0);
    t0 = Clock::now();
    span = tracer.begin("core.mapper_init", parent);
    core::ShardedBatchConfig batch;
    batch.threads = threads;
    prepared.mapper = std::make_unique<core::ShardedBatchMapper>(
        prepared.reference, mapConfig(), batch);
    tracer.end(span);
    t.mapperInit = secondsSince(t0);
    if (spec.serve) {
        t0 = Clock::now();
        prepared.daemon = startDaemon(pack, socket, threads,
                                      &prepared.service, tracer, parent);
        t.daemonStart = secondsSince(t0);
    }
    return t;
}

/** setup_s of one set-up: the daemon path for the serve workload. */
double
setupSeconds(const WorkloadSpec &spec, const SetupTimes &t)
{
    return spec.serve ? t.build + t.save + t.daemonStart
                      : t.build + t.save + t.load + t.mapperInit;
}

/** Splits the reads into request batches with their offline PAF. */
ServeCorpus
buildCorpus(const std::vector<io::FastxRecord> &reads,
            const std::string &offline_paf, uint32_t request_reads)
{
    std::map<std::string, std::string, std::less<>> line_of;
    std::istringstream in(offline_paf);
    std::string line;
    while (std::getline(in, line))
        line_of[line.substr(0, line.find('\t'))] = line + "\n";
    ServeCorpus corpus;
    for (size_t begin = 0; begin + request_reads <= reads.size();
         begin += request_reads) {
        std::vector<serve::ReadRecord> batch;
        std::string expected;
        for (size_t i = begin; i < begin + request_reads; ++i) {
            batch.push_back({reads[i].name, reads[i].seq});
            const auto it = line_of.find(reads[i].name);
            if (it != line_of.end())
                expected += it->second;
        }
        corpus.batches.push_back(std::move(batch));
        corpus.expectedPaf.push_back(std::move(expected));
    }
    return corpus;
}

/** Gate: every reply matched the offline PAF and every read sent is
 *  accounted for as mapped, unmapped or failed. */
void
gateServe(const OpenLoopResult &run, const std::string &leg)
{
    gate(run.mismatches() == 0,
         leg + ": " + std::to_string(run.mismatches()) +
             " served PAF payloads differ from the offline PAF");
    uint64_t mapped = 0;
    uint64_t unmapped = 0;
    uint64_t failed = 0;
    for (const RequestLog &r : run.requests) {
        if (r.ok) {
            gate(r.mappedLines <= r.reads,
                 leg + ": more PAF lines than reads in a reply");
            mapped += r.mappedLines;
            unmapped += r.reads - r.mappedLines;
        } else {
            failed += r.reads;
        }
    }
    gate(mapped + unmapped + failed == run.readsSent(),
         leg + ": reads sent are not all accounted for");
}

/** What the daemon legs of the serve workload measured. */
struct ServeLegs
{
    OpenLoopResult reference; ///< the open loop at the reference rate
    double capacity = 0.0;    ///< reads/s; 0 when the walk did not run
    uint64_t sent = 0;        ///< reads sent over every leg
    uint64_t answered = 0;    ///< of those, answered
};

/**
 * The highest rung of the fixed ladder whose p99 meets the limit with
 * no growing backlog, as goodput in reads/s. The walk starts at the
 * reference rate and climbs one rung at a time; a single failed rung
 * (one stall of the shared host) does not end it, two in a row do.
 * Below a failing reference rate it walks down to the first passing
 * rung.
 */
double
capacityWalk(const ServeSpec &spec, const std::string &socket,
             const ServeCorpus &corpus, int connections, uint64_t seed,
             bool smoke, const OpenLoopResult &reference, ServeLegs &legs)
{
    const auto passes_rung = [&](const OpenLoopResult &r) {
        const std::vector<double> lat = r.latenciesMs();
        const size_t tail = std::max<size_t>(1, lat.size() / 10);
        const std::vector<double> last(lat.end() - static_cast<long>(tail),
                                       lat.end());
        return segmentedP99(lat, 3) <= spec.p99LimitMs &&
               median(last) <= spec.p99LimitMs;
    };
    const auto rung_rate = [&](int k) {
        double rate = spec.ladderBase;
        for (int i = 0; i < k; ++i)
            rate *= spec.ladderStep;
        return rate;
    };
    int k = 0;
    while (k + 1 < spec.ladderRungs && rung_rate(k + 1) <= spec.refRate)
        ++k;
    const bool ref_passes = passes_rung(reference);
    double capacity = ref_passes ? reference.goodputReadsPerSec() : 0.0;
    const int step = ref_passes ? 1 : -1;
    int fails_in_row = 0;
    Tracer off(false);
    const int max_probes = smoke ? 1 : 10;
    for (int probe = 0; probe < max_probes && fails_in_row < 2; ++probe) {
        k += step;
        if (k < 0 || k >= spec.ladderRungs)
            break;
        const OpenLoopResult r =
            runOpenLoop(socket, corpus, rung_rate(k), spec.probeRequests,
                        connections, seed * 7919 + 2 + probe, off, -1);
        gateServe(r, "capacity probe");
        legs.sent += r.readsSent();
        legs.answered += r.readsSent() - r.readsFailed();
        const bool pass = passes_rung(r);
        std::fprintf(stderr,
                     "[bench] capacity probe %.0f reads/s: p99 %.2f ms, "
                     "goodput %.1f reads/s -> %s\n",
                     rung_rate(k), segmentedP99(r.latenciesMs(), 3),
                     r.goodputReadsPerSec(), pass ? "pass" : "fail");
        if (pass && step > 0) {
            capacity = r.goodputReadsPerSec();
            fails_in_row = 0;
        } else if (pass) {
            capacity = r.goodputReadsPerSec();
            break;
        } else {
            ++fails_in_row;
        }
    }
    return capacity;
}

/**
 * The daemon legs: a warm-up, the open loop at the reference rate (a
 * span per request when traced) and, when @p walk_capacity, the
 * capacity walk. Every reply is gated against the offline PAF.
 */
ServeLegs
runServeLegs(const ServeSpec &spec, const std::string &socket,
             const ServeCorpus &corpus, int connections, uint64_t seed,
             bool walk_capacity, bool smoke, Tracer &tracer)
{
    ServeLegs legs;
    const auto count = [&](const OpenLoopResult &r) {
        legs.sent += r.readsSent();
        legs.answered += r.readsSent() - r.readsFailed();
    };
    // Warm the daemon first (its own pack mapping, its workers'
    // scratch): every batch once, back to back. A daemon pays this once
    // per start; the first few hundred requests otherwise run at half
    // speed and the reference leg would time the warm-up.
    Tracer off(false);
    const OpenLoopResult warm_up =
        runOpenLoop(socket, corpus, std::numeric_limits<double>::infinity(),
                    corpus.batches.size(), connections, seed * 7919, off, -1);
    gateServe(warm_up, "warm-up");
    count(warm_up);
    const size_t ref_requests =
        smoke ? std::max<size_t>(8, spec.refRequests / 10) : spec.refRequests;
    const int64_t span = tracer.begin("serve.reference_rate");
    legs.reference = runOpenLoop(socket, corpus, spec.refRate, ref_requests,
                                 connections, seed * 7919 + 1, tracer, span);
    tracer.end(span, legs.reference.readsSent());
    gateServe(legs.reference, "reference-rate leg");
    count(legs.reference);
    if (walk_capacity)
        legs.capacity = capacityWalk(spec, socket, corpus, connections, seed,
                                     smoke, legs.reference, legs);
    return legs;
}

std::vector<io::FastxRecord>
readAll(const std::string &path)
{
    io::FastxReader reader(path);
    std::vector<io::FastxRecord> records;
    io::FastxRecord record;
    while (reader.next(record))
        records.push_back(record);
    return records;
}

/** Deterministic PipelineStats counters (timings excluded). */
bool
sameCounters(const core::PipelineStats &a, const core::PipelineStats &b)
{
    return a.regionsAligned == b.regionsAligned &&
           a.alignmentsFound == b.alignmentsFound &&
           a.readsMapped == b.readsMapped && a.readsTotal == b.readsTotal &&
           a.batchedWindows == b.batchedWindows &&
           a.batchLaunches == b.batchLaunches &&
           a.scalarWindows == b.scalarWindows &&
           a.seeding.seedsFetched == b.seeding.seedsFetched &&
           a.seeding.regionsEmitted == b.seeding.regionsEmitted &&
           a.seeding.minimizersComputed == b.seeding.minimizersComputed;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

int
run(const Args &args)
{
    const WorkloadSpec *spec = findWorkload(args.workload);
    if (spec == nullptr)
        usage(("unknown workload " + args.workload).c_str());
    const std::string dir = args.work;

    const auto gen_start = Clock::now();
    const WorkloadInputs inputs = generateInputs(*spec, args.seed, dir);
    std::fprintf(stderr, "[bench] %s seed %llu: inputs generated in %.2f s\n",
                 spec->name, static_cast<unsigned long long>(args.seed),
                 secondsSince(gen_start));
    if (args.genOnly) {
        std::string out = "{\"digests\": {";
        for (size_t i = 0; i < inputs.digests.size(); ++i) {
            char hex[32];
            std::snprintf(hex, sizeof(hex), "%016llx",
                          static_cast<unsigned long long>(
                              inputs.digests[i].second));
            out += (i ? ", \"" : "\"") + inputs.digests[i].first +
                   "\": \"" + hex + "\"";
        }
        std::printf("%s}}\n", out.c_str());
        return 0;
    }

    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const int threads = static_cast<int>(std::min(hw, 4u));
    const bool traced = args.trace == 1;
    Tracer tracer(traced);
    const std::string pack = dir + "/ref.segram";
    const std::string socket = dir + "/serve.sock";
    const core::SegramConfig config = mapConfig();

    // ---- set-up, several times; the last one stays up ----
    const int setups = args.smoke ? 1 : 5;
    std::vector<SetupTimes> setup_times;
    Prepared prepared;
    const int64_t setup_span = tracer.begin("setup");
    for (int i = 0; i < setups; ++i)
        setup_times.push_back(setUp(*spec, inputs, pack, socket, threads,
                                    prepared, tracer, setup_span));
    tracer.end(setup_span);
    const uint64_t pack_bytes = std::filesystem::file_size(pack);
    const TargetLengths targets = targetLengths(prepared.reference);
    core::ShardedBatchConfig single;
    single.threads = 1;
    const core::ShardedBatchMapper mapper_1t(prepared.reference, config,
                                             single);
    const std::vector<io::FastxRecord> reads = readAll(inputs.readsPath);
    const auto setup_median = [&](double SetupTimes::*field) {
        std::vector<double> v;
        for (const SetupTimes &t : setup_times)
            v.push_back(t.*field);
        return median(v);
    };
    std::vector<double> setup_totals;
    for (const SetupTimes &t : setup_times)
        setup_totals.push_back(setupSeconds(*spec, t));

    const double window_start_mb = startPeakRssWindow();
    std::fprintf(stderr,
                 "[bench] peak-RSS window starts at %.1f MiB resident "
                 "(pack file %.1f MiB%s)\n",
                 window_start_mb, static_cast<double>(pack_bytes) / 1048576.0,
                 spec->serve ? ", mapped by the offline mapper and the daemon"
                             : "");
    Metrics metrics;
    Metrics workload_metrics;
    uint64_t attempted = 0;
    uint64_t failed = 0;

    // ---- offline: FASTX -> mapBatch -> PAF, T threads then 1 thread ----
    const std::string paf_nt =
        dir + "/map.t" + std::to_string(threads) + ".paf";
    const std::string paf_1t = dir + "/map.t1.paf";
    const std::string paf_tmp = dir + "/map.repeat.paf";
    Tracer off(false);
    uint64_t offline_reads = 0;
    uint64_t offline_answered = 0;
    const auto timed_passes = [&](const core::ShardedBatchMapper &mapper,
                                  const std::string &paf, double budget,
                                  int min_passes) {
        std::vector<PassResult> passes;
        const auto start = Clock::now();
        while (passes.empty() ||
               static_cast<int>(passes.size()) < min_passes ||
               secondsSince(start) < budget) {
            passes.push_back(runOfflinePass(mapper, targets, inputs.readsPath,
                                            passes.empty() ? paf : paf_tmp,
                                            off, -1));
            const PassResult &pass = passes.back();
            // Every read has a result (mapped or unmapped); one
            // without is a failed read.
            offline_reads += pass.reads;
            offline_answered += pass.outcomes.size();
            attempted += pass.reads;
            failed += pass.reads - pass.outcomes.size();
            if (passes.size() > 1)
                gate(readWholeFile(paf_tmp) == readWholeFile(paf),
                     "PAF differs between two passes at the same thread "
                     "count");
        }
        return passes;
    };
    // The first pass after set-up warms the page cache and the pack's
    // pages; when there are later passes, it is not timed.
    const auto rates = [](const std::vector<PassResult> &passes) {
        std::vector<double> v;
        for (size_t i = passes.size() > 1 ? 1 : 0; i < passes.size(); ++i)
            v.push_back(static_cast<double>(passes[i].reads) /
                        passes[i].wallSec);
        return v;
    };

    const double budget = args.smoke ? 0.0 : args.seconds;
    const std::vector<PassResult> nt_passes =
        timed_passes(*prepared.mapper, paf_nt, traced ? 0.0 : 0.25 * budget,
                     args.smoke ? 1 : traced ? 2 : 4);
    const std::vector<PassResult> t1_passes =
        timed_passes(mapper_1t, paf_1t, traced ? 0.0 : 0.35 * budget,
                     traced || args.smoke ? 1 : 2);
    const std::string offline_paf = readWholeFile(paf_nt);
    gate(offline_paf == readWholeFile(paf_1t),
         "PAF at " + std::to_string(threads) +
             " threads differs from PAF at 1 thread");
    const double reads_per_s = median(rates(nt_passes));
    const double reads_per_s_1t = median(rates(t1_passes));

    const PassResult &reference_pass = nt_passes.back();
    gate(sameCounters(reference_pass.stats, t1_passes.front().stats),
         "pipeline counters differ between thread counts");
    std::fprintf(stderr,
                 "[bench] offline: %zu+%zu passes of %llu reads, %.1f "
                 "reads/s at %d threads, %.1f at 1 thread\n",
                 nt_passes.size(), t1_passes.size(),
                 static_cast<unsigned long long>(reference_pass.reads),
                 reads_per_s, threads, reads_per_s_1t);

    // ---- serve workload: the daemon's warm-up, the open loop at the
    //      reference rate and, untraced, the capacity walk ----
    ServeCorpus corpus;
    std::optional<ServeLegs> serve;
    if (spec->serve) {
        corpus = buildCorpus(reads, offline_paf, spec->serve->requestReads);
        // At most nproc connections, as many as mapper threads.
        serve = runServeLegs(*spec->serve, socket, corpus, threads, args.seed,
                             !traced, args.smoke, tracer);
        attempted += serve->sent;
        failed += serve->sent - serve->answered;
    }
    // Reads answered over reads submitted, on the path the workload
    // ships: daemon replies when it serves, mapBatch results otherwise.
    const double answered_frac =
        serve ? ratio(static_cast<double>(serve->answered),
                      static_cast<double>(serve->sent))
              : ratio(static_cast<double>(offline_answered),
                      static_cast<double>(offline_reads));

    if (!traced) {
        // Accuracy against the planted truth.
        const eval::AccuracyEvaluator evaluator(
            eval::readTruthFile(inputs.truthPath));
        const eval::AccuracyReport accuracy =
            evaluator.evaluate("segram", io::readPafFile(paf_nt));
        metrics.add("reads_per_s", reads_per_s, "reads/s");
        metrics.add("reads_per_s_1t", reads_per_s_1t, "reads/s");
        metrics.add("setup_s", median(setup_totals), "s");
        metrics.add("peak_rss_mb", readRss().peak, "MiB");
        metrics.add("sensitivity", accuracy.overall.sensitivity(), "fraction");
        metrics.add("precision", accuracy.overall.precision(), "fraction");
        metrics.add("answered_frac", answered_frac, "fraction");
        if (serve) {
            const std::vector<double> latency = serve->reference.latenciesMs();
            workload_metrics.add("latency_p50_ms", percentile(latency, 0.50),
                                 "ms");
            workload_metrics.add("latency_p99_ms",
                                 segmentedP99(latency, kLatencySegments),
                                 "ms");
            workload_metrics.add("capacity_reads_per_s", serve->capacity,
                                 "reads/s");
        }
    } else {
        // ---- traced run: the same offline pass with spans, checked
        //      against the untraced one, then the layer replay ----
        // Traced and untraced passes alternate, so the tracing overhead
        // compares medians taken over the same stretch of time.
        const std::string paf_traced = dir + "/map.traced.paf";
        std::vector<double> traced_walls;
        std::vector<double> untraced_walls;
        PassResult traced_pass;
        for (int i = 0; i < 3; ++i) {
            untraced_walls.push_back(
                runOfflinePass(*prepared.mapper, targets, inputs.readsPath,
                               paf_tmp, off, -1)
                    .wallSec);
            const int64_t pass_span = tracer.begin("offline.pass", -1, i);
            traced_pass = runOfflinePass(*prepared.mapper, targets,
                                         inputs.readsPath, paf_traced, tracer,
                                         pass_span);
            tracer.end(pass_span, traced_pass.reads);
            traced_walls.push_back(traced_pass.wallSec);
            attempted += 2 * traced_pass.reads;
            gate(readWholeFile(paf_traced) == offline_paf &&
                     readWholeFile(paf_tmp) == offline_paf,
                 "traced PAF differs from the untraced PAF");
            gate(sameCounters(traced_pass.stats, reference_pass.stats),
                 "traced pipeline counters differ from the untraced run");
        }

        std::vector<std::string> seqs;
        for (const io::FastxRecord &r : reads)
            seqs.push_back(r.seq);
        const int64_t replay_span = tracer.begin("replay");
        const ReplayResult replay =
            replayLayers(prepared.reference, config, seqs, tracer, replay_span);
        tracer.end(replay_span, replay.reads);
        gate(replay.regionsAligned == reference_pass.stats.regionsAligned,
             "replay aligned " + std::to_string(replay.regionsAligned) +
                 " regions, the mapper " +
                 std::to_string(reference_pass.stats.regionsAligned));
        gate(replay.alignmentsFound == reference_pass.stats.alignmentsFound,
             "replay found a different number of alignments");
        gate(replay.outcomes == reference_pass.outcomes,
             "replay outcomes differ from the mapper's");

        const core::PipelineStats &s = reference_pass.stats;
        const double n_reads = static_cast<double>(s.readsTotal);
        const uint64_t windows = s.batchedWindows + s.scalarWindows;
        metrics.add("index.build_s", setup_median(&SetupTimes::build), "s");
        metrics.add("io.pack.save_s", setup_median(&SetupTimes::save), "s");
        metrics.add("io.pack.load_s", setup_median(&SetupTimes::load), "s");
        metrics.add("io.pack.bytes", static_cast<double>(pack_bytes), "bytes");
        metrics.add("core.mapper_init_s", setup_median(&SetupTimes::mapperInit),
                    "s");
        metrics.add("io.fastx.ns_per_base",
                    ratio(traced_pass.fastxSec * 1e9,
                          static_cast<double>(traced_pass.bases)),
                    "ns/base");
        metrics.add("io.paf.ns_per_record",
                    ratio(traced_pass.pafSec * 1e9,
                          static_cast<double>(traced_pass.records)),
                    "ns/record");
        metrics.add("seed.ns_per_base",
                    ratio(replay.seedSec * 1e9,
                          static_cast<double>(replay.seededBases)),
                    "ns/base");
        metrics.add("seed.regions_per_read",
                    ratio(static_cast<double>(replay.regionsEmitted), n_reads),
                    "regions");
        metrics.add("graph.linearize.us_per_region",
                    ratio(replay.linearizeSec * 1e6,
                          static_cast<double>(replay.regionsAligned)),
                    "us");
        metrics.add("graph.linearize.ns_per_char",
                    ratio(replay.linearizeSec * 1e9,
                          static_cast<double>(replay.linearizedChars)),
                    "ns/char");
        metrics.add("align.us_per_region",
                    ratio(replay.alignSec * 1e6,
                          static_cast<double>(replay.regionsAligned)),
                    "us");
        metrics.add("align.ns_per_window",
                    ratio(replay.alignSec * 1e9,
                          static_cast<double>(replay.windows)),
                    "ns");
        // The seed / linearize / align split two ways: the replay's
        // per-call timers, and the mapper's own stage timers on the
        // 1-thread pass (what `segram map --stats` prints).
        const double replay_total =
            replay.seedSec + replay.linearizeSec + replay.alignSec;
        const core::StageTimings &st = t1_passes.front().stats.timings;
        const double stage_total =
            st.seedingSec + st.linearizeSec + st.alignSec;
        std::fprintf(stderr,
                     "[bench] split seed/linearize/align: replay "
                     "%.1f/%.1f/%.1f%%, mapper stage timers at 1 thread "
                     "%.1f/%.1f/%.1f%%\n",
                     100 * ratio(replay.seedSec, replay_total),
                     100 * ratio(replay.linearizeSec, replay_total),
                     100 * ratio(replay.alignSec, replay_total),
                     100 * ratio(st.seedingSec, stage_total),
                     100 * ratio(st.linearizeSec, stage_total),
                     100 * ratio(st.alignSec, stage_total));
        metrics.add("core.regions_per_read",
                    ratio(static_cast<double>(s.regionsAligned), n_reads),
                    "regions");
        metrics.add("core.seeds_per_read",
                    ratio(static_cast<double>(s.seeding.seedsFetched), n_reads),
                    "seeds");
        metrics.add("core.windows_per_read",
                    ratio(static_cast<double>(windows), n_reads), "windows");
        metrics.add("core.lane_occupancy",
                    ratio(static_cast<double>(s.batchedWindows),
                          static_cast<double>(s.batchLaunches)),
                    "windows/launch");
        metrics.add("core.useful_region_frac",
                    ratio(static_cast<double>(s.readsMapped),
                          static_cast<double>(s.regionsAligned)),
                    "fraction");
        metrics.add("core.map_batch.p50_ms",
                    percentile(traced_pass.batchMs, 0.50), "ms");
        metrics.add("core.map_batch.p99_ms",
                    percentile(traced_pass.batchMs, 0.99), "ms");
        metrics.add("core.driver_overhead_frac",
                    ratio(traced_pass.wallSec - traced_pass.mapSec -
                              traced_pass.fastxSec - traced_pass.pafSec,
                          traced_pass.wallSec),
                    "fraction");
        metrics.add("core.scaling_eff",
                    ratio(reads_per_s, threads * reads_per_s_1t), "fraction");
        metrics.add("trace.overhead_frac",
                    ratio(median(traced_walls), median(untraced_walls)) - 1.0,
                    "fraction");

        if (serve) {
            // Direct service calls on the request batches (no socket).
            std::vector<double> service_ms(corpus.batches.size());
            for (size_t b = 0; b < corpus.batches.size(); ++b) {
                const auto t0 = Clock::now();
                const int64_t span = tracer.begin(
                    "serve.service_map", -1, static_cast<int64_t>(b));
                const serve::Reply reply =
                    prepared.service->map(corpus.batches[b]);
                tracer.end(span, corpus.batches[b].size());
                service_ms[b] = secondsSince(t0) * 1e3;
                gate(reply.ok && reply.payload == corpus.expectedPaf[b],
                     "direct MappingService::map differs from the offline "
                     "PAF");
            }
            std::vector<double> rtt;
            std::vector<double> late;
            std::vector<double> overhead;
            for (const RequestLog &r : serve->reference.requests) {
                const double ms = (r.replySec - r.sendSec) * 1e3;
                rtt.push_back(ms);
                late.push_back((r.sendSec - r.dueSec) * 1e3);
                overhead.push_back(ms - service_ms[r.batch]);
            }
            workload_metrics.add("serve.rtt_p50_ms", percentile(rtt, 0.50),
                                 "ms");
            workload_metrics.add("serve.rtt_p99_ms", percentile(rtt, 0.99),
                                 "ms");
            workload_metrics.add("serve.send_late_p99_ms",
                                 percentile(late, 0.99), "ms");
            workload_metrics.add("serve.service_map_p50_ms",
                                 percentile(service_ms, 0.50), "ms");
            workload_metrics.add("serve.overhead_p50_ms",
                                 percentile(overhead, 0.50), "ms");
            workload_metrics.add(
                "serve.busy_replies",
                static_cast<double>(serve->reference.busyReplies()), "count");
        }

        const std::string trace_path =
            args.traceOut.empty() ? dir + "/trace.json" : args.traceOut;
        if (!std::filesystem::path(trace_path).parent_path().empty())
            std::filesystem::create_directories(
                std::filesystem::path(trace_path).parent_path());
        gate(tracer.writeChromeJson(trace_path),
             "cannot write the trace to " + trace_path);
        std::fprintf(stderr, "[bench] %zu spans written to %s\n",
                     tracer.size(), trace_path.c_str());
    }

    if (!workload_metrics.empty())
        std::printf("{\"workload_metrics\": %s}\n",
                    workload_metrics.json().c_str());
    std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                metrics.json().c_str());
    std::fflush(stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    try {
        return run(args);
    } catch (const GateFailure &failure) {
        std::fprintf(stderr, "[bench] CORRECTNESS GATE FAILED: %s\n",
                     failure.what.c_str());
        return 1;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "[bench] error: %s\n", error.what());
        return 1;
    }
}
