#include "perfbench/src/offline.h"

#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "src/io/fastx.h"
#include "src/io/paf.h"

namespace perfbench
{

using namespace segram;

TargetLengths
targetLengths(const core::PreprocessedReference &ref)
{
    TargetLengths targets;
    for (const auto &chromosome : ref.chromosomes())
        targets[chromosome.name] = chromosome.graph.totalSeqLen();
    return targets;
}

PassResult
runOfflinePass(const core::ShardedBatchMapper &mapper,
               const TargetLengths &targets, const std::string &reads_path,
               const std::string &paf_path, Tracer &tracer, int64_t parent)
{
    PassResult pass;
    const auto start = Clock::now();
    std::ofstream out(paf_path, std::ios::binary);
    if (!out)
        throw std::runtime_error("cannot write " + paf_path);
    io::FastxReader reader(reads_path);
    io::PafWriter paf(out);
    std::vector<io::FastxRecord> batch;
    std::vector<std::string_view> seqs;
    for (int64_t batch_id = 0;; ++batch_id) {
        batch.clear();
        auto t0 = Clock::now();
        int64_t span = tracer.begin("io.fastx.next_batch", parent, batch_id);
        const size_t n = reader.nextBatch(batch, kMapBatch);
        uint64_t batch_bases = 0;
        for (const auto &record : batch)
            batch_bases += record.seq.size();
        tracer.end(span, batch_bases);
        auto t1 = Clock::now();
        pass.fastxSec += secondsBetween(t0, t1);
        if (n == 0)
            break;
        pass.bases += batch_bases;

        seqs.clear();
        for (const auto &record : batch)
            seqs.push_back(record.seq);
        span = tracer.begin("core.map_batch", parent, batch_id);
        const auto results = mapper.mapBatch(
            std::span<const std::string_view>(seqs), &pass.stats);
        tracer.end(span, n);
        auto t2 = Clock::now();
        pass.mapSec += secondsBetween(t1, t2);
        pass.batchMs.push_back(secondsBetween(t1, t2) * 1e3);

        span = tracer.begin("io.paf.write", parent, batch_id);
        uint64_t written = 0;
        for (size_t i = 0; i < results.size(); ++i) {
            const auto &result = results[i];
            pass.outcomes.push_back({result.mapped, result.editDistance,
                                     result.linearStart,
                                     result.reverseComplemented,
                                     result.chromosome});
            if (!result.mapped)
                continue;
            paf.write(io::makePafRecord(
                batch[i].name, batch[i].seq.size(),
                result.reverseComplemented ? '-' : '+', result.chromosome,
                targets.at(result.chromosome), result.linearStart,
                result.cigar));
            ++written;
        }
        tracer.end(span, written);
        pass.pafSec += secondsSince(t2);
        pass.records += written;
        pass.reads += n;
    }
    const auto t3 = Clock::now();
    const int64_t span = tracer.begin("io.paf.flush", parent);
    paf.flush();
    out.close();
    tracer.end(span);
    if (!out)
        throw std::runtime_error("failed writing " + paf_path);
    pass.pafSec += secondsSince(t3);
    pass.wallSec = secondsSince(start);
    return pass;
}

std::string
readWholeFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

} // namespace perfbench
