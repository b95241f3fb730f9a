/**
 * @file
 * Workload table, seeded input generation and the shared cell checks.
 */

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "ckpt/checkpoint.hh"
#include "simbench.hh"
#include "sys/report.hh"
#include "trace/mtrace.hh"
#include "trace/synthetic.hh"
#include "trace/workloads.hh"

namespace simbench {

using namespace tdc;

const Workload &
findWorkload(const std::string &name)
{
    // Why each workload is here (README.md): reach-mcf is TLB-bound
    // with nearly every miss a victim hit; stream-libquantum has few
    // TLB misses; thrash-lbm fills and writes back pages; orgs-mix5 is
    // the only sweep, 4-core mix and non-tagless coverage.
    static const std::vector<Workload> table = {
        {"reach-mcf", OrgKind::Tagless, false, 1ULL << 30, {"mcf"},
         2'000'000, 10'000'000},
        {"stream-libquantum", OrgKind::Tagless, false, 1ULL << 30,
         {"libquantum"}, 2'000'000, 10'000'000},
        {"thrash-lbm", OrgKind::Tagless, false, 16ULL << 20, {"lbm"},
         2'000'000, 10'000'000},
        {"orgs-mix5", OrgKind::Tagless, true, 1ULL << 30,
         {"mcf", "soplex", "GemsFDTD", "lbm"}, 2'000'000, 10'000'000},
    };
    for (const Workload &w : table)
        if (w.name == name)
            return w;
    throw std::invalid_argument("unknown workload '" + name + "'");
}

std::uint64_t
streamSeed(std::uint64_t seed, unsigned stream)
{
    // splitmix64 of (seed, stream): distinct, well-mixed per stream.
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

SystemConfig
cellConfig(const Workload &w, OrgKind org, const std::string &trace_path)
{
    SystemConfig cfg;
    cfg.org = org;
    cfg.l3SizeBytes = w.l3Bytes;
    cfg.workloads = {"trace:" + trace_path};
    cfg.warmupInsts = w.warmupInsts;
    cfg.instsPerCore = w.measureInsts;
    // A plain run: the auditor stays off even if TDC_AUDIT is set.
    cfg.raw.set("check.audit", false);
    return cfg;
}

runner::SweepManifest
sweepManifest(const Workload &w, const std::string &trace_path)
{
    runner::SweepManifest m;
    m.name = w.name;
    for (OrgKind k : allOrgKinds()) {
        const SystemConfig cfg = cellConfig(w, k, trace_path);
        runner::JobSpec j;
        j.label = std::string(cliName(k));
        j.org = k;
        j.workloads = cfg.workloads;
        j.l3SizeBytes = cfg.l3SizeBytes;
        j.instsPerCore = cfg.instsPerCore;
        j.warmupInsts = cfg.warmupInsts;
        j.raw = cfg.raw;
        m.jobs.push_back(std::move(j));
    }
    return m;
}

runner::SweepRunner
sweepRunner()
{
    runner::SweepOptions opt;
    opt.progress = false;
    opt.retryOnFailure = false;
    opt.jobs = std::min<unsigned>(
        static_cast<unsigned>(allOrgKinds().size()), hostThreads());
    return runner::SweepRunner(opt);
}

unsigned
hostThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

json::Value
numbers(const std::vector<double> &xs)
{
    json::Value a = json::Value::array();
    for (double x : xs)
        a.push(x);
    return a;
}

HostClock::HostClock()
{
    const auto c0 = Clock::now();
    const std::uint64_t r0 = read();
    while (secondsSince(c0) < 0.05) {
    }
    const std::uint64_t r1 = read();
    nsPerTick = secondsSince(c0) * 1e9 / static_cast<double>(r1 - r0);

    constexpr int reads = 20000;
    std::vector<double> trials;
    for (int t = 0; t < 15; ++t) {
        const std::uint64_t t0 = read();
        std::uint64_t last = t0;
        for (int i = 0; i < reads; ++i)
            last = read();
        trials.push_back(static_cast<double>(last - t0) * nsPerTick
                         / reads);
    }
    readNs = median(std::move(trials));
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

std::uint64_t
digest(const json::Value &v)
{
    return ckpt::fnv1a(v.dump(0));
}

json::Value
generateInputs(const Workload &w, std::uint64_t seed,
               const std::string &path)
{
    const unsigned cores = static_cast<unsigned>(w.profiles.size());
    const std::uint64_t budget = w.warmupInsts + w.measureInsts;
    const HostClock clock;

    mtrace::MtraceWriter writer(
        path, cores, /*shared_page_table=*/false,
        format("simbench:{}:seed={}", w.name, seed));

    json::Value streams = json::Value::array();
    double gen_ns = 0.0;
    std::uint64_t gen_records = 0;
    std::uint64_t max_record = 0;
    constexpr std::size_t batch = 64;
    std::vector<TraceRecord> buf(batch);
    for (unsigned s = 0; s < cores; ++s) {
        SyntheticParams p = getWorkload(w.profiles[s]).base;
        p.seed = streamSeed(seed, s);
        SyntheticTraceGen gen(p);

        std::uint64_t insts = 0;
        std::uint64_t records = 0; //!< records inside the budget
        // Batches of `batch` next() calls are timed as one span; one
        // clock read per batch is subtracted. Records of the last
        // batch past the budget start the pad.
        while (insts < budget) {
            const std::uint64_t t0 = HostClock::read();
            for (TraceRecord &r : buf)
                r = gen.next();
            gen_ns += clock.callNs(t0, HostClock::read());
            gen_records += batch;
            for (const TraceRecord &r : buf) {
                writer.append(s, r);
                if (insts >= budget)
                    continue;
                insts += std::uint64_t{r.nonMemInsts} + 1;
                max_record =
                    std::max<std::uint64_t>(max_record, r.nonMemInsts + 1);
                ++records;
            }
        }
        while (writer.recordsWritten(s) < records + padRecords)
            writer.append(s, gen.next());

        json::Value st = json::Value::object();
        st.set("profile", w.profiles[s]);
        st.set("seed", p.seed);
        st.set("budget_records", records);
        st.set("records", writer.recordsWritten(s));
        streams.push(std::move(st));
    }
    writer.close();

    // Verify before use: full decode, block index, checksums.
    mtrace::MtraceReader reader(path);
    reader.verifyAll();
    if (reader.coreCount() != cores)
        throw std::runtime_error("trace core count mismatch");
    for (unsigned s = 0; s < cores; ++s)
        if (reader.records(s) != writer.recordsWritten(s))
            throw std::runtime_error("trace record count mismatch");

    json::Value out = json::Value::object();
    out.set("path", path);
    out.set("streams", std::move(streams));
    out.set("max_record_insts", max_record);
    out.set("gen_ns_per_record", gen_ns / static_cast<double>(gen_records));
    out.set("content_hash", ckpt::hex16(mtrace::traceContentHash(path)));
    out.set("bytes", reader.fileBytes());
    return out;
}

TraceShape
readTraceShape(const std::string &path)
{
    mtrace::MtraceReader reader(path);
    TraceShape shape;
    for (unsigned s = 0; s < reader.coreCount(); ++s) {
        const std::uint64_t n = reader.records(s);
        shape.records.push_back(n);
        mtrace::MtraceCursor cur(reader, s);
        for (std::uint64_t i = 0; i < n; ++i)
            shape.maxRecordInsts = std::max<std::uint64_t>(
                shape.maxRecordInsts, cur.next().nonMemInsts + 1);
    }
    return shape;
}

CellOutput
checkCell(System &sys, const RunResult &r,
          std::uint64_t warm_retired,
          const std::vector<std::uint64_t> &records,
          std::uint64_t max_record_insts)
{
    CellOutput out;
    out.result = r;
    const SystemConfig &cfg = sys.config();
    const unsigned cores = sys.activeCores();

    for (unsigned i = 0; i < cores; ++i)
        out.retiredInsts += sys.core(i).instsRetired();

    // Measured instructions: the budget, up to one record's overshoot
    // per core at the end of each leg (warmup overshoot shrinks the
    // measured leg, measure overshoot grows it).
    const std::uint64_t want = cores * cfg.instsPerCore;
    const std::uint64_t slack = cores * (max_record_insts - 1);
    if (r.totalInsts + slack < want || r.totalInsts > want + slack)
        out.failures.push_back(format(
            "totalInsts {} not within {} of {} cores x {}", r.totalInsts,
            slack, cores, cfg.instsPerCore));
    if (out.retiredInsts - warm_retired != r.totalInsts)
        out.failures.push_back(format(
            "retired delta {} != totalInsts {}",
            out.retiredInsts - warm_retired, r.totalInsts));

    const DramCacheOrg &org = sys.org();
    if (org.l3Hits() + org.l3Misses() != org.l3Accesses())
        out.failures.push_back(format(
            "L3 hits {} + misses {} != accesses {}", org.l3Hits(),
            org.l3Misses(), org.l3Accesses()));

    for (unsigned i = 0; i < cores && i < records.size(); ++i)
        if (sys.core(i).memRefs() > records[i])
            out.failures.push_back(format(
                "core{} consumed {} records of {}: replay wrapped", i,
                sys.core(i).memRefs(), records[i]));

    json::Value doc = json::Value::object();
    doc.set("result", toJson(r));
    out.resultDigest = digest(doc);
    doc.set("stats", sys.statsJson());
    out.digest = digest(doc);
    return out;
}

} // namespace simbench
