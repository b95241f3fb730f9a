/**
 * @file
 * The untraced timed run: repeated cells (or sweeps) for `seconds`,
 * with every repetition's outputs checked and digested.
 */

#include <sys/resource.h>

#include <cmath>
#include <mutex>
#include <thread>

#include "common/logging.hh"
#include "runner/sweep_runner.hh"
#include "simbench.hh"
#include "sys/report.hh"
#include "trace/mtrace.hh"

namespace simbench {

using namespace tdc;

namespace {

/** A cell workload needs at least this many repetitions per run. */
constexpr unsigned minReps = 3;

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

/** Host seconds to open and validate the trace, as System construction
 *  does on a trace's first use in a process (later constructions in
 *  this process reuse the cached reader, so it is timed on its own). */
double
traceOpenSeconds(const std::string &path)
{
    const auto t0 = Clock::now();
    mtrace::MtraceReader reader(path);
    return secondsSince(t0);
}

json::Value
strings(const std::vector<std::string> &xs)
{
    json::Value a = json::Value::array();
    for (const std::string &x : xs)
        a.push(x);
    return a;
}

/** Results of the cell repetitions, merged across replica threads. */
struct CellReps
{
    std::mutex mu;
    std::vector<double> setup_s, kips;
    std::vector<std::string> failures;
    unsigned attempted = 0, failed = 0;
    std::uint64_t firstDigest = 0, firstResultDigest = 0;
    RunResult first;

    void
    add(CellOutput out, double setup, double run_s)
    {
        const std::lock_guard<std::mutex> lock(mu);
        ++attempted;
        if (attempted == 1) {
            firstDigest = out.digest;
            firstResultDigest = out.resultDigest;
            first = out.result;
        } else if (out.digest != firstDigest) {
            out.failures.push_back(format(
                "repetition {} digest {} differs from the first {}",
                attempted, ckpt::hex16(out.digest),
                ckpt::hex16(firstDigest)));
        }
        if (!out.failures.empty()) {
            fail(std::move(out.failures));
            return;
        }
        setup_s.push_back(setup);
        kips.push_back(static_cast<double>(out.retiredInsts) / run_s
                       / 1000.0);
    }

    void
    fail(std::vector<std::string> why)
    {
        ++failed;
        for (auto &f : why)
            failures.push_back(std::move(f));
    }
};

/**
 * One cell workload: System construction, warmup() and measure(),
 * repeated for `seconds` by one replica per hardware thread, the way a
 * sweep runs cells side by side. The host's speed drifts by tens of
 * percent over tens of seconds, unevenly across its cores; sampling
 * every core at once cut the run-to-run spread of the median kips
 * from 0.17 to 0.10 against one replica (README.md).
 */
json::Value
runCellReps(const Workload &w, const std::string &path, double seconds)
{
    const TraceShape shape = readTraceShape(path);
    const SystemConfig cfg = cellConfig(w, w.org, path);
    CellReps reps;

    const auto start = Clock::now();
    const auto replica = [&] {
        for (unsigned mine = 0;
             mine < minReps || secondsSince(start) < seconds; ++mine) {
            try {
                ScopedFatalCapture capture;
                const double open_s = traceOpenSeconds(path);
                const auto t0 = Clock::now();
                System sys(cfg);
                const double ctor_s = secondsSince(t0);

                const auto t1 = Clock::now();
                sys.warmup();
                std::uint64_t warm_retired = 0;
                for (unsigned i = 0; i < sys.activeCores(); ++i)
                    warm_retired += sys.core(i).instsRetired();
                const RunResult r = sys.measure();
                const double run_s = secondsSince(t1);

                reps.add(checkCell(sys, r, warm_retired, shape.records,
                                   shape.maxRecordInsts),
                         open_s + ctor_s, run_s);
            } catch (const std::exception &e) {
                const std::lock_guard<std::mutex> lock(reps.mu);
                ++reps.attempted;
                reps.fail({e.what()});
            }
        }
    };
    {
        std::vector<std::jthread> replicas;
        for (unsigned i = 0; i < hostThreads(); ++i)
            replicas.emplace_back(replica);
    }

    // Straight-vs-restored checkpoint identity (reach-mcf only: it is
    // the workload whose warm state the paper's mechanism lives in).
    if (w.name == "reach-mcf" && reps.failed == 0) {
        ++reps.attempted;
        try {
            ScopedFatalCapture capture;
            System straight(cfg);
            straight.warmup();
            const ckpt::Checkpoint ck = straight.makeCheckpoint();
            System restored(cfg);
            restored.restoreCheckpoint(ck);
            json::Value doc = json::Value::object();
            doc.set("result", toJson(restored.measure()));
            if (digest(doc) != reps.firstResultDigest)
                reps.fail({"restored-checkpoint RunResult differs from "
                           "the straight run"});
        } catch (const std::exception &e) {
            reps.fail({e.what()});
        }
    }

    json::Value out = json::Value::object();
    out.set("attempted", reps.attempted);
    out.set("failed", reps.failed);
    out.set("failures", strings(reps.failures));
    out.set("setup_s", numbers(reps.setup_s));
    out.set("kips", numbers(reps.kips));
    out.set("sim_ipc", reps.first.sumIpc);
    out.set("sim_l3_lat_cyc", reps.first.avgL3LatencyCycles);
    out.set("digest", ckpt::hex16(reps.firstDigest));
    out.set("peak_rss_mb", peakRssMb());
    return out;
}

double
geomean(const std::vector<double> &xs)
{
    double s = 0.0;
    for (double x : xs)
        s += std::log(x);
    return xs.empty() ? 0.0 : std::exp(s / static_cast<double>(xs.size()));
}

/** orgs-mix5: all organizations as one SweepRunner sweep per rep. */
json::Value
runSweepReps(const Workload &w, const std::string &path, double seconds)
{
    const TraceShape shape = readTraceShape(path);
    const unsigned cores = static_cast<unsigned>(w.profiles.size());
    const std::uint64_t want = cores * w.measureInsts;
    const std::uint64_t slack = cores * (shape.maxRecordInsts - 1);

    const runner::SweepManifest m = sweepManifest(w, path);
    const runner::SweepRunner sweep = sweepRunner();

    // Set-up: one construction per organization; the median of three
    // rounds per organization, summed.
    std::vector<double> setup_s;
    std::vector<std::string> failures;
    unsigned attempted = 0, failed = 0;
    constexpr unsigned setupRounds = 3;
    double setup_sum = 0.0;
    try {
        ScopedFatalCapture capture;
        for (const runner::JobSpec &j : m.jobs) {
            std::vector<double> rounds;
            for (unsigned i = 0; i < setupRounds; ++i) {
                const double open_s = traceOpenSeconds(path);
                const auto t0 = Clock::now();
                System sys(j.toSystemConfig());
                rounds.push_back(open_s + secondsSince(t0));
            }
            setup_sum += median(std::move(rounds));
        }
        setup_s.push_back(setup_sum);
    } catch (const std::exception &e) {
        ++attempted;
        ++failed;
        failures.push_back(e.what());
    }

    std::vector<double> kips;
    std::vector<std::uint64_t> first_digests;
    std::vector<double> ipc, lat;
    const auto start = Clock::now();
    unsigned sweeps = 0;
    while (failed == 0
           && (sweeps < minReps || secondsSince(start) < seconds)) {
        ++sweeps;
        const auto t0 = Clock::now();
        const std::vector<runner::JobResult> res = sweep.run(m);
        const double wall = secondsSince(t0);
        double insts = 0.0;
        for (std::size_t i = 0; i < res.size(); ++i) {
            const runner::JobResult &jr = res[i];
            ++attempted;
            std::vector<std::string> why;
            if (!jr.ok()) {
                why.push_back(jr.label + ": " + jr.error);
            } else {
                const RunResult &r = jr.result;
                if (r.totalInsts + slack < want
                    || r.totalInsts > want + slack)
                    why.push_back(format("{}: totalInsts {} not within "
                                         "{} of {}",
                                         jr.label, r.totalInsts, slack,
                                         want));
                // The result carries the hit rate, not the counts:
                // hits must be a whole number of accesses.
                const double hits = r.l3HitRate * r.l3Accesses;
                if (std::fabs(hits - std::round(hits)) > 1e-6 * (hits + 1)
                    || hits > static_cast<double>(r.l3Accesses))
                    why.push_back(jr.label
                                  + ": L3 hit/miss split is not whole");
                json::Value doc = json::Value::object();
                doc.set("report", jr.report);
                const std::uint64_t d = digest(doc);
                if (sweeps == 1) {
                    first_digests.push_back(d);
                    ipc.push_back(r.sumIpc);
                    lat.push_back(r.avgL3LatencyCycles);
                } else if (first_digests.size() <= i
                           || d != first_digests[i]) {
                    why.push_back(jr.label
                                  + ": digest differs from first sweep");
                }
                insts += static_cast<double>(
                    r.totalInsts + cores * w.warmupInsts);
            }
            if (!why.empty()) {
                ++failed;
                for (auto &f : why)
                    failures.push_back(std::move(f));
            }
        }
        if (failed == 0)
            kips.push_back(insts / wall / 1000.0);
    }

    json::Value out = json::Value::object();
    out.set("attempted", attempted);
    out.set("failed", failed);
    out.set("failures", strings(failures));
    out.set("setup_s", numbers(setup_s));
    out.set("kips", numbers(kips));
    out.set("sim_ipc", geomean(ipc));
    out.set("sim_l3_lat_cyc", geomean(lat));
    out.set("peak_rss_mb", peakRssMb());
    return out;
}

} // namespace

json::Value
runCells(const Workload &w, const std::string &path, double seconds)
{
    return w.allOrgs ? runSweepReps(w, path, seconds)
                     : runCellReps(w, path, seconds);
}

} // namespace simbench
