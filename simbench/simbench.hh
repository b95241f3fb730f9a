/**
 * @file
 * Shared declarations of the simbench host-performance benchmark.
 *
 * simbench drives the simulator only through its public API. Each
 * workload is one tdc-mtrace-v1 trace generated from synthetic
 * profiles with a caller-chosen seed; the simulator sees only the
 * `trace:<path>` workload name. Three subcommands share this header:
 *
 *   gen     writes and verifies the workload's input trace;
 *   run     the untraced, timed cells (end-to-end metrics);
 *   layers  the traced run: an untraced reference cell plus a replay
 *           of the same records through stand-alone layer instances
 *           with every layer call timed (per-layer metrics).
 *
 * Every subcommand prints one JSON object on stdout; run.py turns the
 * raw numbers into metrics.
 */

#ifndef SIMBENCH_SIMBENCH_HH
#define SIMBENCH_SIMBENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "common/json.hh"
#include "dramcache/org_factory.hh"
#include "runner/sweep_runner.hh"
#include "sys/system.hh"

namespace simbench {

/** One named benchmark workload. */
struct Workload
{
    std::string name;
    /** The cell's organization; orgs-mix5 sweeps all eight and uses
     *  this one for its reference cell and layer replay. */
    tdc::OrgKind org = tdc::OrgKind::Tagless;
    bool allOrgs = false;
    std::uint64_t l3Bytes = 1ULL << 30;
    /** Synthetic profile per stream (one stream per core). */
    std::vector<std::string> profiles;
    std::uint64_t warmupInsts = 0;  //!< per core
    std::uint64_t measureInsts = 0; //!< per core
};

/** Looks a workload up by name; throws std::invalid_argument. */
const Workload &findWorkload(const std::string &name);

/** Records appended past the budget so replay never wraps. */
inline constexpr std::uint64_t padRecords = 4096;

/** The SyntheticParams seed of stream `stream` under `seed`. */
std::uint64_t streamSeed(std::uint64_t seed, unsigned stream);

/** SystemConfig of the workload's cell for one organization. */
tdc::SystemConfig cellConfig(const Workload &w, tdc::OrgKind org,
                             const std::string &trace_path);

/** The all-organizations sweep of an `allOrgs` workload: one job per
 *  organization, labelled with its CLI name. */
tdc::runner::SweepManifest sweepManifest(const Workload &w,
                                         const std::string &trace_path);

/** min(8, hardware threads) workers, no progress lines, and no retry,
 *  so a failed cell counts as failed. */
tdc::runner::SweepRunner sweepRunner();

/** Hardware threads of the host (at least 1). */
unsigned hostThreads();

/** Writes the workload's trace for `seed`, verifies it, and reports
 *  record counts, longest record and generator cost. */
tdc::json::Value generateInputs(const Workload &w, std::uint64_t seed,
                                const std::string &path);

/** The untraced timed run (subcommand `run`). */
tdc::json::Value runCells(const Workload &w, const std::string &path,
                          double seconds);

/** The traced run (subcommand `layers`); spans go to `spans_path`. */
tdc::json::Value runLayers(const Workload &w, const std::string &path,
                           double seconds, const std::string &spans_path);

// ---- shared helpers -------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Timestamps for timed layer calls. On x86-64 this is the unserialized
 * TSC: most layer calls take tens of ns, and the serialized read behind
 * steady_clock stalls the pipeline around each call and inflates it
 * several-fold. Elsewhere it falls back to steady_clock.
 */
class HostClock
{
  public:
    /** Calibrates ticks against steady_clock and the cost of a read. */
    HostClock();

    static std::uint64_t
    read()
    {
#if defined(__x86_64__)
        return __rdtsc();
#else
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now().time_since_epoch())
                .count());
#endif
    }

    /** Host ns of a timed interval [t0, t1], less one read's cost. */
    double
    callNs(std::uint64_t t0, std::uint64_t t1) const
    {
        return static_cast<double>(t1 - t0) * nsPerTick - readNs;
    }

    double nsPerTick = 1.0;
    double readNs = 0.0; //!< median cost of one read()
};

double median(std::vector<double> xs);

/** FNV-1a digest of a JSON document's canonical dump. */
std::uint64_t digest(const tdc::json::Value &v);

/** A JSON array of the values. */
tdc::json::Value numbers(const std::vector<double> &xs);

/** Model outputs of one finished cell, for checks and digests. */
struct CellOutput
{
    tdc::RunResult result;
    std::uint64_t digest = 0;         //!< result + full stats tree
    std::uint64_t resultDigest = 0;   //!< RunResult alone
    std::uint64_t retiredInsts = 0;   //!< warmup + measure, all cores
    std::vector<std::string> failures;
};

/**
 * Checks one finished cell: measured instructions match the budget up
 * to each core's overshoot at the two leg boundaries (a record retires
 * all its instructions at once, so a leg ends up to `max_record_insts`
 * - 1 past its target); in-package hits plus off-package misses equal
 * L3 accesses; and no stream was consumed past its recorded length.
 */
CellOutput checkCell(tdc::System &sys, const tdc::RunResult &r,
                     std::uint64_t warm_retired,
                     const std::vector<std::uint64_t> &records,
                     std::uint64_t max_record_insts);

/** Per-stream record counts and longest record from the gen output. */
struct TraceShape
{
    std::vector<std::uint64_t> records;
    std::uint64_t maxRecordInsts = 0;
};
TraceShape readTraceShape(const std::string &path);

} // namespace simbench

#endif // SIMBENCH_SIMBENCH_HH
