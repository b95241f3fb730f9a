/**
 * @file
 * The traced run. An untraced reference cell supplies the host time
 * per instruction and the stats-tree call counts; a replay of the same
 * records through stand-alone trace, vm, cache, dramcache and dram
 * instances -- each built from its public constructor, each fed what
 * its upstream layer emitted -- supplies the host time per call.
 * run.py multiplies the two into the per-layer ledger.
 */

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "core/core_params.hh"
#include "dram/dram_params.hh"
#include "dramcache/frame_space.hh"
#include "dramcache/org_dispatch.hh"
#include "obs/trace_writer.hh"
#include "runner/sweep_runner.hh"
#include "simbench.hh"
#include "sys/report.hh"
#include "trace/replay.hh"

namespace simbench {

using namespace tdc;

namespace {

/** Wall-clock spans of sampled records, written once at the end. */
class SpanLog
{
  public:
    static constexpr std::uint64_t sampleEvery = 512;
    static constexpr std::size_t maxSpans = 200'000;

    struct Span
    {
        const char *name;
        std::uint32_t track;
        std::uint64_t start, end; //!< HostClock ticks
        std::uint32_t parent; //!< index + 1 into spans_; 0 = root
        std::uint64_t record;
    };

    static bool sampled(std::uint64_t record)
    {
        return record % sampleEvery == 0;
    }

    /** Appends a span; returns its id (index + 1), 0 when full. */
    std::uint32_t
    add(const char *name, std::uint32_t track, std::uint64_t start,
        std::uint64_t end, std::uint32_t parent, std::uint64_t record)
    {
        if (spans_.size() >= maxSpans)
            return 0;
        spans_.push_back({name, track, start, end, parent, record});
        return static_cast<std::uint32_t>(spans_.size());
    }

    /** Writes Chrome trace-event JSON (Perfetto-loadable); one span
     *  id per event ("span", index + 1) so "parent" resolves. */
    void
    write(const std::string &path, double ns_per_tick) const
    {
        obs::TraceWriter tw({path, "", maxSpans});
        std::uint64_t origin = ~0ULL;
        for (const Span &s : spans_)
            origin = std::min(origin, s.start);
        const auto ps = [&](std::uint64_t t) {
            return static_cast<Tick>(static_cast<double>(t - origin)
                                     * ns_per_tick * 1000.0);
        };
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            const std::string_view name(s.name);
            const std::string_view cat = name.substr(0, name.find('.'));
            tw.complete(cat, name, s.track, ps(s.start), ps(s.end),
                        {{"span", i + 1},
                         {"parent", s.parent},
                         {"record", s.record}});
        }
        tw.finish();
    }

    /** Sets the end of a span opened with add(). */
    void
    close(std::uint32_t id, std::uint64_t end)
    {
        if (id != 0)
            spans_[id - 1].end = end;
    }

    std::size_t size() const { return spans_.size(); }

  private:
    std::vector<Span> spans_;
};

/** Timed calls of one kind into one layer. */
struct CallCost
{
    std::uint64_t calls = 0;
    double ns = 0.0; //!< less one clock read per call

};

/** One DRAM access() as the org issued it (from the access probe). */
struct DramReq
{
    Addr addr;
    Tick start;
    Tick completion;
    std::uint32_t bytes;
    std::uint8_t device; //!< 0 in-package, 1 off-package
    bool write;
};

/** Rebuilds a device-local address from the probe's decoded fields
 *  (layout low to high: row offset | channel | bank | row; the
 *  column is irrelevant to timing and left at 0). */
Addr
encodeDramAddr(const DramTimingParams &t, unsigned channel, unsigned bank,
               std::uint64_t row)
{
    const unsigned row_bits = std::countr_zero(t.rowBytes);
    const unsigned chan_bits = std::countr_zero(t.channels);
    const unsigned bank_bits =
        std::countr_zero(t.ranksPerChannel * t.banksPerRank);
    return ((((row << bank_bits) | bank) << chan_bits) | channel)
           << row_bits;
}

class DramCapture : public obs::ProbeListener<obs::DramAccessEvent>
{
  public:
    /** The replay needs a per-call cost, not the whole stream. */
    static constexpr std::size_t maxReqs = 1'000'000;

    DramCapture(std::uint8_t device, const DramTimingParams &t,
                std::vector<DramReq> &out)
        : device_(device), timing_(t), out_(out)
    {
    }

    void
    notify(const obs::DramAccessEvent &e) override
    {
        if (out_.size() >= maxReqs)
            return;
        out_.push_back({encodeDramAddr(timing_, e.channel, e.bank, e.row),
                        e.start, e.completion,
                        static_cast<std::uint32_t>(e.bytes), device_,
                        e.write});
    }

  private:
    std::uint8_t device_;
    DramTimingParams timing_;
    std::vector<DramReq> &out_;
};

/**
 * The per-core access path of MemorySystem::access, rebuilt from the
 * layers' public classes with every layer call timed. A simple core
 * time model (issue width for non-memory work, dependent loads wait
 * for their data) replaces the OoO core, so timing-dependent counts
 * may drift slightly from the System's; ledger.py checks that drift.
 */
class LayerReplay
{
  public:
    LayerReplay(const Workload &w, const std::string &path,
                const HostClock &clock, SpanLog *spans,
                std::vector<DramReq> *capture)
        : clock_(clock), spans_(spans), clk_(params_.freqHz),
          inPkg_("in_pkg", eq_, inPackageTiming(w.l3Bytes),
                 inPackageEnergy()),
          offPkg_("off_pkg", eq_, offPackageTiming(8ULL << 30),
                  offPackageEnergy()),
          phys_("phys", eq_, (8ULL << 30) / pageBytes)
    {
        Config raw;
        raw.set("l3.size_bytes", w.l3Bytes);
        org_ = makeDramCacheOrg(w.org, raw, eq_, inPkg_, offPkg_, phys_,
                                clk_);
        auto reader = mtrace::acquireReader(path);
        for (unsigned s = 0; s < reader->coreCount(); ++s) {
            auto st = std::make_unique<Stream>();
            const std::string n = format("core{}", s);
            st->pt = std::make_unique<PageTable>(n + ".pt", eq_, s, phys_);
            st->src = std::make_unique<mtrace::ReplayTraceSource>(reader,
                                                                  s);
            st->dtlb = std::make_unique<Tlb>(n + ".dtlb", eq_,
                                             params_.l1DtlbEntries);
            st->l2tlb = std::make_unique<Tlb>(n + ".l2tlb", eq_,
                                              params_.l2TlbEntries);
            st->l1d = std::make_unique<SramCache>(n + ".l1d", eq_,
                                                  params_.l1d);
            st->l2 = std::make_unique<SramCache>(n + ".l2", eq_,
                                                 params_.l2);
            st->dtlb->setResidenceListener(org_.get(), s);
            st->l2tlb->setResidenceListener(org_.get(), s);
            streams_.push_back(std::move(st));
        }
        org_->setPageInvalidator([this](Addr page_addr) {
            std::unordered_set<Addr> dirty;
            for (auto &st : streams_)
                for (SramCache *c : {st->l1d.get(), st->l2.get()})
                    for (Addr a : c->invalidatePage(page_addr))
                        dirty.insert(a);
            return static_cast<unsigned>(dirty.size());
        });
        org_->setShootdownFn([this](AsidVpn key) {
            for (auto &st : streams_) {
                st->dtlb->invalidate(key);
                st->l2tlb->invalidate(key);
            }
        });
        if (capture != nullptr) {
            inCap_ = std::make_unique<DramCapture>(0, inPkg_.timing(),
                                                   *capture);
            offCap_ = std::make_unique<DramCapture>(1, offPkg_.timing(),
                                                    *capture);
            inPkg_.accessProbe.attach(inCap_.get());
            offPkg_.accessProbe.attach(offCap_.get());
        }
    }

    ~LayerReplay()
    {
        if (inCap_) {
            inPkg_.accessProbe.detach(inCap_.get());
            offPkg_.accessProbe.detach(offCap_.get());
        }
    }

    LayerReplay(const LayerReplay &) = delete;
    LayerReplay &operator=(const LayerReplay &) = delete;

    /** Replays exactly `records[s]` records of every stream s,
     *  always advancing the stream that is furthest behind. */
    void
    run(const std::vector<std::uint64_t> &records)
    {
        for (std::size_t s = 0; s < streams_.size(); ++s)
            streams_[s]->left = records.at(s);
        const auto t0 = Clock::now();
        while (true) {
            Stream *next = nullptr;
            unsigned core = 0;
            for (unsigned s = 0; s < streams_.size(); ++s) {
                Stream *st = streams_[s].get();
                if (st->left > 0
                    && (next == nullptr || st->now < next->now)) {
                    next = st;
                    core = s;
                }
            }
            if (next == nullptr)
                break;
            step(*next, core);
        }
        wallSeconds = secondsSince(t0);
    }

    // Per-call costs, by layer and call.
    CallCost traceNext, tlbLookup, tlbInsert, cacheAccess;
    CallCost orgMiss, orgAccess, orgWriteback;
    std::uint64_t insts = 0;
    double wallSeconds = 0.0;

    /** Device access()+postedWrite() count, both devices. */
    std::uint64_t
    dramCalls() const
    {
        return inPkg_.reads() + inPkg_.writes() + offPkg_.reads()
               + offPkg_.writes();
    }

    std::uint64_t l3Accesses() const { return org_->l3Accesses(); }

    /** L2 dirty evictions plus dirty lines flushed by page
     *  invalidation, as the stats tree counts them. */
    std::uint64_t
    l2Writebacks() const
    {
        std::uint64_t n = 0;
        for (const auto &st : streams_)
            n += st->l2->writebacks();
        return n;
    }

    std::uint64_t
    cacheCalls() const
    {
        std::uint64_t n = 0;
        for (const auto &st : streams_)
            n += st->l1d->hits() + st->l1d->misses() + st->l2->hits()
                 + st->l2->misses();
        return n;
    }

  private:
    static constexpr std::size_t batch = 64;

    struct Stream
    {
        std::unique_ptr<PageTable> pt;
        std::unique_ptr<mtrace::ReplayTraceSource> src;
        std::unique_ptr<Tlb> dtlb, l2tlb;
        std::unique_ptr<SramCache> l1d, l2;
        std::uint64_t left = 0;
        std::uint64_t index = 0; //!< records consumed so far
        Tick now = 0;
        std::uint64_t carry = 0;
        std::vector<TraceRecord> buf;
        std::size_t pos = 0;
    };

    /** Times one call of `fn` into `cost`, logging a span under the
     *  current record's root span when that record is sampled. */
    template <typename Fn>
    auto
    timed(CallCost &cost, const char *name, Fn &&fn)
    {
        const std::uint64_t t0 = HostClock::read();
        auto r = fn();
        const std::uint64_t t1 = HostClock::read();
        cost.ns += clock_.callNs(t0, t1);
        ++cost.calls;
        if (root_ != 0)
            spans_->add(name, track_, t0, t1, root_, record_);
        return r;
    }

    TraceRecord
    nextRecord(Stream &st, unsigned core)
    {
        if (st.pos == st.buf.size()) {
            // The trace layer is timed per batch of next() calls.
            st.buf.resize(std::min<std::uint64_t>(batch, st.left));
            const std::uint64_t t0 = HostClock::read();
            for (TraceRecord &r : st.buf)
                r = st.src->next();
            const std::uint64_t t1 = HostClock::read();
            traceNext.ns += clock_.callNs(t0, t1);
            traceNext.calls += st.buf.size();
            if (spans_ != nullptr && SpanLog::sampled(st.index))
                spans_->add("trace.next_batch", core, t0, t1, 0,
                            st.index);
            st.pos = 0;
        }
        return st.buf[st.pos++];
    }

    void
    step(Stream &st, unsigned core)
    {
        const TraceRecord rec = nextRecord(st, core);
        --st.left;
        record_ = st.index++;
        track_ = core;
        insts += std::uint64_t{rec.nonMemInsts} + 1;
        if (rec.type == AccessType::InstFetch)
            fatal("simbench inputs carry no instruction fetches");

        st.carry += rec.nonMemInsts;
        st.now += clk_.cyclesToTicks(st.carry / params_.issueWidth);
        st.carry %= params_.issueWidth;

        if (spans_ != nullptr && SpanLog::sampled(record_)) {
            const std::uint64_t r0 = HostClock::read();
            root_ = spans_->add("record", core, r0, r0, 0, record_);
        }

        const Tick done = access(st, core, rec);
        if (rec.dependent)
            st.now = std::max(st.now, done);

        if (root_ != 0)
            spans_->close(root_, HostClock::read());
        root_ = 0;
    }

    /** MemorySystem::access's path with each layer call timed. */
    Tick
    access(Stream &st, unsigned core, const TraceRecord &rec)
    {
        const AsidVpn key = makeAsidVpn(st.pt->proc(), pageOf(rec.vaddr));
        Tick t = st.now;

        // vm: L1 TLB, L2 TLB, then the organization's miss handler.
        std::optional<TlbEntry> e = timed(tlbLookup, "vm.lookup", [&] {
            return st.dtlb->lookup(key);
        });
        if (!e) {
            e = timed(tlbLookup, "vm.lookup",
                      [&] { return st.l2tlb->lookup(key); });
            if (e) {
                t += clk_.cyclesToTicks(params_.l2TlbHitPenalty);
                timed(tlbInsert, "vm.insert",
                      [&] { return st.dtlb->insert(*e); });
            } else {
                const Tick walked =
                    t + clk_.cyclesToTicks(params_.pageWalkCycles);
                const TlbMissResult res = timed(
                    orgMiss, "dramcache.handleTlbMiss", [&] {
                        return org_->handleTlbMiss(*st.pt, vpnOf(key),
                                                   core, walked);
                    });
                timed(tlbInsert, "vm.insert",
                      [&] { return st.l2tlb->insert(res.entry); });
                timed(tlbInsert, "vm.insert",
                      [&] { return st.dtlb->insert(res.entry); });
                e = res.entry;
                t = res.readyTick;
            }
        }

        const Addr fa = e->nc ? paAddr(e->frame, pageOffset(rec.vaddr))
                              : caAddr(e->frame, pageOffset(rec.vaddr));
        const bool write = isWrite(rec.type);

        // cache: L1 (victim drains into L2), then L2, then the org.
        const CacheAccessOutcome l1 = timed(
            cacheAccess, "cache.access",
            [&] { return st.l1d->access(fa, write); });
        if (l1.writebackAddr != invalidAddr) {
            const CacheAccessOutcome wb = timed(
                cacheAccess, "cache.access",
                [&] { return st.l2->access(l1.writebackAddr, true); });
            if (wb.writebackAddr != invalidAddr)
                writeback(wb.writebackAddr, core, t);
        }
        t += clk_.cyclesToTicks(st.l1d->hitLatency());
        if (l1.hit)
            return t;

        const CacheAccessOutcome l2 = timed(
            cacheAccess, "cache.access",
            [&] { return st.l2->access(fa, false); });
        if (l2.writebackAddr != invalidAddr)
            writeback(l2.writebackAddr, core, t);
        t += clk_.cyclesToTicks(st.l2->hitLatency());
        if (l2.hit)
            return t;

        const L3Result l3 = timed(orgAccess, "dramcache.access", [&] {
            return dispatchL3Access(*org_, fa, rec.type, core, t);
        });
        return l3.completionTick;
    }

    void
    writeback(Addr addr, unsigned core, Tick t)
    {
        timed(orgWriteback, "dramcache.writebackLine", [&] {
            org_->writebackLine(addr, core, t);
            return 0;
        });
    }

    const HostClock &clock_;
    SpanLog *spans_;
    std::uint32_t root_ = 0;
    std::uint32_t track_ = 0;
    std::uint64_t record_ = 0;

    CoreParams params_;
    EventQueue eq_;
    ClockDomain clk_;
    DramDevice inPkg_;
    DramDevice offPkg_;
    PhysMem phys_;
    std::unique_ptr<DramCacheOrg> org_;
    std::vector<std::unique_ptr<Stream>> streams_;
    std::unique_ptr<DramCapture> inCap_, offCap_;
};

/** Sums every numeric leaf `leaf` in groups whose key passes `keep`. */
template <typename Keep>
double
sumLeaf(const json::Value &tree, std::string_view leaf, Keep keep,
        std::string_view group = "")
{
    double sum = 0.0;
    for (const auto &[key, v] : tree.members()) {
        if (v.isObject())
            sum += sumLeaf(v, leaf, keep, key);
        else if (key == leaf && v.isNumber() && keep(group))
            sum += v.asDouble();
    }
    return sum;
}

bool
isTlb(std::string_view g)
{
    return g.ends_with(".itlb") || g.ends_with(".dtlb")
           || g.ends_with(".l2tlb");
}

/** Cumulative (warmup + measure) layer counts of a finished System. */
json::Value
statsCounts(System &sys)
{
    const json::Value tree = sys.statsJson();
    std::uint64_t insts = 0, records = 0, lookups = 0, inserts = 0;
    std::uint64_t walks = 0, l1 = 0, l1_miss = 0, l2 = 0, l2_miss = 0;
    std::uint64_t l2_wb = 0;
    for (unsigned i = 0; i < sys.activeCores(); ++i) {
        insts += sys.core(i).instsRetired();
        records += sys.core(i).memRefs();
        const MemorySystem &ms = sys.memSystem(i);
        const Tlb &l2tlb = ms.l2tlb();
        lookups += ms.tlbAccesses() + l2tlb.hits() + l2tlb.misses();
        // MemorySystem::translate (4 KiB path): an L2 TLB hit refills
        // the L1 TLB; a full miss fills both levels.
        inserts += l2tlb.hits() + 2 * l2tlb.misses();
        walks += ms.walks();
        l1 += ms.l1Accesses();
        l1_miss += ms.l1i().misses() + ms.l1d().misses();
        l2 += ms.l2Accesses();
        l2_miss += ms.l2().misses();
        l2_wb += ms.l2().writebacks();
    }
    const auto any = [](std::string_view) { return true; };
    const auto core = [](std::string_view g) {
        return g.starts_with("core") && g.find('.') == g.npos;
    };
    const DramCacheOrg &org = sys.org();
    const DramDevice &in = sys.inPkgDram();
    const DramDevice &off = sys.offPkgDram();

    json::Value c = json::Value::object();
    c.set("insts", insts);
    c.set("records", records);
    c.set("rob_stalls", sumLeaf(tree, "rob_stalls", core));
    c.set("mshr_stalls", sumLeaf(tree, "mshr_stalls", core));
    c.set("cache_l1", l1);
    c.set("cache_l1_miss", l1_miss);
    c.set("cache_l2", l2);
    c.set("cache_l2_miss", l2_miss);
    c.set("cache_l2_wb", l2_wb);
    c.set("vm_lookups", lookups);
    c.set("vm_inserts", inserts);
    c.set("vm_evictions", sumLeaf(tree, "evictions", isTlb));
    c.set("vm_walks", walks);
    c.set("org_l3", org.l3Accesses());
    c.set("org_l3_hits", org.l3Hits());
    c.set("org_victim_hits", org.victimHits());
    c.set("org_fills", org.pageFills());
    c.set("org_page_wb", org.pageWritebacks());
    c.set("org_tag_probes", org.tagProbeCount());
    c.set("org_free_stalls", sumLeaf(tree, "free_stalls", any));
    c.set("dram_in", in.reads() + in.writes());
    c.set("dram_in_row_hits", in.rowHits());
    c.set("dram_off", off.reads() + off.writes());
    c.set("dram_off_row_hits", off.rowHits());
    c.set("dram_off_bytes", off.bytesTransferred());
    return c;
}

json::Value
costJson(const CallCost &c)
{
    json::Value v = json::Value::object();
    v.set("calls", c.calls);
    v.set("ns", c.ns);
    return v;
}

} // namespace

json::Value
runLayers(const Workload &w, const std::string &path, double seconds,
          const std::string &spans_path)
{
    const HostClock clock;
    const TraceShape shape = readTraceShape(path);
    const SystemConfig cfg = cellConfig(w, w.org, path);
    std::vector<std::string> failures;
    unsigned attempted = 0, failed = 0;
    const auto fail = [&](std::vector<std::string> why) {
        if (why.empty())
            return;
        ++failed;
        for (auto &f : why)
            failures.push_back(std::move(f));
    };

    // 1. The untraced reference cell: host time and stats-tree counts.
    std::vector<double> warmup_s, measure_s, ns_per_inst;
    json::Value counts;
    std::uint64_t ref_result_digest = 0;
    double ref_ipc = 0.0;
    std::vector<std::uint64_t> consumed;
    const auto start = Clock::now();
    while (warmup_s.size() < 3 || secondsSince(start) < seconds / 2) {
        ++attempted;
        System sys(cfg);
        const auto t1 = Clock::now();
        sys.warmup();
        const double wu = secondsSince(t1);
        std::uint64_t warm_retired = 0;
        for (unsigned i = 0; i < sys.activeCores(); ++i)
            warm_retired += sys.core(i).instsRetired();
        const auto t2 = Clock::now();
        const RunResult r = sys.measure();
        const double me = secondsSince(t2);
        CellOutput out = checkCell(sys, r, warm_retired, shape.records,
                                   shape.maxRecordInsts);
        if (warmup_s.empty()) {
            counts = statsCounts(sys);
            ref_result_digest = out.resultDigest;
            ref_ipc = r.sumIpc;
            for (unsigned i = 0; i < sys.activeCores(); ++i)
                consumed.push_back(sys.core(i).memRefs());
        }
        if (!out.failures.empty()) {
            fail(std::move(out.failures));
            break;
        }
        warmup_s.push_back(wu);
        measure_s.push_back(me);
        ns_per_inst.push_back((wu + me) * 1e9
                              / static_cast<double>(out.retiredInsts));
    }

    // 2. ckpt: save at the warmup/measure boundary, restore, and check
    //    the restored measure() against the straight run.
    json::Value ck = json::Value::object();
    {
        ++attempted;
        System straight(cfg);
        straight.warmup();
        const auto t0 = Clock::now();
        const ckpt::Checkpoint c = straight.makeCheckpoint();
        ck.set("save_s", secondsSince(t0));
        ck.set("bytes", static_cast<std::uint64_t>(c.encode().size()));
        System restored(cfg);
        const auto t1 = Clock::now();
        restored.restoreCheckpoint(c);
        ck.set("restore_s", secondsSince(t1));
        json::Value doc = json::Value::object();
        doc.set("result", toJson(restored.measure()));
        if (digest(doc) != ref_result_digest)
            fail({"restored-checkpoint RunResult differs"});
    }

    // 3. runner: one sweep of every organization (orgs-mix5 only).
    json::Value run = json::Value::object();
    json::Value ipc_by_org = json::Value::object();
    for (OrgKind k : allOrgKinds())
        ipc_by_org.set(cliName(k), 0.0);
    double busy = 0.0, job_max = 0.0;
    if (w.allOrgs) {
        const runner::SweepManifest m = sweepManifest(w, path);
        const runner::SweepRunner sweep = sweepRunner();
        const auto t0 = Clock::now();
        const auto res = sweep.run(m);
        const double wall = secondsSince(t0);
        double job_sum = 0.0;
        for (const runner::JobResult &jr : res) {
            ++attempted;
            if (!jr.ok())
                fail({jr.label + ": " + jr.error});
            job_sum += jr.wallSeconds;
            job_max = std::max(job_max, jr.wallSeconds);
            ipc_by_org.set(jr.label, jr.result.sumIpc);
        }
        busy = job_sum / (sweep.effectiveWorkers(res.size()) * wall);
    } else {
        ipc_by_org.set(cliName(w.org), ref_ipc);
    }
    run.set("busy_frac", busy);
    run.set("job_s_max", job_max);

    // 4. The timed layer replay over exactly the records the reference
    //    cell consumed, with spans of sampled records.
    SpanLog spans;
    LayerReplay timed(w, path, clock, &spans, nullptr);
    timed.run(consumed);

    // 5. An identical pass with the DRAM access probes attached records
    //    what the org issued; a fresh device pair then replays it with
    //    each DramDevice::access timed, and must reproduce every
    //    completion tick.
    std::vector<DramReq> reqs;
    {
        LayerReplay capture(w, path, clock, nullptr, &reqs);
        capture.run(consumed);
    }
    EventQueue eq;
    DramDevice devs[2] = {
        DramDevice("in_pkg", eq, inPackageTiming(w.l3Bytes),
                   inPackageEnergy()),
        DramDevice("off_pkg", eq, offPackageTiming(8ULL << 30),
                   offPackageEnergy())};
    CallCost dram;
    std::uint64_t mismatches = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const DramReq &q = reqs[i];
        const std::uint64_t t0 = HostClock::read();
        const DramAccessResult r =
            devs[q.device].access(q.addr, q.bytes, q.write, q.start);
        const std::uint64_t t1 = HostClock::read();
        dram.ns += clock.callNs(t0, t1);
        ++dram.calls;
        if (r.completionTick != q.completion)
            ++mismatches;
        if (SpanLog::sampled(i))
            spans.add("dram.access", 100 + q.device, t0, t1, 0, i);
    }
    ++attempted;
    if (mismatches != 0)
        fail({format("stand-alone DRAM replay: {} of {} completion "
                     "ticks differ",
                     mismatches, reqs.size())});
    spans.write(spans_path, clock.nsPerTick);

    json::Value rep = json::Value::object();
    rep.set("insts", timed.insts);
    rep.set("wall_s", timed.wallSeconds);
    rep.set("trace_next", costJson(timed.traceNext));
    rep.set("vm_lookup", costJson(timed.tlbLookup));
    rep.set("vm_insert", costJson(timed.tlbInsert));
    rep.set("cache_access", costJson(timed.cacheAccess));
    rep.set("org_miss", costJson(timed.orgMiss));
    rep.set("org_access", costJson(timed.orgAccess));
    rep.set("org_writeback", costJson(timed.orgWriteback));
    rep.set("dram_access", costJson(dram));
    json::Value rc = json::Value::object();
    rc.set("records", timed.traceNext.calls);
    rc.set("vm_lookups", timed.tlbLookup.calls);
    rc.set("cache", timed.cacheCalls());
    rc.set("org_l3", timed.l3Accesses());
    rc.set("l2_wb", timed.l2Writebacks());
    rc.set("dram", timed.dramCalls());
    rep.set("counts", std::move(rc));

    json::Value ref = json::Value::object();
    ref.set("warmup_s", numbers(warmup_s));
    ref.set("measure_s", numbers(measure_s));
    ref.set("ns_per_inst", numbers(ns_per_inst));

    json::Value out = json::Value::object();
    out.set("attempted", attempted);
    out.set("failed", failed);
    json::Value fl = json::Value::array();
    for (const std::string &f : failures)
        fl.push(f);
    out.set("failures", std::move(fl));
    out.set("timer_ns", clock.readNs);
    out.set("reference", std::move(ref));
    out.set("stats", std::move(counts));
    out.set("replay", std::move(rep));
    out.set("ckpt", std::move(ck));
    out.set("runner", std::move(run));
    out.set("ipc_by_org", std::move(ipc_by_org));
    out.set("spans", static_cast<std::uint64_t>(spans.size()));
    return out;
}

} // namespace simbench
