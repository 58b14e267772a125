/**
 * @file
 * sieve: thesis Figure 5.1 end to end. The Appendix D stack machine
 * runs the Sieve of Eratosthenes from spec text to printed primes on
 * interp, vm and native (generated C++ through the host compiler),
 * and a seeded fault campaign fans out over the same machine. The
 * design is ~100 components, so the frontend does almost nothing;
 * per-cycle engine cost, codegen + host compile, and the
 * batch/campaign/thread-pool stack do the work.
 */

#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>

#include "analysis/campaign.hh"
#include "analysis/resolve.hh"
#include "checks.hh"
#include "codegen/codegen.hh"
#include "codegen/native.hh"
#include "designs.hh"
#include "sim/checkpoint.hh"
#include "sim/simulation.hh"
#include "workloads.hh"

namespace e2e {

namespace {

const char *const kEngines[3] = {"interp", "vm", "native"};

/** Injections per campaign, and campaigns per round (all share the
 *  seed, so all reports must agree). */
constexpr uint64_t kCampaignRuns = 256;
constexpr int kCampaignsPerRound = 4;

struct Machine
{
    int size = 0;
    std::string text;
    std::string printed; ///< the benchmark's own sieve
    uint64_t haltCycle = 0;
};

asim::SimulationOptions
options(const Machine &m, const std::string &engine, std::ostream *out,
        const std::string &workDir = "")
{
    asim::SimulationOptions so;
    so.specText = m.text;
    so.engine = engine;
    so.ioMode = asim::IoMode::Script;
    so.ioOut = out;
    so.workDir = workDir;
    return so;
}

/** Run to one cycle short of the halt, check the machine is still
 *  running, step once, and check it halted with the right output. */
void
checkHaltAndOutput(Checker &chk, asim::Simulation &sim,
                   const std::ostringstream &out, const Machine &m,
                   const std::string &engine)
{
    sim.run(m.haltCycle - 1);
    chk.expect(sim.value("state") != kSieveHaltState,
               engine + " still running one cycle before the halt");
    sim.step();
    chk.expect(sim.value("state") == kSieveHaltState,
               engine + " halts on cycle " + std::to_string(m.haltCycle));
    checkSame(chk, out.str(), m.printed, engine + " printed primes");
}

/** Cycles an engine reruns per round: a fixed amount of work (about
 *  a quarter second per engine on the reference host), so the round
 *  time follows the engines' speed. */
uint64_t
rerunCycles(const std::string &engine)
{
    return engine == "interp" ? 1000000 : engine == "vm" ? 2000000
                                                         : 10000000;
}

/** Fresh interp and vm engines a round builds, each rerunning its
 *  share of rerunCycles(). On the shared reference host the engines
 *  run either at full speed or about a third slower, in stretches of
 *  a second or so; a run's rate is the mean over a hundred or more
 *  instances spread over the whole run, which moves in proportion to
 *  the slow share, where a median would jump between the two. */
constexpr int kInstances = 10;

/** Rerun from reset to the halt, `cycles` cycles in all, adding each
 *  rerun's cycles per second to `rates`; with `spans`
 *  (the traced run), each rerun is also a span. Untraced runs keep
 *  no spans: their buffer would count in `peak_rss_mb`. */
void
rerunToHalt(asim::Simulation &sim, std::ostringstream &out,
            const Machine &m, const std::string &engine, uint64_t cycles,
            std::vector<double> &rates, uint64_t &runs,
            SpanLog *spans = nullptr)
{
    const uint64_t reruns = std::max<uint64_t>(1, cycles / m.haltCycle);
    const std::string span = "sim.sieve.run." + engine;
    for (uint64_t i = 0; i < reruns; ++i) {
        sim.reset();
        out.str("");
        Clock::time_point t = Clock::now();
        sim.run(m.haltCycle);
        Clock::time_point end = Clock::now();
        rates.push_back(double(m.haltCycle) / secondsBetween(t, end));
        if (spans)
            spans->add(span, t, end);
        ++runs;
    }
}

asim::CampaignOptions
campaignOptions(const Machine &m, uint64_t seed, unsigned threads,
                const std::string &workDir, uint64_t runs)
{
    asim::CampaignOptions co;
    co.base = options(m, "vm", nullptr);
    co.runs = runs;
    co.seed = seed;
    co.goldenCycle = m.haltCycle / 2;
    co.horizon = m.haltCycle + 1;
    co.watchName = "state";
    co.watchValue = kSieveHaltState;
    co.threads = threads;
    co.workDir = workDir;
    return co;
}

/** One pass over every layer of the traced run. */
void
layersOnce(const Options &o, Checker &chk, SpanLog &spans, Result &r,
           const Machine &m)
{
    using namespace asim;
    const std::string nativeDir = o.workDir + "/native-layers";
    std::filesystem::create_directories(nativeDir);

    // Engine runs, spec to halt.
    double comps = 0;
    for (const char *engine : kEngines) {
        std::ostringstream out;
        std::filesystem::create_directories(nativeDir + "/" + engine);
        Simulation sim(options(m, engine, &out, nativeDir + "/" + engine));
        comps = double(sim.resolved().spec.comps.size());
        std::vector<double> rates;
        rerunToHalt(sim, out, m, engine, rerunCycles(engine), rates,
                    r.attempted, &spans);
        double runS = double(m.haltCycle) / median(rates);
        r.set(std::string("sim.sieve.run_s.") + engine, runS, "s");
        if (std::string(engine) != "native") {
            r.set(std::string("sim.sieve.ns_per_component.") + engine,
                  runS * 1e9 / (comps * double(m.haltCycle)), "ns");
        }
        checkSame(chk, out.str(), m.printed,
                  std::string(engine) + " printed primes (layers)");
    }

    // Single steps, snapshots and restores, vm and native.
    for (const char *engine : {"vm", "native"}) {
        std::ostringstream out;
        std::filesystem::create_directories(nativeDir + "/s" + engine);
        Simulation sim(options(m, engine, &out, nativeDir + "/s" + engine));
        const int steps = std::string(engine) == "vm" ? 4000 : 400;
        std::vector<double> stepUs, snapUs, restoreUs;
        const std::string suffix = std::string(".") + engine;
        // One call into the engine, as a span and a sample (us).
        auto timed = [&](const std::string &span, std::vector<double> &us,
                         const auto &fn) {
            Clock::time_point t = Clock::now();
            fn();
            Clock::time_point end = Clock::now();
            spans.add(span, t, end);
            us.push_back(secondsBetween(t, end) * 1e6);
        };
        for (int i = 0; i < steps; ++i)
            timed("sim.step" + suffix, stepUs, [&] { sim.step(); });
        for (int i = 0; i < 50; ++i) {
            sim.run(17);
            EngineSnapshot snap;
            timed("sim.snapshot" + suffix, snapUs,
                  [&] { snap = sim.snapshot(); });
            sim.run(5);
            timed("sim.restore" + suffix, restoreUs,
                  [&] { sim.restore(snap); });
            chk.expectEq(sim.cycle(), snap.cycle,
                         std::string(engine) + " restore cycle");
        }
        r.set(std::string("sim.step_us.") + engine, median(stepUs), "us");
        r.set(std::string("sim.snapshot_us.") + engine, median(snapUs),
              "us");
        r.set(std::string("sim.restore_us.") + engine, median(restoreUs),
              "us");
        r.attempted += steps + 100;

        if (std::string(engine) == "vm") {
            EngineSnapshot snap = sim.snapshot();
            std::vector<double> encUs, decUs;
            std::string bytes;
            for (int i = 0; i < 200; ++i) {
                Clock::time_point t = Clock::now();
                bytes = encodeCheckpoint(snap, sim.specHash(), "vm");
                encUs.push_back(secondsSince(t) * 1e6);
                t = Clock::now();
                EngineSnapshot back = decodeCheckpoint(bytes, "e2ebench");
                decUs.push_back(secondsSince(t) * 1e6);
                if (i == 0) {
                    chk.expect(back.state.mems == snap.state.mems &&
                                   back.cycle == snap.cycle,
                               "checkpoint round trip");
                }
            }
            r.set("sim.checkpoint.encode_us", median(encUs), "us");
            r.set("sim.checkpoint.decode_us", median(decUs), "us");
            r.set("sim.checkpoint.bytes", double(bytes.size()), "B");
            r.attempted += 400;
        }
    }

    // Native pipeline layers: generate, then host compile.
    ResolvedSpec rs = resolveText(m.text);
    CodegenOptions cg;
    cg.emitStateDump = true;
    cg.emitServeLoop = true;
    SpanLog::Scope genSpan(spans, "codegen.generate");
    std::string source = generateCpp(rs, cg);
    double gen = genSpan.finish();
    SpanLog::Scope buildSpan(spans, "codegen.compile_spec");
    std::filesystem::create_directories(nativeDir + "/build");
    NativeBuild build = compileSpec(rs, cg, nativeDir + "/build");
    double whole = buildSpan.finish();
    r.set("codegen.generate_s", gen, "s");
    r.set("codegen.source_bytes", double(source.size()), "B");
    r.set("codegen.host_compile_s", whole - gen, "s");

    // Campaign: one-injection campaign (the golden run dominates) and
    // the fan-out rate of a full one. Its class counts go to stderr,
    // not into the metrics: a class can be empty for a seed.
    SpanLog::Scope goldenSpan(spans, "campaign.one_injection");
    CampaignRunner(campaignOptions(m, o.seed, 1, nativeDir + "/g", 1)).run();
    r.set("campaign.golden_s", goldenSpan.finish(), "s");
    SpanLog::Scope fullSpan(spans, "campaign.full");
    CampaignResult cr = CampaignRunner(campaignOptions(
        m, o.seed, o.threads, nativeDir + "/c", kCampaignRuns)).run();
    r.set("campaign.runs_per_s", double(kCampaignRuns) / fullSpan.finish(),
          "1/s");
    std::cerr << "e2ebench: sieve campaign classes: masked "
              << cr.total.masked << ", sdc " << cr.total.sdc << ", hang "
              << cr.total.hang << ", fault " << cr.total.fault << "\n";
    checkCampaignSum(chk, cr.total.masked, cr.total.sdc, cr.total.hang,
                     cr.total.fault, kCampaignRuns, "campaign (layers)");
    r.attempted += kCampaignRuns + 1;
    removeTree(nativeDir);
}

/** Per-layer metrics of the traced run: passes for the run's time,
 *  each metric the median over the passes. */
void
layers(const Options &o, Checker &chk, SpanLog &spans, Result &r,
       const Machine &m)
{
    std::map<std::string, std::vector<double>> values;
    const Clock::time_point t0 = Clock::now();
    do {
        Result pass;
        layersOnce(o, chk, spans, pass, m);
        for (const auto &[name, metric] : pass.metrics) {
            values[name].push_back(metric.value);
            r.metrics[name].unit = metric.unit;
        }
        r.attempted += pass.attempted;
    } while (secondsSince(t0) < o.seconds);
    for (auto &[name, v] : values)
        r.metrics[name].value = median(v);
}

} // namespace

Result
runSieve(const Options &o, Checker &chk, SpanLog &spans)
{
    using namespace asim;
    Result r;
    Rng rng(o.seed * 0x9e3779b97f4a7c15ull + 3);
    Machine m;
    m.size = int(rng.range(kSieveMaxSize - 6, kSieveMaxSize));
    m.text = sieveSpec(m.size);
    m.printed = sievePrinted(m.size);

    // ----- Cold set-up: process start -> spec text -> ready interp,
    // vm and native engines (native includes the host compile, the
    // preparation thesis Fig. 5.1 counts against simulation) -----
    double setup = 0;
    {
        const std::string dir = o.workDir + "/sieve-setup";
        std::filesystem::create_directories(dir);
        std::ostringstream outs[3];
        std::unique_ptr<Simulation> sims[3];
        for (int e = 0; e < 3; ++e) {
            sims[e] = std::make_unique<Simulation>(
                options(m, kEngines[e], &outs[e], dir));
        }
        setup = secondsSince(processStart());
        // The halt cycle, from a first run on vm.
        m.haltCycle =
            sims[1]->runUntilValue("state", kSieveHaltState, 2000000);
        chk.expect(sims[1]->value("state") == kSieveHaltState,
                   "vm reaches the halt state");
        checkSame(chk, outs[1].str(), m.printed,
                  "vm printed primes (first)");
        // End the native child before its build directory goes.
        sims[2].reset();
        removeTree(dir);
    }

    if (o.trace) {
        layers(o, chk, spans, r, m);
        return r;
    }

    // Native reruns and the campaigns count in total_s; their own
    // rates are per-layer metrics of the traced run. rates[e]: the
    // median rerun rate of each interp / vm instance.
    std::vector<double> totals, rates[2];
    std::string campaignJson;
    const Clock::time_point t0 = Clock::now();
    for (int round = 0;
         secondsSince(t0) < o.seconds || totals.size() < 3; ++round) {
        Clock::time_point roundStart = Clock::now();
        const std::string dir =
            o.workDir + "/sieve-round" + std::to_string(round);
        std::filesystem::create_directories(dir + "/native");
        for (int e = 0; e < 3; ++e) {
            const bool native = e == 2;
            const int instances = native ? 1 : kInstances;
            const uint64_t cycles = rerunCycles(kEngines[e]) / instances;
            for (int i = 0; i < instances; ++i) {
                std::ostringstream out;
                Simulation sim(
                    options(m, kEngines[e], &out, dir + "/native"));
                if (i == 0)
                    checkHaltAndOutput(chk, sim, out, m, kEngines[e]);
                std::vector<double> mine;
                rerunToHalt(sim, out, m, kEngines[e], cycles, mine,
                            r.attempted);
                if (!native)
                    rates[e].push_back(median(mine));
                checkSame(chk, out.str(), m.printed,
                          std::string(kEngines[e]) +
                              " printed primes (rerun)");
                r.attempted += 1;
            }
        }

        for (int c = 0; c < kCampaignsPerRound; ++c) {
            const std::string cdir = dir + "/campaign" + std::to_string(c);
            CampaignResult cr = CampaignRunner(campaignOptions(
                m, o.seed, o.threads, cdir, kCampaignRuns)).run();
            checkCampaignSum(chk, cr.total.masked, cr.total.sdc,
                             cr.total.hang, cr.total.fault, kCampaignRuns,
                             "campaign");
            if (campaignJson.empty())
                campaignJson = cr.json();
            else
                checkSame(chk, cr.json(), campaignJson, "campaign rerun");
        }
        r.attempted += kCampaignRuns * kCampaignsPerRound;
        removeTree(dir);
        totals.push_back(secondsSince(roundStart));
    }

    // The campaign report does not depend on the thread count.
    {
        const std::string dir = o.workDir + "/sieve-campaign1";
        CampaignResult one = CampaignRunner(campaignOptions(
            m, o.seed, 1, dir, kCampaignRuns)).run();
        checkSame(chk, one.json(), campaignJson,
                  "campaign at 1 thread vs " + std::to_string(o.threads));
        r.attempted += kCampaignRuns;
        removeTree(dir);
    }

    r.set("setup_s", setup, "s");
    r.set("total_s", mean(totals), "s");
    r.set("peak_rss_mb", selfPeakRssMb(), "MiB");
    r.set("interp_cycles_per_s", mean(rates[0]), "1/s");
    r.set("vm_cycles_per_s", mean(rates[1]), "1/s");
    return r;
}

} // namespace e2e
