/**
 * @file
 * big_design: one generated design of ~20k components goes from spec
 * text to a ready engine the way asim-run does it (Simulation, which
 * resolves with a Diagnostics sink), then runs a short burst on vm and
 * on interp. The frontend (lang, analysis) and the bytecode compiler
 * and optimizer do most of the work.
 *
 * Untraced: each pass is spec text -> vm -> burst -> interp -> burst ->
 * every register checked against the benchmark's model; medians over
 * the passes. Traced: one cold set-up, then a facade pass under the
 * program's own tracer, then repetitions of an untraced facade
 * set-up followed by each layer called on its own through its public
 * function, so the per-layer times can be checked to add up to the
 * set-up time.
 */

#include <map>
#include <memory>

#include "analysis/depgraph.hh"
#include "analysis/resolve.hh"
#include "checks.hh"
#include "designs.hh"
#include "lang/parser.hh"
#include "sim/compiler.hh"
#include "sim/optimizer.hh"
#include "sim/simulation.hh"
#include "support/metrics.hh"
#include "support/tracing.hh"
#include "workloads.hh"

namespace e2e {

namespace {

/** Design size: today's resolve takes about a second here. */
constexpr size_t kComponents = 20000;

/** Burst length: every GCD unit (operands <= 120) has converged and
 *  every multiplier finished well before; long enough that each
 *  engine's burst lasts a tenth of a second or more. */
constexpr uint64_t kBurstCycles = 500;

/** Cycles per timed sample of a burst: ten samples a burst. A run's
 *  cycle rate is the mean over a few hundred of them, which moves in
 *  proportion to the share of the run the shared host spends slow,
 *  where a median would jump between its fast and slow stretches. */
constexpr uint64_t kSampleCycles = 50;

/** Run the burst, adding one cycles-per-second sample per
 *  kSampleCycles to `rates`. */
void
timedBurst(asim::Simulation &sim, std::vector<double> &rates)
{
    for (uint64_t done = 0; done < kBurstCycles; done += kSampleCycles) {
        Clock::time_point t = Clock::now();
        sim.run(kSampleCycles);
        rates.push_back(double(kSampleCycles) / secondsSince(t));
    }
}

/** Fewest repetitions of each separately timed layer. */
constexpr int kLayerReps = 3;

/** Ledger bound: the layers timed one by one over the facade's
 *  set-up from spec text to a ready vm, timed next to them in the
 *  same repetition (so a slow stretch of the shared host, which can
 *  make a single thread a third slower for a second or so, mostly
 *  hits both), median over the repetitions. An unmeasured or a
 *  double-counted resolve (~90% of set-up) fails it. The bound on
 *  the program's span totals lives in run.py. */
constexpr double kLayerLedgerBound = 0.3;

asim::SimulationOptions
facadeOptions(const std::string &text, const std::string &engine)
{
    asim::SimulationOptions so;
    so.specText = text;
    so.engine = engine;
    so.ioMode = asim::IoMode::Null;
    return so;
}

void
checkEngine(Checker &chk, const asim::Simulation &sim,
            const std::vector<std::pair<std::string, int32_t>> &model,
            const BigDesign &d, const std::string &engine)
{
    chk.expectEq(sim.cycle(), kBurstCycles, engine + " cycle count");
    checkRegisters(
        chk, model,
        [&](const std::string &n) { return sim.value(n); },
        "big_design " + engine);
    for (const BigUnit &u : d.units) {
        if (u.kind == BigUnit::Kind::Gcd) {
            checkGcd(chk, sim.value(u.name + "a"), sim.value(u.name + "b"),
                     u.a, u.b, 0x7fffffff, engine + " " + u.name);
        } else if (u.kind == BigUnit::Kind::Mult) {
            checkProduct(chk, sim.value(u.name + "acc"), u.a, u.b,
                         0x7fffffff, engine + " " + u.name);
        }
    }
}

/** The traced run: per-layer metrics and the ledger checks. */
void
layers(const Options &o, Checker &chk, SpanLog &spans, Result &r,
       const BigDesign &d,
       const std::vector<std::pair<std::string, int32_t>> &model,
       double genSeconds)
{
    using namespace asim;

    // A facade pass under the program's tracer, wrapped in the
    // benchmark's own spans, for the span-total ledger.
    const std::string progTrace = o.outDir + "/big_design.program.json";
    if (!tracing::start(progTrace))
        throw std::runtime_error("cannot write " + progTrace);
    {
        SpanLog::Scope load(spans, "bench.facade.load");
        Simulation vm(facadeOptions(d.text, "vm"));
        load.finish();
        SpanLog::Scope runVm(spans, "bench.facade.run");
        vm.run(kBurstCycles);
        runVm.finish();
        SimulationOptions io = facadeOptions("", "interp");
        io.resolved = vm.engine().resolvedShared();
        SpanLog::Scope buildInterp(spans, "bench.facade.load");
        Simulation interp(io);
        buildInterp.finish();
        SpanLog::Scope runInterp(spans, "bench.facade.run");
        interp.run(kBurstCycles);
        runInterp.finish();
    }
    tracing::stop();
    // stop() leaves the program's timing tier on; the layers below,
    // and the other workloads' passes after them, run untraced.
    metrics::setTimingEnabled(false);

    // Each layer on its own, through its public function; medians
    // over repetitions for the run's time (at least kLayerReps).
    std::map<std::string, std::vector<double>> t;
    auto timed = [&](const std::string &name, const auto &fn) {
        SpanLog::Scope span(spans, name);
        fn();
        t[name].push_back(span.finish());
    };
    BigDesign quarter = makeBigDesign(o.seed, kComponents / 4);
    const Spec qspec = parseSpec(quarter.text, nullptr);
    size_t programOps = 0;
    std::vector<double> ledger; ///< layers over facade set-up, per rep
    const Clock::time_point t0 = Clock::now();
    for (int rep = 0; rep < kLayerReps || secondsSince(t0) < o.seconds;
         ++rep) {
        // The set-up setup_s times, less process start and spec
        // generation: spec text -> ready vm through the facade.
        {
            SpanLog::Scope span(spans, "bench.facade.setup");
            Simulation sim(facadeOptions(d.text, "vm"));
            t["bench.facade.setup"].push_back(span.finish());
        }
        Diagnostics diag;
        Spec spec;
        timed("lang.parse", [&] { spec = parseSpec(d.text, &diag); });
        std::shared_ptr<const ResolvedSpec> rs;
        timed("analysis.resolve", [&] {
            rs = std::make_shared<const ResolvedSpec>(resolve(spec, &diag));
        });
        chk.expect(diag.clean(), "big_design resolves without warnings");
        timed("analysis.resolve_nodiag", [&] { resolve(spec, nullptr); });
        timed("analysis.order", [&] {
            chk.expectEq(orderCombinational(spec.comps).size(),
                         rs->comb.size(), "order covers comb");
        });
        Diagnostics qdiag;
        timed("analysis.resolve_quarter", [&] { resolve(qspec, &qdiag); });

        // compileProgram runs the link/optimize stage itself; timing
        // linkAndOptimize again on a copy splits the two.
        CompilerOptions copts;
        std::shared_ptr<Program> prog;
        timed("sim.compile_program", [&] {
            prog = std::make_shared<Program>(
                compileProgram(*rs, copts, /*tracingPossible=*/false));
        });
        Program copy = *prog;
        timed("sim.optimize", [&] { linkAndOptimize(copy, *rs, copts); });
        chk.expectEq(copy.cycle.size(), prog->cycle.size(),
                     "re-optimized program is the same length");
        programOps = prog->cycle.size();

        std::unique_ptr<Engine> vm, interp;
        timed("sim.build.vm", [&] {
            vm = makeVm(rs, EngineConfig{},
                        std::shared_ptr<const Program>(prog));
        });
        timed("sim.build.interp",
              [&] { interp = makeInterpreter(rs, EngineConfig{}); });
        timed("sim.run.vm", [&] { vm->run(kBurstCycles); });
        timed("sim.run.interp", [&] { interp->run(kBurstCycles); });
        checkRegisters(
            chk, model, [&](const std::string &n) { return vm->value(n); },
            "layered vm");
        checkRegisters(
            chk, model,
            [&](const std::string &n) { return interp->value(n); },
            "layered interp");
        r.attempted += 2;
        auto last = [&](const char *name) { return t[name].back(); };
        ledger.push_back((last("lang.parse") + last("analysis.resolve") +
                          last("sim.compile_program") +
                          last("sim.build.vm")) /
                         last("bench.facade.setup"));
    }
    auto med = [&](const std::string &name) { return median(t[name]); };
    const double parse = med("lang.parse");
    const double resolveDiag = med("analysis.resolve");
    const double compileProgramS = med("sim.compile_program");
    const double optimize = med("sim.optimize");
    const double buildVm = med("sim.build.vm");
    const double runVm = med("sim.run.vm");
    const double runInterp = med("sim.run.interp");

    const double comps = double(d.components);
    r.set("lang.parse_s", parse, "s");
    r.set("lang.bytes_per_s", double(d.text.size()) / parse, "B/s");
    r.set("analysis.resolve_s", resolveDiag, "s");
    r.set("analysis.resolve_nodiag_s", med("analysis.resolve_nodiag"), "s");
    r.set("analysis.order_s", med("analysis.order"), "s");
    // Full size over quarter size: ~4 means linear, ~16 quadratic.
    r.set("analysis.resolve_growth",
          resolveDiag / med("analysis.resolve_quarter"), "ratio");
    r.set("sim.compile_s", compileProgramS - optimize, "s");
    r.set("sim.optimize_s", optimize, "s");
    r.set("sim.program_ops", double(programOps), "count");
    r.set("sim.build_s.vm", buildVm, "s");
    r.set("sim.build_s.interp", med("sim.build.interp"), "s");
    r.set("sim.run_s.vm", runVm, "s");
    r.set("sim.run_s.interp", runInterp, "s");
    r.set("sim.ns_per_component.vm", runVm * 1e9 / (comps * kBurstCycles),
          "ns");
    r.set("sim.ns_per_component.interp",
          runInterp * 1e9 / (comps * kBurstCycles), "ns");
    r.set("bench.gen_s", genSeconds, "s");

    // Ledger: the layers, timed one by one, add up to the set-up the
    // facade takes from spec text to a ready vm, untraced.
    const double closure = median(ledger);
    r.set("ledger.layers_over_setup", closure, "ratio");
    checkWithin(chk, closure, 1.0, kLayerLedgerBound,
                "ledger: layers over the facade's untraced set-up");
}

} // namespace

Result
runBigDesign(const Options &o, Checker &chk, SpanLog &spans)
{
    using namespace asim;
    Result r;

    // ----- Cold set-up: process start -> spec text -> ready vm -----
    Clock::time_point g0 = Clock::now();
    BigDesign d = makeBigDesign(o.seed, kComponents);
    const Clock::time_point textReady = Clock::now();
    const double genSeconds = secondsBetween(g0, textReady);
    auto first = std::make_unique<Simulation>(facadeOptions(d.text, "vm"));
    const Clock::time_point simReady = Clock::now();
    const double setup = secondsBetween(processStart(), simReady);
    chk.expect(first->diagnostics().clean(),
               "big_design spec loads without warnings");
    const auto model = modelBigDesign(d, kBurstCycles);

    if (o.trace) {
        first->run(kBurstCycles);
        checkEngine(chk, *first, model, d, "vm (cold)");
        first.reset();
        layers(o, chk, spans, r, d, model, genSeconds);
        return r;
    }

    // ----- Timed passes: spec text in, checked result out -----
    std::vector<double> totals, vmRates, interpRates;
    const Clock::time_point t0 = Clock::now();
    // The first pass counts its load, not the model computed since.
    Clock::time_point passStart = t0 - (simReady - textReady);
    do {
        std::unique_ptr<Simulation> vm = std::move(first);
        if (!vm)
            vm = std::make_unique<Simulation>(facadeOptions(d.text, "vm"));
        timedBurst(*vm, vmRates);
        checkEngine(chk, *vm, model, d, "vm");

        SimulationOptions io = facadeOptions("", "interp");
        io.resolved = vm->engine().resolvedShared();
        Simulation interp(io);
        timedBurst(interp, interpRates);
        checkEngine(chk, interp, model, d, "interp");

        totals.push_back(secondsSince(passStart));
        r.attempted += 2;
        passStart = Clock::now();
    } while (secondsSince(t0) < o.seconds || totals.size() < 3);

    r.set("setup_s", setup, "s");
    r.set("total_s", mean(totals), "s");
    r.set("peak_rss_mb", selfPeakRssMb(), "MiB");
    r.set("vm_cycles_per_s", mean(vmRates), "1/s");
    r.set("interp_cycles_per_s", mean(interpRates), "1/s");
    return r;
}

} // namespace e2e
