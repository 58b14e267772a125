/**
 * @file
 * e2ebench — one end-to-end run of one workload.
 *
 *   e2ebench --workload big_design|sieve|serve_sessions
 *            --seed N --seconds S --trace 0|1
 *            --work-dir DIR --out-dir DIR
 *   e2ebench --self-test
 *   e2ebench --render-sieve-template
 *
 * Prints, as the last line of stdout, one JSON object with the keys
 * correct, attempted, failed and metrics. Normally started through
 * e2ebench/run.py, which builds the checkout first.
 *
 * Untraced, the run measures its workload's end-to-end metrics.
 * Traced (--trace 1), it measures every layer: the layer passes of
 * all three workloads run, the named workload's for the run's time
 * and the others' for their fewest repetitions, so every traced run
 * reports the same per-layer metrics.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <string>

#include "checks.hh"
#include "common.hh"
#include "designs.hh"
#include "workloads.hh"

namespace e2e {

volatile pid_t gDaemonPid = 0;

namespace {

/** Stop the daemon (it parks its sessions and removes its native
 *  build directories on SIGTERM), then leave. Only async-signal-safe
 *  calls. In-process native children see their pipes close and exit;
 *  run.py reaps anything left in the process group. */
void
onSignal(int sig)
{
    pid_t pid = gDaemonPid;
    if (pid > 0) {
        kill(pid, SIGTERM);
        timespec tick{0, 20 * 1000 * 1000};
        int status = 0;
        bool gone = false;
        for (int i = 0; i < 250 && !gone; ++i) {
            gone = waitpid(pid, &status, WNOHANG) == pid;
            if (!gone)
                nanosleep(&tick, nullptr);
        }
        if (!gone) {
            kill(pid, SIGKILL);
            waitpid(pid, &status, 0);
        }
    }
    _exit(128 + sig);
}

/** Feed every check a wrong expectation (it must fail) and a right
 *  one (it must pass). Returns the number of checks that misbehaved. */
int
selfTest()
{
    int bad = 0;
    auto expectVerdict = [&](bool wantOk, const char *what,
                             const std::function<void(Checker &)> &fn) {
        Checker c(/*verbose=*/false);
        fn(c);
        if (c.ok() != wantOk) {
            std::cerr << "self-test: " << what << " "
                      << (wantOk ? "rejected a right" : "accepted a wrong")
                      << " expectation\n";
            ++bad;
        }
    };

    BigDesign d = makeBigDesign(7, 400);
    auto model = modelBigDesign(d, 150);
    std::map<std::string, int32_t> truth(model.begin(), model.end());
    auto read = [&](const std::string &n) { return truth.at(n); };
    auto wrongModel = model;
    wrongModel[wrongModel.size() / 2].second ^= 4;
    expectVerdict(true, "registers",
                  [&](Checker &c) { checkRegisters(c, model, read, "r"); });
    expectVerdict(false, "registers", [&](Checker &c) {
        checkRegisters(c, wrongModel, read, "r");
    });

    expectVerdict(true, "gcd", [](Checker &c) {
        checkGcd(c, 21, 21, 1071, 462, 0x7fff, "g");
    });
    expectVerdict(false, "gcd", [](Checker &c) {
        checkGcd(c, 7, 7, 1071, 462, 0x7fff, "g");
    });
    expectVerdict(true, "product", [](Checker &c) {
        checkProduct(c, 143, 13, 11, 0x7fffffff, "p");
    });
    expectVerdict(false, "product", [](Checker &c) {
        checkProduct(c, 144, 13, 11, 0x7fffffff, "p");
    });

    std::string primes = sievePrinted(20);
    std::string wrong = primes;
    wrong[0] = '5';
    expectVerdict(true, "printed", [&](Checker &c) {
        checkSame(c, primes, sievePrinted(20), "s");
    });
    expectVerdict(false, "printed",
                  [&](Checker &c) { checkSame(c, wrong, primes, "s"); });
    expectVerdict(false, "sieve reference", [&](Checker &c) {
        checkSame(c, sievePrinted(20), sievePrinted(22), "s");
    });

    expectVerdict(true, "campaign sum", [](Checker &c) {
        checkCampaignSum(c, 10, 3, 1, 2, 16, "c");
    });
    expectVerdict(false, "campaign sum", [](Checker &c) {
        checkCampaignSum(c, 10, 3, 1, 2, 17, "c");
    });
    expectVerdict(true, "within",
                  [](Checker &c) { checkWithin(c, 1.05, 1.0, 0.1, "w"); });
    expectVerdict(false, "within",
                  [](Checker &c) { checkWithin(c, 1.25, 1.0, 0.1, "w"); });

    // The models themselves: a GCD unit converges on std::gcd, and a
    // multiplier unit on the product.
    for (const BigUnit &u : d.units) {
        if (u.kind == BigUnit::Kind::Gcd) {
            Checker c(false);
            checkGcd(c, truth.at(u.name + "a"), truth.at(u.name + "b"),
                     u.a, u.b, 0x7fffffff, u.name);
            bad += c.ok() ? 0 : 1;
        } else if (u.kind == BigUnit::Kind::Mult) {
            Checker c(false);
            checkProduct(c, truth.at(u.name + "acc"), u.a, u.b,
                         0x7fffffff, u.name);
            bad += c.ok() ? 0 : 1;
        }
    }
    return bad;
}

void
usage()
{
    std::cerr << "usage: e2ebench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR\n"
                 "                --out-dir DIR\n"
                 "       e2ebench --self-test | --render-sieve-template\n";
}

} // namespace

} // namespace e2e

int
main(int argc, char **argv)
{
    using namespace e2e;

    for (int sig : {SIGINT, SIGTERM, SIGHUP})
        std::signal(sig, onSignal);

    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--self-test") {
            int bad = selfTest();
            std::cout << (bad ? "self-test FAILED\n" : "self-test ok\n");
            return bad ? 1 : 0;
        } else if (a == "--render-sieve-template") {
            std::cout << renderSieveTemplate();
            return 0;
        } else if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            o.seed = std::stoull(value());
        } else if (a == "--seconds") {
            o.seconds = std::stod(value());
        } else if (a == "--trace") {
            o.trace = value() != "0";
        } else if (a == "--work-dir") {
            o.workDir = value();
        } else if (a == "--out-dir") {
            o.outDir = value();
        } else {
            usage();
            return 2;
        }
    }
    if (o.workDir.empty() || o.outDir.empty() || o.seconds <= 0) {
        usage();
        return 2;
    }

    Checker chk;
    SpanLog spans;
    Result r;
    try {
        std::filesystem::create_directories(o.workDir);
        if (o.trace)
            std::filesystem::create_directories(o.outDir);
        using Run = Result (*)(const Options &, Checker &, SpanLog &);
        const std::pair<std::string, Run> workloads[] = {
            {"big_design", runBigDesign},
            {"sieve", runSieve},
            {"serve_sessions", runServeSessions},
        };
        auto named = [&](const auto &w) { return w.first == o.workload; };
        if (std::none_of(std::begin(workloads), std::end(workloads), named)) {
            std::cerr << "unknown workload " << o.workload << "\n";
            return 2;
        }
        for (const auto &[name, run] : workloads) {
            const bool mine = o.workload == name;
            if (!mine && !o.trace)
                continue;
            Options own = o;
            own.seconds = mine ? o.seconds : 0;
            Result part = run(own, chk, spans);
            for (const auto &[metric, m] : part.metrics) {
                if (!r.metrics.emplace(metric, m).second)
                    throw std::logic_error("metric " + metric + " twice");
            }
            r.attempted += part.attempted;
            r.failed += part.failed;
        }
        if (o.trace)
            spans.write(o.outDir + "/" + o.workload + ".bench.json");
        // The checker must still tell wrong from right.
        chk.expect(selfTest() == 0, "checker self-test");
    } catch (const std::exception &e) {
        std::cerr << "e2ebench: " << o.workload << " failed: " << e.what()
                  << "\n";
        return 1;
    }

    std::cout << "{\"correct\": " << (chk.ok() ? "true" : "false")
              << ", \"attempted\": " << r.attempted
              << ", \"failed\": " << r.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : r.metrics) {
        std::cout << (first ? "" : ", ") << "\"" << name
                  << "\": {\"value\": " << fmtDouble(m.value)
                  << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    std::cout << "}}" << std::endl;
    return 0;
}
