/**
 * @file
 * serve_sessions: one client process drives a launched asim-serve
 * over min(4, nproc) Unix-socket connections in a closed loop (each
 * connection sends its next request when the previous reply is in).
 *
 * The session mix is seeded: per connection one sieve session on
 * native (every native session shares one host compile), one on
 * interp, and three vm sessions drawn from GCD, multiplier and sieve
 * specs, GCD/multiplier ones sometimes with the thesis trace
 * captured. Each session runs:
 *
 *   OPEN, small RUNs to half way, VALUE, SNAPSHOT, 2 RUNs, RESTORE,
 *   the same 2 RUNs again (must replay byte for byte), EVICT, re-OPEN
 *   (resumes from the parked checkpoint), RUNs to the end, VALUE,
 *   CLOSE.
 *
 * A round is every connection running all its sessions once; rounds
 * repeat until the run's time is up. Latencies are raw per-request
 * samples, never the daemon's histograms, and requests of different
 * engines are never mixed in one percentile.
 */

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <exception>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>

#include "checks.hh"
#include "designs.hh"
#include "serve/client.hh"
#include "sim/simulation.hh"
#include "workloads.hh"

#ifndef E2E_SERVE_BIN
#define E2E_SERVE_BIN "asim-serve"
#endif

namespace e2e {

namespace {

using asim::serve::ServeClient;
using asim::serve::SessionIo;

constexpr unsigned kMaxConnections = 4;
constexpr int32_t kWidthMask = 0x7fffffff;

enum class Kind { Gcd, Mult, Sieve };

struct Plan
{
    std::string name;
    Kind kind = Kind::Gcd;
    std::string engine = "vm";
    bool trace = false;
    std::string text;
    int32_t a = 0, b = 0;
    uint64_t total = 0; ///< cycles to the result
    uint64_t chunk = 1; ///< cycles per RUN
    std::string printed; ///< sieve: the benchmark's own primes

    SessionIo io() const
    {
        return kind == Kind::Sieve ? SessionIo::Script : SessionIo::Null;
    }

    std::vector<std::string> resultNames() const
    {
        switch (kind) {
          case Kind::Gcd: return {"a", "b"};
          case Kind::Mult: return {"acc"};
          case Kind::Sieve: return {"state"};
        }
        return {};
    }
};

/** Everything a session returned: the byte stream of its timeline
 *  (RUN output, with the restored pass once), both passes around the
 *  RESTORE, and the result registers. */
struct Transcript
{
    std::string timeline, passA, passB;
    std::vector<int32_t> midValues, valuesA, valuesB, finalValues;
    uint64_t finalCycle = 0;

    bool operator==(const Transcript &) const = default;
};

/** Raw latency samples of one connection, split by engine. */
struct Samples
{
    std::vector<double> open, resume, evict, run, value, snapshot,
        restore, close;
    std::vector<double> nativeRun, nativeSnapshot, interpRun;
    uint64_t vmRequests = 0, requests = 0;

    void merge(const Samples &o)
    {
        auto cat = [](std::vector<double> &a, const std::vector<double> &b) {
            a.insert(a.end(), b.begin(), b.end());
        };
        cat(open, o.open); cat(resume, o.resume); cat(evict, o.evict);
        cat(run, o.run); cat(value, o.value); cat(snapshot, o.snapshot);
        cat(restore, o.restore); cat(close, o.close);
        cat(nativeRun, o.nativeRun); cat(nativeSnapshot, o.nativeSnapshot);
        cat(interpRun, o.interpRun);
        vmRequests += o.vmRequests;
        requests += o.requests;
    }
};

/** Rounds whose requests the traced run records as spans (~2700
 *  requests a round; all of a 30 s run would be ~90 MB of JSON). */
constexpr int kSpanRounds = 16;

/** Cycles per RUN of GCD and sieve sessions, on either engine. */
constexpr uint64_t kChunk = 64;

/** Every seed builds the same mix; the seed draws the operands and
 *  the sieve size. Per connection: a sieve on native, then a GCD, a
 *  multiplier and a sieve on vm, then a sieve on interp; the GCD's
 *  trace is captured on even connections, the multiplier's on odd
 *  ones. The latency percentiles come from the sieve sessions only,
 *  so the engines are compared on the same requests and no
 *  percentile straddles unlike ones; every vm request counts in
 *  serve.requests_per_s. */
std::vector<Plan>
makePlans(uint64_t seed, unsigned connections, uint64_t sieveHalt,
          int sieveSize)
{
    Rng rng(seed * 0xd1b54a32d192ed03ull + 5);
    const std::string sieveText = sieveSpec(sieveSize);
    const std::string printed = sievePrinted(sieveSize);
    auto sievePlan = [&](const std::string &engine) {
        Plan p;
        p.kind = Kind::Sieve;
        p.engine = engine;
        p.text = sieveText;
        p.printed = printed;
        p.total = sieveHalt;
        p.chunk = kChunk;
        return p;
    };
    std::vector<Plan> plans;
    for (unsigned c = 0; c < connections; ++c) {
        plans.push_back(sievePlan("native"));

        Plan g;
        g.kind = Kind::Gcd;
        do { // operands whose subtractive Euclid takes 400..600 cycles
            g.a = int32_t(rng.range(500, 20000));
            g.b = int32_t(rng.range(500, 20000));
        } while (gcdCycles(g.a, g.b) < 400 || gcdCycles(g.a, g.b) > 600);
        g.trace = c % 2 == 0;
        g.text = gcdSpec(g.a, g.b, g.trace);
        g.total = gcdCycles(g.a, g.b);
        g.chunk = kChunk;
        plans.push_back(std::move(g));

        Plan m;
        m.kind = Kind::Mult;
        m.a = int32_t(rng.range(1, 0x7fff));
        m.b = int32_t(rng.range(1, 0xffff));
        m.trace = c % 2 == 1;
        m.text = multSpec(m.a, m.b, m.trace);
        m.total = kMultCycles;
        m.chunk = 2;
        plans.push_back(std::move(m));

        plans.push_back(sievePlan("vm"));
        plans.push_back(sievePlan("interp"));
    }
    for (size_t i = 0; i < plans.size(); ++i)
        plans[i].name = "e2e-s" + std::to_string(i);
    return plans;
}

/** The session script against the daemon. With `spans` (the traced
 *  run), every request is also recorded as a span named after its
 *  opcode. */
Transcript
runDaemon(ServeClient &c, const Plan &p, Samples &s, uint64_t &id,
          bool alreadyOpen, Checker &chk, SpanLog *spans)
{
    const bool vm = p.engine == "vm";
    const bool sampled = p.kind == Kind::Sieve;
    const bool native = p.engine == "native";
    auto timed = [&](const char *span, std::vector<double> *samples,
                     double scale, const auto &fn) {
        Clock::time_point t = Clock::now();
        fn();
        Clock::time_point end = Clock::now();
        if (spans)
            spans->add(span, t, end);
        if (samples && sampled)
            samples->push_back(secondsBetween(t, end) * scale);
        ++s.requests;
        if (vm)
            ++s.vmRequests;
    };
    std::vector<double> *runSamples =
        vm ? &s.run : native ? &s.nativeRun : &s.interpRun;
    Transcript t;
    uint64_t cycle = 0;
    auto run = [&](std::string &sink) {
        timed("serve.run", runSamples, 1e6, [&] {
            auto rr = c.run(id, p.chunk);
            sink += rr.output;
            cycle = rr.cycle;
        });
    };
    auto values = [&](std::vector<int32_t> &out) {
        out.clear();
        for (const auto &n : p.resultNames()) {
            timed("serve.value", vm ? &s.value : nullptr, 1e6,
                  [&] { out.push_back(c.value(id, n)); });
        }
    };

    if (!alreadyOpen) {
        ServeClient::OpenOptions oo;
        oo.name = p.name;
        oo.specText = p.text;
        oo.engine = p.engine;
        oo.io = p.io();
        oo.trace = p.trace;
        timed("serve.open", vm ? &s.open : nullptr, 1e3,
              [&] { id = c.open(oo).id; });
    }
    while (cycle + p.chunk <= p.total / 2 || cycle == 0)
        run(t.timeline);
    values(t.midValues);
    std::string blob;
    timed("serve.snapshot",
          vm ? &s.snapshot : native ? &s.nativeSnapshot : nullptr, 1e6,
          [&] { blob = c.snapshot(id); });
    const uint64_t mark = cycle;
    run(t.passA);
    run(t.passA);
    values(t.valuesA);
    uint64_t back = 0;
    timed("serve.restore", vm ? &s.restore : nullptr, 1e6,
          [&] { back = c.restore(id, blob); });
    chk.expectEq(back, mark, p.name + " RESTORE rewinds to the snapshot");
    run(t.passB);
    run(t.passB);
    values(t.valuesB);
    t.timeline += t.passA;

    timed("serve.evict", vm ? &s.evict : nullptr, 1e3,
          [&] { c.evict(id); });
    ServeClient::OpenOptions attach;
    attach.name = p.name;
    attach.engine = p.engine;
    ServeClient::OpenResult back2;
    timed("serve.resume", vm ? &s.resume : nullptr, 1e3,
          [&] { back2 = c.open(attach); });
    chk.expect(back2.resumed && back2.id == id && back2.cycle == cycle,
               p.name + " re-OPEN resumes the parked session");
    while (cycle < p.total)
        run(t.timeline);
    values(t.finalValues);
    t.finalCycle = cycle;
    timed("serve.close", vm ? &s.close : nullptr, 1e6,
          [&] { c.closeSession(id); });
    return t;
}

/** The same script in-process through Simulation, on vm, never
 *  parked. `runUs` receives each RUN's latency. */
Transcript
replayInProcess(const Plan &p, std::vector<double> *runUs)
{
    std::ostringstream out;
    asim::SimulationOptions so;
    so.specText = p.text;
    so.engine = "vm";
    so.ioMode = p.kind == Kind::Sieve ? asim::IoMode::Script
                                      : asim::IoMode::Null;
    so.ioOut = &out;
    if (p.trace)
        so.traceStream = &out;
    asim::Simulation sim(so);

    Transcript t;
    auto run = [&](std::string &sink) {
        size_t before = out.str().size();
        Clock::time_point t0 = Clock::now();
        sim.run(p.chunk);
        if (runUs)
            runUs->push_back(secondsSince(t0) * 1e6);
        sink += out.str().substr(before);
    };
    auto values = [&](std::vector<int32_t> &v) {
        v.clear();
        for (const auto &n : p.resultNames())
            v.push_back(sim.value(n));
    };
    while (sim.cycle() + p.chunk <= p.total / 2 || sim.cycle() == 0)
        run(t.timeline);
    values(t.midValues);
    asim::EngineSnapshot snap = sim.snapshot();
    run(t.passA);
    run(t.passA);
    values(t.valuesA);
    sim.restore(snap);
    run(t.passB);
    run(t.passB);
    values(t.valuesB);
    t.timeline += t.passA;
    while (sim.cycle() < p.total)
        run(t.timeline);
    values(t.finalValues);
    t.finalCycle = sim.cycle();
    return t;
}

/** Results the benchmark computes itself. */
void
checkResult(Checker &chk, const Plan &p, const Transcript &t)
{
    checkSame(chk, t.passB, t.passA,
              p.name + " replay after RESTORE is byte-identical");
    chk.expect(t.valuesA == t.valuesB,
               p.name + " values after the replay match");
    const auto &v = t.finalValues;
    switch (p.kind) {
      case Kind::Gcd:
        checkGcd(chk, v.at(0), v.at(1), p.a, p.b, kWidthMask, p.name);
        break;
      case Kind::Mult:
        checkProduct(chk, v.at(0), p.a, p.b, kWidthMask, p.name);
        break;
      case Kind::Sieve:
        chk.expect(v.at(0) == kSieveHaltState, p.name + " halted");
        checkSame(chk, t.timeline, p.printed, p.name + " printed primes");
        break;
    }
}

/** The launched daemon. Stops it (and whatever it started) on every
 *  path out of the workload. */
class Daemon
{
  public:
    Daemon(const std::string &socket, const std::string &stateDir)
        : socket_(socket)
    {
        pid_ = fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            // Die with the benchmark process, however it ends.
            prctl(PR_SET_PDEATHSIG, SIGTERM);
            std::string sock = "--socket=" + socket;
            std::string state = "--state-dir=" + stateDir;
            execl(E2E_SERVE_BIN, E2E_SERVE_BIN, sock.c_str(),
                  state.c_str(), "--evict-after-ms=0", "--quiet",
                  static_cast<char *>(nullptr));
            _exit(127);
        }
        gDaemonPid = pid_;
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    pid_t pid() const { return pid_; }

    /** Wait until the daemon accepts connections. */
    void
    waitReady()
    {
        Clock::time_point t0 = Clock::now();
        for (;;) {
            try {
                ServeClient probe("unix:" + socket_);
                return;
            } catch (const std::exception &) {
            }
            int status = 0;
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = 0;
                gDaemonPid = 0;
                throw std::runtime_error("asim-serve exited at start-up");
            }
            if (secondsSince(t0) > 20)
                throw std::runtime_error("asim-serve never came up");
            usleep(2000);
        }
    }

    /** Remember the build directories of the daemon's native child
     *  processes, in case it has to be killed before it removes
     *  them itself. */
    void
    noteNativeDirs()
    {
        for (pid_t child : childrenOf(pid_)) {
            std::error_code ec;
            auto exe = std::filesystem::read_symlink(
                "/proc/" + std::to_string(child) + "/exe", ec);
            if (!ec && exe.parent_path().filename().string().rfind(
                           "asim2-native-", 0) == 0) {
                nativeDirs_.push_back(exe.parent_path().string());
            }
        }
    }

    /** SHUTDOWN over the protocol, then reap. */
    void
    shutdown()
    {
        ServeClient("unix:" + socket_).shutdownServer();
        stop();
    }

  private:
    void
    stop()
    {
        if (pid_ > 0) {
            int status = 0;
            bool gone = false;
            // After SHUTDOWN it exits by itself; otherwise SIGTERM
            // parks its sessions and exits; SIGKILL as the last word.
            for (int sig : {0, SIGTERM, SIGKILL}) {
                if (sig)
                    kill(pid_, sig);
                for (int i = 0; i < 500 && !gone; ++i) {
                    gone = waitpid(pid_, &status, WNOHANG) == pid_;
                    if (!gone)
                        usleep(10000);
                }
                if (gone)
                    break;
                if (sig == SIGTERM) {
                    for (pid_t child : childrenOf(pid_))
                        kill(child, SIGKILL);
                }
            }
            pid_ = 0;
            gDaemonPid = 0;
        }
        for (const auto &dir : nativeDirs_)
            removeTree(dir);
        nativeDirs_.clear();
    }

    std::string socket_;
    pid_t pid_ = 0;
    std::vector<std::string> nativeDirs_;
};

} // namespace

Result
runServeSessions(const Options &o, Checker &chk, SpanLog &spans)
{
    Result r;
    SpanLog *traced = o.trace ? &spans : nullptr;
    const unsigned connections = std::min(o.threads, kMaxConnections);
    Rng rng(o.seed * 0xa0761d6478bd642full + 9);
    const int sieveSize = int(rng.range(kSieveMaxSize - 6, kSieveMaxSize));

    // Halt cycle of the sieve machine, from the benchmark's own run
    // on an in-process engine; every session checks it independently.
    uint64_t sieveHalt = 0;
    {
        asim::SimulationOptions so;
        so.specText = sieveSpec(sieveSize);
        so.engine = "vm";
        asim::Simulation sim(so);
        sieveHalt = sim.runUntilValue("state", kSieveHaltState, 2000000);
    }
    const std::vector<Plan> plans =
        makePlans(o.seed, connections, sieveHalt, sieveSize);

    const std::string dir = o.workDir + "/serve";
    std::filesystem::create_directories(dir);
    Daemon daemon(dir + "/sock", dir + "/state");
    daemon.waitReady();

    // ----- Threads: one connection each, a barrier per round -----
    std::vector<Samples> samples(connections);
    // Per connection, after each round: vm RUN samples so far (for the
    // per-block tails).
    std::vector<std::vector<size_t>> runMarks(connections);
    std::vector<std::vector<Transcript>> firstRound(connections);
    std::vector<double> roundSeconds;
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex errorMu;
    double setup = 0;
    bool more = true;
    int phase = 0;
    Clock::time_point t0, roundStart;
    auto onPhase = [&]() noexcept {
        // Phases: 0 native OPEN, 1 other OPENs, then one per round.
        if (phase == 1) {
            setup = secondsSince(processStart());
            daemon.noteNativeDirs();
            t0 = roundStart = Clock::now();
        } else if (phase >= 2) {
            roundSeconds.push_back(secondsSince(roundStart));
            roundStart = Clock::now();
            more = !failed && (secondsSince(t0) < o.seconds ||
                               roundSeconds.size() < 3);
        }
        ++phase;
    };
    std::barrier sync(std::ptrdiff_t(connections), onPhase);

    auto worker = [&](unsigned k) {
        try {
            ServeClient client("unix:" + dir + "/sock");
            std::vector<const Plan *> mine;
            for (size_t i = k; i < plans.size(); i += connections)
                mine.push_back(&plans[i]);
            std::vector<uint64_t> ids(mine.size());
            Samples &s = samples[k];

            // Set-up: the native sessions share one host compile, so
            // the first is opened alone.
            auto open = [&](size_t i) {
                ServeClient::OpenOptions oo;
                oo.name = mine[i]->name;
                oo.specText = mine[i]->text;
                oo.engine = mine[i]->engine;
                oo.io = mine[i]->io();
                oo.trace = mine[i]->trace;
                Clock::time_point t = Clock::now();
                ids[i] = client.open(oo).id;
                if (traced)
                    traced->add("serve.open", t, Clock::now());
            };
            if (k == 0)
                open(0);
            sync.arrive_and_wait();
            for (size_t i = k == 0 ? 1 : 0; i < mine.size(); ++i)
                open(i);
            sync.arrive_and_wait();

            for (int round = 0; more; ++round) {
                for (size_t i = 0; i < mine.size(); ++i) {
                    Transcript t = runDaemon(client, *mine[i], s, ids[i],
                                             round == 0, chk,
                                             round < kSpanRounds ? traced
                                                                 : nullptr);
                    if (round == 0) {
                        checkResult(chk, *mine[i], t);
                        firstRound[k].push_back(std::move(t));
                    } else if (!(t == firstRound[k][i])) {
                        chk.expect(false, mine[i]->name +
                                              " differs from round 0");
                    }
                }
                runMarks[k].push_back(s.run.size());
                sync.arrive_and_wait();
            }
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(errorMu);
                if (!error)
                    error = std::current_exception();
            }
            failed = true;
            sync.arrive_and_drop();
        }
    };
    std::vector<std::thread> threads;
    for (unsigned k = 0; k < connections; ++k)
        threads.emplace_back(worker, k);
    for (auto &t : threads)
        t.join();
    const double wall = secondsSince(t0);
    if (error)
        std::rethrow_exception(error);

    // serve.run_p99_us: median over blocks of kBlockRounds rounds of
    // the block's p99 (each block holds well over ten samples beyond
    // its p99), so a stall on the host that hits a minority of rounds
    // leaves it put. It still follows the host's steal time too
    // closely to gate on (README).
    constexpr size_t kBlockRounds = 10;
    const size_t rounds = roundSeconds.size();
    std::vector<double> blockP99;
    for (size_t b = 0; b + kBlockRounds <= rounds || b == 0;
         b += kBlockRounds) {
        const size_t last = std::min(b + kBlockRounds, rounds) - 1;
        std::vector<double> block;
        for (unsigned k = 0; k < connections; ++k) {
            const auto &run = samples[k].run;
            block.insert(block.end(),
                         run.begin() + (b ? runMarks[k][b - 1] : 0),
                         run.begin() + runMarks[k][last]);
        }
        blockP99.push_back(percentile(block, 0.99));
    }
    const double daemonRss = peakRssMb(daemon.pid());
    daemon.shutdown();
    removeTree(dir);

    Samples all;
    for (const auto &s : samples)
        all.merge(s);
    r.attempted = all.requests;

    // Daemon results equal an in-process replay that was never
    // parked (on vm, for the native sessions too).
    std::vector<double> inprocRunUs;
    uint64_t traceBytes = 0;
    for (unsigned k = 0; k < connections; ++k) {
        for (size_t i = 0; i < firstRound[k].size(); ++i) {
            const Plan &p = plans[k + i * connections];
            Transcript replay = replayInProcess(
                p, p.engine == "vm" && p.kind == Kind::Sieve ? &inprocRunUs
                                                           : nullptr);
            chk.expect(replay == firstRound[k][i],
                       p.name + " (" + p.engine +
                           ") daemon transcript equals the in-process "
                           "replay");
            checkResult(chk, p, replay);
            if (p.trace)
                traceBytes += replay.timeline.size() + replay.passB.size();
        }
    }

    if (!o.trace) {
        // Simulated cycles per second as the client sees them: a
        // sieve RUN's cycles over its median round trip.
        r.set("setup_s", setup, "s");
        r.set("total_s", mean(roundSeconds), "s");
        r.set("peak_rss_mb", daemonRss, "MiB");
        r.set("vm_cycles_per_s", double(kChunk) * 1e6 / median(all.run),
              "1/s");
        r.set("interp_cycles_per_s",
              double(kChunk) * 1e6 / median(all.interpRun), "1/s");
    } else {
        r.set("serve.requests_per_s", double(all.vmRequests) / wall, "1/s");
        r.set("serve.native_run_us", median(all.nativeRun), "us");
        r.set("serve.native_snapshot_us", median(all.nativeSnapshot), "us");
        r.set("serve.open_ms", median(all.open), "ms");
        r.set("serve.resume_ms", median(all.resume), "ms");
        r.set("serve.evict_ms", median(all.evict), "ms");
        r.set("serve.run_us", median(all.run), "us");
        r.set("serve.run_p99_us", median(blockP99), "us");
        r.set("serve.value_us", median(all.value), "us");
        r.set("serve.snapshot_us", median(all.snapshot), "us");
        r.set("serve.restore_us", median(all.restore), "us");
        r.set("serve.close_us", median(all.close), "us");
        r.set("serve.trace_bytes", double(traceBytes), "B");
        r.set("serve.inprocess_run_us", median(inprocRunUs), "us");
    }
    return r;
}

} // namespace e2e
