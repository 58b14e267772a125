/**
 * @file
 * Shared pieces of the end-to-end benchmark binary: clocks and raw
 * sample statistics, the correctness checker, the result line, the
 * benchmark's own span log (Chrome trace_event JSON, the format
 * `--trace-out` writes), and child-process bookkeeping.
 */

#ifndef E2EBENCH_COMMON_HH
#define E2EBENCH_COMMON_HH

#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

/** Captured during static initialization: this process's start
 *  as far as a cold set-up time is concerned. */
Clock::time_point processStart();

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
secondsSince(Clock::time_point a)
{
    return secondsBetween(a, Clock::now());
}

/** Median of raw samples (mean of the middle two for even counts). */
double median(std::vector<double> v);

/** Arithmetic mean of raw samples. */
double mean(const std::vector<double> &v);

/** Nearest-rank percentile (q in (0,1]) of raw samples. */
double percentile(std::vector<double> v, double q);

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workDir; ///< scratch for state dirs, native builds
    std::string outDir;  ///< trace files of a traced run
    /** Host cores (campaign fan-out, clients). */
    unsigned threads = std::max(1u, std::thread::hardware_concurrency());
};

/**
 * Correctness checks against values computed outside the program.
 * A failed check is recorded (and printed to stderr), never thrown:
 * the run finishes and reports `correct: false`.
 */
class Checker
{
  public:
    /** `verbose`: print each failure to stderr as it happens. */
    explicit Checker(bool verbose = true) : verbose_(verbose) {}

    /** Record `what` as failed unless `cond`. Returns `cond`. */
    bool expect(bool cond, const std::string &what);

    template <typename A, typename B>
    bool
    expectEq(const A &got, const B &want, const std::string &what)
    {
        return expect(got == want, what);
    }

    bool ok() const { return failures_.empty(); }

  private:
    std::mutex mu_;
    bool verbose_;
    std::vector<std::string> failures_;
};

/** One metric of the result line. */
struct Metric
{
    double value = 0;
    std::string unit;
};

/** What a workload hands back to main(). */
struct Result
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, Metric> metrics;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }
};

/**
 * The benchmark's own spans around its calls into each layer, kept in
 * memory and written as `{"traceEvents": [...]}` when the run ends —
 * readable by tools/trace2summary.py like a program trace.
 */
class SpanLog
{
  public:
    /** RAII span; records on destruction (or finish()). */
    class Scope
    {
      public:
        Scope(SpanLog &log, std::string name);
        ~Scope() { finish(); }
        /** End the span now; returns its duration in seconds. */
        double finish();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log_;
        std::string name_;
        Clock::time_point start_;
        double seconds_ = -1;
    };

    void add(const std::string &name, Clock::time_point start,
             Clock::time_point end);

    /** Write the trace file. @throws std::runtime_error */
    void write(const std::string &path) const;

  private:
    struct Event
    {
        std::string name;
        double tsUs = 0;
        double durUs = 0;
    };
    mutable std::mutex mu_;
    std::vector<Event> events_;
};

/** Peak resident set of this process (VmHWM), MiB. */
double selfPeakRssMb();

/** Peak resident set of process `pid` (VmHWM), MiB; -1 if gone. */
double peakRssMb(pid_t pid);

/** Direct children of `pid` (all threads). */
std::vector<pid_t> childrenOf(pid_t pid);

/** Read a whole file. @throws std::runtime_error */
std::string readFile(const std::string &path);

/** Remove a directory tree, ignoring errors. */
void removeTree(const std::string &path);

/** Shortest round-trip text of a double (all its digits). */
std::string fmtDouble(double v);

} // namespace e2e

#endif // E2EBENCH_COMMON_HH
