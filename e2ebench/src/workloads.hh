/**
 * @file
 * The three workloads. Each measures for Options::seconds, checks its
 * outputs against the benchmark's own models, and fills a Result with
 * the end-to-end metrics (untraced run) or the per-layer metrics
 * (traced run).
 */

#ifndef E2EBENCH_WORKLOADS_HH
#define E2EBENCH_WORKLOADS_HH

#include "common.hh"

namespace e2e {

Result runBigDesign(const Options &o, Checker &chk, SpanLog &spans);
Result runSieve(const Options &o, Checker &chk, SpanLog &spans);
Result runServeSessions(const Options &o, Checker &chk, SpanLog &spans);

/** Signal-safe teardown hook: the daemon pid serve_sessions runs, or
 *  0. main()'s signal handler stops it before the process exits. */
extern volatile pid_t gDaemonPid;

} // namespace e2e

#endif // E2EBENCH_WORKLOADS_HH
