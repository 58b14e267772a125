/**
 * @file
 * The correctness checks every workload applies, as small functions
 * over plain values so the self-test can feed each one a wrong
 * expectation and see it fail.
 */

#ifndef E2EBENCH_CHECKS_HH
#define E2EBENCH_CHECKS_HH

#include <cstdint>
#include <functional>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common.hh"

namespace e2e {

/** Every register the model predicts reads back as predicted. */
inline void
checkRegisters(Checker &chk,
               const std::vector<std::pair<std::string, int32_t>> &model,
               const std::function<int32_t(const std::string &)> &read,
               const std::string &label)
{
    size_t wrong = 0;
    std::string first;
    for (const auto &[name, want] : model) {
        int32_t got = read(name);
        if (got != want && wrong++ == 0) {
            first = name + " = " + std::to_string(got) + ", model " +
                    std::to_string(want);
        }
    }
    chk.expect(wrong == 0, label + ": " + std::to_string(wrong) +
                               " registers differ from the model (" +
                               first + ")");
}

/** Both GCD registers hold gcd(a, b) under the width mask. */
inline void
checkGcd(Checker &chk, int32_t gotA, int32_t gotB, int32_t a, int32_t b,
         int32_t mask, const std::string &label)
{
    int32_t want = std::gcd(a, b) & mask;
    chk.expect((gotA & mask) == want && (gotB & mask) == want,
               label + ": gcd(" + std::to_string(a) + ", " +
                   std::to_string(b) + ") read " + std::to_string(gotA) +
                   "/" + std::to_string(gotB) + ", want " +
                   std::to_string(want));
}

/** The accumulator holds a * b under the width mask. */
inline void
checkProduct(Checker &chk, int32_t got, int32_t a, int32_t b,
             int32_t mask, const std::string &label)
{
    int32_t want = int32_t(int64_t(a) * int64_t(b)) & mask;
    chk.expect((got & mask) == want,
               label + ": " + std::to_string(a) + " * " +
                   std::to_string(b) + " read " + std::to_string(got) +
                   ", want " + std::to_string(want));
}

/** Two byte streams are identical. */
inline void
checkSame(Checker &chk, const std::string &got, const std::string &want,
          const std::string &label)
{
    if (got == want) {
        chk.expect(true, label);
        return;
    }
    size_t at = 0;
    while (at < got.size() && at < want.size() && got[at] == want[at])
        ++at;
    chk.expect(false, label + ": differ at byte " + std::to_string(at) +
                          " (" + std::to_string(got.size()) + " vs " +
                          std::to_string(want.size()) + " bytes)");
}

/** Campaign class counts sum to the runs attempted. */
inline void
checkCampaignSum(Checker &chk, uint64_t masked, uint64_t sdc,
                 uint64_t hang, uint64_t fault, uint64_t runs,
                 const std::string &label)
{
    chk.expect(masked + sdc + hang + fault == runs,
               label + ": classes sum to " +
                   std::to_string(masked + sdc + hang + fault) + " of " +
                   std::to_string(runs) + " runs");
}

/** A layer sum or span total agrees with its reference within
 *  `bound` (a share of the reference). */
inline void
checkWithin(Checker &chk, double got, double ref, double bound,
            const std::string &label)
{
    bool ok = ref > 0 && got >= ref * (1 - bound) &&
              got <= ref * (1 + bound);
    chk.expect(ok, label + ": " + fmtDouble(got) + " vs " +
                       fmtDouble(ref) + " (bound " + fmtDouble(bound) +
                       ")");
}

} // namespace e2e

#endif // E2EBENCH_CHECKS_HH
