// Regenerates e2ebench/specs/stack_sieve.asim.in from the stack machine
// builder under src/machines:
//
//   .bench_build/e2ebench --render-sieve-template
//       > e2ebench/specs/stack_sieve.asim.in   (one command line)
//
// The committed file, not this function, is what the benchmark runs,
// so a change under src/machines cannot silently change a workload.

#include <stdexcept>
#include <string>

#include "designs.hh"
#include "machines/stack_machine.hh"

namespace e2e {

std::string
renderSieveTemplate()
{
    // The sieve bound (size + 1) is the only program word that depends
    // on the size: find it by assembling two sizes and diffing.
    std::vector<int32_t> a = asim::sieveProgram(10);
    std::vector<int32_t> b = asim::sieveProgram(11);
    if (a.size() != b.size())
        throw std::runtime_error("sieve program length depends on size");
    constexpr int32_t kMarker = 1234567;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i] == b[i])
            continue;
        if (a[i] != 11 || b[i] != 12)
            throw std::runtime_error("unexpected size-dependent word");
        a[i] = kMarker;
    }
    std::string text =
        asim::stackMachineSpec(a, 1000000, /*traced=*/true);
    const std::string marker = std::to_string(kMarker);
    for (size_t at; (at = text.find(marker)) != std::string::npos;)
        text.replace(at, marker.size(), "@LIMIT@");
    return text;
}

} // namespace e2e
