/**
 * @file
 * The benchmark's inputs — spec texts it generates from a seed or
 * keeps as committed files — and its own models of what each should
 * compute. Nothing here calls into the simulator: the models are the
 * outside computation every workload is checked against.
 */

#ifndef E2EBENCH_DESIGNS_HH
#define E2EBENCH_DESIGNS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/** SplitMix64: the benchmark's only randomness, driven by --seed. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : s_(seed) {}

    uint64_t next();

    /** Uniform in [lo, hi]. */
    int64_t range(int64_t lo, int64_t hi);

  private:
    uint64_t s_;
};

/// @{ big_design: many small units, some feeding others.

struct BigUnit
{
    enum class Kind
    {
        Counter, ///< w-bit incrementer
        Lfsr,    ///< 16-bit Fibonacci LFSR, taps 16 14 13 11
        Gcd,     ///< subtractive Euclid
        Mult,    ///< shift-add multiplier
        Mixer,   ///< ALU chain over other units' registers
    };

    Kind kind = Kind::Counter;
    std::string name; ///< prefix of every component of the unit
    int width = 0;    ///< counter width
    int32_t a = 0;    ///< GCD a / multiplicand / LFSR seed
    int32_t b = 0;    ///< GCD b / multiplier

    /// @{ Mixer: inputs are (unit, register) pairs; ops[i] combines
    /// the running value with input i+1 (ALU function codes).
    std::vector<std::pair<int, int>> inputs;
    std::vector<int> ops;
    int combFrom = -1; ///< mixer whose last ALU replaces input 0
    int depth = 1;     ///< mixers on the longest combinational path
    /// @}

    /** Register (memory) names, in model order. */
    std::vector<std::string> registers() const;
};

struct BigDesign
{
    std::string text;
    std::vector<BigUnit> units;
    size_t components = 0;
};

/** Generate a design of at least `components` components. */
BigDesign makeBigDesign(uint64_t seed, size_t components);

/** The benchmark's own cycle model: every unit register's value
 *  after `cycles` cycles, as (memory name, value). */
std::vector<std::pair<std::string, int32_t>>
modelBigDesign(const BigDesign &d, uint64_t cycles);

/// @}

/// @{ Small machines for sieve and serve_sessions.

/** Subtractive GCD of `a`, `b` (width-bit operands); result in a, b. */
std::string gcdSpec(int32_t a, int32_t b, bool traced);

/** Cycles until the GCD machine's registers hold the result
 *  (including its one load cycle). */
uint64_t gcdCycles(int32_t a, int32_t b);

/** Shift-add multiplier of `mcand` by a 16-bit `mplier`; product in
 *  acc after multCycles() cycles. */
std::string multSpec(int32_t mcand, int32_t mplier, bool traced);
constexpr uint64_t kMultCycles = 18;

/** The thesis Appendix D stack machine running the Sieve of
 *  Eratosthenes over the odd numbers 3 .. 2*size+3, from the
 *  committed template `specs/stack_sieve.asim.in`. */
std::string sieveSpec(int size);

/** What the sieve machine prints: every odd prime up to 2*size+3,
 *  one per line, then their count — computed by trial division. */
std::string sievePrinted(int size);

/** The microcode state the machine parks in after HALT. */
constexpr int32_t kSieveHaltState = 3;

/** Largest sieve the machine's 256-word RAM holds. */
constexpr int kSieveMaxSize = 54;

/** Write the sieve template from the machine builder under
 *  src/machines (the only use of that module). */
std::string renderSieveTemplate();

/// @}

} // namespace e2e

#endif // E2EBENCH_DESIGNS_HH
