#include "designs.hh"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "common.hh"

#ifndef E2E_SPECS_DIR
#define E2E_SPECS_DIR "e2ebench/specs"
#endif

namespace e2e {

uint64_t
Rng::next()
{
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

int64_t
Rng::range(int64_t lo, int64_t hi)
{
    return lo + static_cast<int64_t>(next() % uint64_t(hi - lo + 1));
}

std::vector<std::string>
BigUnit::registers() const
{
    switch (kind) {
      case Kind::Counter:
        return {name + "c"};
      case Kind::Lfsr:
        return {name + "s"};
      case Kind::Gcd:
        return {name + "a", name + "b"};
      case Kind::Mult:
        return {name + "acc", name + "m", name + "q"};
      case Kind::Mixer:
        return {name + "r"};
    }
    return {};
}

namespace {

/** Mixer ALU functions: add, sub, AND, OR, XOR. */
constexpr int kMixerOps[] = {4, 5, 8, 9, 10};

/** Longest chain of mixers feeding one another combinationally. */
constexpr int kMaxMixerDepth = 8;

/** Every (definition line, declared names) of one unit. */
struct Emitted
{
    std::vector<std::string> names;
    std::ostringstream defs;

    void
    line(const std::string &name, const std::string &def)
    {
        names.push_back(name);
        defs << def << "\n";
    }
};

void
emitUnit(const BigUnit &u, const std::vector<BigUnit> &units,
         Emitted &e)
{
    const std::string &p = u.name;
    auto field = [&](std::pair<int, int> in) {
        return units[in.first].registers()[in.second] + ".0.15";
    };
    switch (u.kind) {
      case BigUnit::Kind::Counter:
        e.line(p + "n", "A " + p + "n 4 " + p + "c.0." +
                             std::to_string(u.width - 1) + " 1");
        e.line(p + "c", "M " + p + "c 0 " + p + "n 1 1");
        break;
      case BigUnit::Kind::Lfsr:
        e.line(p + "x1", "A " + p + "x1 10 " + p + "s.0 " + p + "s.2");
        e.line(p + "x2", "A " + p + "x2 10 " + p + "x1 " + p + "s.3");
        e.line(p + "x3", "A " + p + "x3 10 " + p + "x2 " + p + "s.5");
        e.line(p + "sn",
               "A " + p + "sn 1 0 " + p + "x3.0," + p + "s.1.15");
        e.line(p + "s", "M " + p + "s 0 " + p + "sn gop -1 " +
                             std::to_string(u.a));
        break;
      case BigUnit::Kind::Gcd:
        e.line(p + "gt", "A " + p + "gt 13 " + p + "b " + p + "a");
        e.line(p + "lt", "A " + p + "lt 13 " + p + "a " + p + "b");
        e.line(p + "ad", "A " + p + "ad 5 " + p + "a " + p + "b");
        e.line(p + "bd", "A " + p + "bd 5 " + p + "b " + p + "a");
        e.line(p + "an",
               "S " + p + "an " + p + "gt.0 " + p + "a " + p + "ad");
        e.line(p + "bn",
               "S " + p + "bn " + p + "lt.0 " + p + "b " + p + "bd");
        e.line(p + "a", "M " + p + "a 0 " + p + "an gop -1 " +
                             std::to_string(u.a));
        e.line(p + "b", "M " + p + "b 0 " + p + "bn gop -1 " +
                             std::to_string(u.b));
        break;
      case BigUnit::Kind::Mult:
        e.line(p + "ad", "S " + p + "ad " + p + "q.0 0 " + p + "m");
        e.line(p + "an", "A " + p + "an 4 " + p + "acc " + p + "ad");
        e.line(p + "mn", "A " + p + "mn 6 " + p + "m 1");
        e.line(p + "qn", "A " + p + "qn 2 " + p + "q.1.16 0");
        e.line(p + "acc", "M " + p + "acc 0 " + p + "an gop 1");
        e.line(p + "m", "M " + p + "m 0 " + p + "mn gop -1 " +
                             std::to_string(u.a));
        e.line(p + "q", "M " + p + "q 0 " + p + "qn gop -1 " +
                             std::to_string(u.b));
        break;
      case BigUnit::Kind::Mixer: {
        std::string prev =
            u.combFrom >= 0
                ? units[u.combFrom].name + "k" +
                      std::to_string(units[u.combFrom].ops.size() - 1) +
                      ".0.15"
                : field(u.inputs[0]);
        for (size_t i = 0; i < u.ops.size(); ++i) {
            std::string k = p + "k" + std::to_string(i);
            e.line(k, "A " + k + " " + std::to_string(u.ops[i]) + " " +
                          prev + " " + field(u.inputs[i + 1]));
            prev = k + ".0.15";
        }
        e.line(p + "r", "M " + p + "r 0 " + prev + " 1 1");
        break;
      }
    }
}

} // namespace

BigDesign
makeBigDesign(uint64_t seed, size_t components)
{
    Rng rng(seed * 0x2545f4914f6cdd1dull + 11);
    BigDesign d;
    Emitted e;
    // Shared start-up control, as in specs/gcd.asim: every seeded
    // register reads its initial value in cycle 0 (gop = 0) and
    // writes from cycle 1 on.
    e.line("gtick", "A gtick 4 gcnt 1");
    e.line("gstarted", "A gstarted 13 0 gcnt");
    e.line("gop", "S gop gstarted.0 0 1");
    e.line("gcnt", "M gcnt 0 gtick 1 1");

    std::vector<int> deck;
    while (e.names.size() < components) {
        BigUnit u;
        u.name = "u" + std::to_string(d.units.size());
        // Kinds are dealt in shuffled blocks of one each, so every
        // seed builds the same mix; the first block holds no mixer,
        // which needs other units to read.
        if (deck.empty()) {
            deck = {0, 1, 2, 3};
            if (!d.units.empty())
                deck.push_back(4);
            for (size_t i = deck.size() - 1; i > 0; --i)
                std::swap(deck[i], deck[size_t(rng.range(0, int64_t(i)))]);
        }
        int pick = deck.back();
        deck.pop_back();
        switch (pick) {
          case 0:
            u.kind = BigUnit::Kind::Counter;
            u.width = int(rng.range(4, 16));
            break;
          case 1:
            u.kind = BigUnit::Kind::Lfsr;
            u.a = int32_t(rng.range(1, 0xffff));
            break;
          case 2:
            u.kind = BigUnit::Kind::Gcd;
            u.a = int32_t(rng.range(1, 120));
            u.b = int32_t(rng.range(1, 120));
            break;
          case 3:
            u.kind = BigUnit::Kind::Mult;
            u.a = int32_t(rng.range(1, 4095));
            u.b = int32_t(rng.range(1, 0xffff));
            break;
          default: {
            u.kind = BigUnit::Kind::Mixer;
            int n = int(rng.range(3, 8));
            for (int i = 0; i < n; ++i) {
                int src = int(rng.range(0, int64_t(d.units.size()) - 1));
                int nregs = int(d.units[src].registers().size());
                u.inputs.emplace_back(src, int(rng.range(0, nregs - 1)));
                if (i > 0)
                    u.ops.push_back(kMixerOps[rng.range(0, 4)]);
            }
            // Chain onto a recent mixer half of the time, so the
            // combinational network has depth across units.
            for (int back = 1; back <= 8 && back <= int(d.units.size());
                 ++back) {
                const BigUnit &c = d.units[d.units.size() - back];
                if (c.kind == BigUnit::Kind::Mixer &&
                    c.depth < kMaxMixerDepth && rng.range(0, 1)) {
                    u.combFrom = int(d.units.size()) - back;
                    u.depth = c.depth + 1;
                    break;
                }
            }
            break;
          }
        }
        emitUnit(u, d.units, e);
        d.units.push_back(std::move(u));
    }

    std::ostringstream os;
    os << "# e2ebench big_design: seed " << seed << ", "
       << d.units.size() << " units\n";
    os << "= 199\n";
    for (size_t i = 0; i < e.names.size(); ++i)
        os << e.names[i] << ((i + 1) % 12 == 0 ? "\n" : " ");
    os << ".\n" << e.defs.str() << ".\n";
    d.text = os.str();
    d.components = e.names.size();
    return d;
}

std::vector<std::pair<std::string, int32_t>>
modelBigDesign(const BigDesign &d, uint64_t cycles)
{
    // Registers as unsigned words; the ALUs wrap modulo 2^32.
    const size_t n = d.units.size();
    std::vector<std::vector<uint32_t>> regs(n), next(n);
    std::vector<uint32_t> lastComb(n, 0);
    for (size_t i = 0; i < n; ++i)
        regs[i].assign(d.units[i].registers().size(), 0);
    uint32_t gcnt = 0;

    auto alu = [](int op, uint32_t l, uint32_t r) -> uint32_t {
        switch (op) {
          case 4: return l + r;
          case 5: return l - r;
          case 8: return l & r;
          case 9: return l | r;
          default: return l ^ r;
        }
    };

    for (uint64_t cyc = 0; cyc < cycles; ++cyc) {
        const bool load = gcnt == 0; // gop reads in cycle 0
        for (size_t i = 0; i < n; ++i) {
            const BigUnit &u = d.units[i];
            const std::vector<uint32_t> &r = regs[i];
            std::vector<uint32_t> &x = next[i];
            x = r;
            switch (u.kind) {
              case BigUnit::Kind::Counter:
                x[0] = (r[0] & ((1u << u.width) - 1)) + 1;
                break;
              case BigUnit::Kind::Lfsr: {
                if (load) {
                    x[0] = uint32_t(u.a);
                    break;
                }
                uint32_t s = r[0];
                uint32_t fb = (s ^ (s >> 2) ^ (s >> 3) ^ (s >> 5)) & 1;
                x[0] = (fb << 15) | ((s >> 1) & 0x7fff);
                break;
              }
              case BigUnit::Kind::Gcd:
                if (load) {
                    x = {uint32_t(u.a), uint32_t(u.b)};
                } else {
                    int32_t a = int32_t(r[0]), b = int32_t(r[1]);
                    x[0] = uint32_t(b < a ? a - b : a);
                    x[1] = uint32_t(a < b ? b - a : b);
                }
                break;
              case BigUnit::Kind::Mult:
                if (load) {
                    x = {0, uint32_t(u.a), uint32_t(u.b)};
                } else {
                    x[0] = r[0] + ((r[2] & 1) ? r[1] : 0);
                    x[1] = (r[1] + r[1]) & 0x7fffffffu;
                    x[2] = (r[2] >> 1) & 0xffff;
                }
                break;
              case BigUnit::Kind::Mixer: {
                auto in = [&](size_t k) {
                    auto [src, reg] = u.inputs[k];
                    return regs[src][reg] & 0xffff;
                };
                // Mixers only read earlier units, so lastComb of
                // combFrom is already this cycle's value.
                uint32_t v = u.combFrom >= 0 ? lastComb[u.combFrom] & 0xffff
                                             : in(0);
                for (size_t k = 0; k < u.ops.size(); ++k) {
                    v = alu(u.ops[k], v, in(k + 1));
                    if (k + 1 < u.ops.size())
                        v &= 0xffff;
                }
                lastComb[i] = v;
                x[0] = v & 0xffff;
                break;
              }
            }
        }
        regs.swap(next);
        ++gcnt;
    }

    std::vector<std::pair<std::string, int32_t>> out;
    for (size_t i = 0; i < n; ++i) {
        auto names = d.units[i].registers();
        for (size_t k = 0; k < names.size(); ++k)
            out.emplace_back(names[k], int32_t(regs[i][k]));
    }
    return out;
}

std::string
gcdSpec(int32_t a, int32_t b, bool traced)
{
    const char *star = traced ? "*" : "";
    std::ostringstream os;
    os << "# e2ebench gcd(" << a << ", " << b << ") by subtraction\n"
       << "= " << gcdCycles(a, b) << "\n"
       << "a" << star << " b" << star
       << " cnt tick started op agtb bgta adiff bdiff anext bnext .\n"
       << "A tick 4 cnt 1\n"
       << "A started 13 0 cnt\n"
       << "S op started.0 0 1\n"
       << "A agtb 13 b a\n"
       << "A bgta 13 a b\n"
       << "A adiff 5 a b\n"
       << "A bdiff 5 b a\n"
       << "S anext agtb.0 a adiff\n"
       << "S bnext bgta.0 b bdiff\n"
       << "M a 0 anext op -1 " << a << "\n"
       << "M b 0 bnext op -1 " << b << "\n"
       << "M cnt 0 tick 1 1\n"
       << ".\n";
    return os.str();
}

uint64_t
gcdCycles(int32_t a, int32_t b)
{
    uint64_t cycles = 1; // the load cycle
    while (a != b) {
        if (a > b)
            a -= b;
        else
            b -= a;
        ++cycles;
    }
    return cycles;
}

std::string
multSpec(int32_t mcand, int32_t mplier, bool traced)
{
    const char *star = traced ? "*" : "";
    std::ostringstream os;
    os << "# e2ebench " << mcand << " * " << mplier << " by shift-add\n"
       << "= " << kMultCycles << "\n"
       << "acc" << star << " mplier" << star
       << " mcand cnt tick started op addend accnext mcandnext"
          " mpliernext .\n"
       << "A tick 4 cnt 1\n"
       << "A started 13 0 cnt\n"
       << "S op started.0 0 1\n"
       << "S addend mplier.0 0 mcand\n"
       << "A accnext 4 acc addend\n"
       << "A mcandnext 6 mcand 1\n"
       << "A mpliernext 2 mplier.1.16 0\n"
       << "M acc 0 accnext op 1\n"
       << "M mcand 0 mcandnext op -1 " << mcand << "\n"
       << "M mplier 0 mpliernext op -1 " << mplier << "\n"
       << "M cnt 0 tick 1 1\n"
       << ".\n";
    return os.str();
}

std::string
sieveSpec(int size)
{
    if (size < 1 || size > kSieveMaxSize)
        throw std::runtime_error("sieve size out of range");
    std::string text =
        readFile(std::string(E2E_SPECS_DIR) + "/stack_sieve.asim.in");
    const std::string limit = "@LIMIT@";
    size_t uses = 0;
    for (size_t at; (at = text.find(limit)) != std::string::npos; ++uses)
        text.replace(at, limit.size(), std::to_string(size + 1));
    if (uses == 0)
        throw std::runtime_error("sieve template has no @LIMIT@");
    return text;
}

std::string
sievePrinted(int size)
{
    std::ostringstream os;
    int count = 0;
    for (int n = 3; n <= 2 * size + 3; n += 2) {
        bool prime = true;
        for (int f = 3; f * f <= n; f += 2)
            prime = prime && n % f != 0;
        if (prime) {
            os << n << "\n";
            ++count;
        }
    }
    os << count << "\n";
    return os.str();
}

} // namespace e2e
