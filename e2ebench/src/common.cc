#include "common.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace e2e {

namespace {

const Clock::time_point gProcessStart = Clock::now();

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

double
vmHwmMb(const std::string &statusPath)
{
    std::ifstream in(statusPath);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    }
    return -1;
}

} // namespace

Clock::time_point
processStart()
{
    return gProcessStart;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0 : sum / double(v.size());
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<size_t>(std::ceil(q * double(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    return v[rank - 1];
}

bool
Checker::expect(bool cond, const std::string &what)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!cond) {
        if (verbose_ && failures_.size() < 20)
            std::cerr << "check failed: " << what << "\n";
        failures_.push_back(what);
    }
    return cond;
}

SpanLog::Scope::Scope(SpanLog &log, std::string name)
    : log_(log), name_(std::move(name)), start_(Clock::now())
{}

double
SpanLog::Scope::finish()
{
    if (seconds_ < 0) {
        auto end = Clock::now();
        seconds_ = secondsBetween(start_, end);
        log_.add(name_, start_, end);
    }
    return seconds_;
}

void
SpanLog::add(const std::string &name, Clock::time_point start,
             Clock::time_point end)
{
    Event ev;
    ev.name = name;
    ev.tsUs = secondsBetween(processStart(), start) * 1e6;
    ev.durUs = secondsBetween(start, end) * 1e6;
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(std::move(ev));
}

void
SpanLog::write(const std::string &path) const
{
    std::ostringstream os;
    os << "{\"traceEvents\": [\n";
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < events_.size(); ++i) {
        const Event &ev = events_[i];
        os << "{\"name\":\"" << jsonEscape(ev.name)
           << "\",\"cat\":\"e2ebench\",\"ph\":\"X\",\"ts\":"
           << fmtDouble(ev.tsUs) << ",\"dur\":" << fmtDouble(ev.durUs)
           << ",\"pid\":1,\"tid\":1}" << (i + 1 < events_.size() ? "," : "")
           << "\n";
    }
    os << "]}\n";
    std::ofstream out(path);
    out << os.str();
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

double
selfPeakRssMb()
{
    return vmHwmMb("/proc/self/status");
}

double
peakRssMb(pid_t pid)
{
    return vmHwmMb("/proc/" + std::to_string(pid) + "/status");
}

std::vector<pid_t>
childrenOf(pid_t pid)
{
    std::vector<pid_t> out;
    std::error_code ec;
    const std::string task = "/proc/" + std::to_string(pid) + "/task";
    for (const auto &t : std::filesystem::directory_iterator(task, ec)) {
        std::ifstream in(t.path() / "children");
        pid_t child = 0;
        while (in >> child)
            out.push_back(child);
    }
    return out;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
removeTree(const std::string &path)
{
    if (path.empty())
        return;
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

std::string
fmtDouble(double v)
{
    char buf[64];
    auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

} // namespace e2e
