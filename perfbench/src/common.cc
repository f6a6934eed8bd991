#include "common.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace perfbench {

namespace {

std::string
jsonString(const std::string &s)
{
    std::ostringstream os;
    os << '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            os << '\\' << c;
        else if (static_cast<unsigned char>(c) < 0x20)
            os << ' ';
        else
            os << c;
    }
    os << '"';
    return os.str();
}

/** Full-precision number, as the result line requires. */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" \t",
                                                          colon + 1));
        }
    }
    return "unknown";
}

} // namespace

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
nearestRank(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    auto n = static_cast<double>(samples.size());
    auto rank = static_cast<size_t>(std::ceil(q * n));
    rank = std::clamp<size_t>(rank, 1, samples.size());
    return samples[rank - 1];
}

double
fastest(const std::vector<double> &samples)
{
    return samples.empty() ? 0.0
                           : *std::min_element(samples.begin(),
                                               samples.end());
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(std::max(v, 1e-300));
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream ls(line.substr(6));
            double kb = 0;
            ls >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

void
resetPeakRss()
{
    ::malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    _metrics[name] = Value{value, unit};
}

void
Report::check(bool ok, const std::string &what)
{
    ++_attempted;
    if (ok)
        return;
    ++_failed;
    if (_failures.size() < 10)
        _failures.push_back(what);
}

void
Report::note(const std::string &line)
{
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

std::string
Report::json() const
{
    for (const std::string &f : _failures)
        std::fprintf(stderr, "perfbench: FAILED: %s\n", f.c_str());
    std::ostringstream os;
    os << "{\"correct\": " << (_failed == 0 && _attempted > 0 ? "true"
                                                               : "false")
       << ", \"attempted\": " << _attempted
       << ", \"failed\": " << _failed << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, v] : _metrics) {
        os << (first ? "" : ", ") << jsonString(name)
           << ": {\"value\": " << jsonNumber(v.value)
           << ", \"unit\": " << jsonString(v.unit) << "}";
        first = false;
    }
    os << "}}";
    return os.str();
}

std::string
fingerprintJson(const Args &args,
                const std::map<std::string, std::string> &extra)
{
    std::map<std::string, std::string> f = extra;
    f["cpu_model"] = cpuModel();
    f["nproc"] = std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
    f["compiler"] = "g++ " __VERSION__;
    f["git_describe"] = args.git_describe;
    f["workload"] = args.workload;
    f["seed"] = std::to_string(args.seed);
    f["seconds"] = jsonNumber(args.seconds);
    f["trace"] = args.trace ? "1" : "0";
    std::ostringstream os;
    os << "{\"fingerprint\": {";
    bool first = true;
    for (const auto &[k, v] : f) {
        os << (first ? "" : ", ") << jsonString(k) << ": "
           << jsonString(v);
        first = false;
    }
    os << "}}";
    return os.str();
}

TraceSession::TraceSession(size_t capacity)
{
    auto &tracer = uov::trace::Tracer::instance();
    tracer.disable();
    tracer.clear();
    tracer.enable(capacity);
}

TraceSession::~TraceSession()
{
    finish();
}

void
TraceSession::finish()
{
    if (_finished)
        return;
    _finished = true;
    auto &tracer = uov::trace::Tracer::instance();
    tracer.disable();
    _dropped = tracer.droppedCount();
    for (auto &s : tracer.summarize())
        _spans[s.name] = s;
    tracer.clear();
}

double
TraceSession::selfUsPerCall(const std::string &name) const
{
    auto it = _spans.find(name);
    if (it == _spans.end() || it->second.count == 0)
        return 0.0;
    return static_cast<double>(it->second.self_ns) / 1e3 /
           static_cast<double>(it->second.count);
}

std::string
TraceSession::table() const
{
    std::ostringstream os;
    os << "span self-time table (name, count, total_ms, self_ms, "
          "self_us/call):";
    for (const auto &[name, s] : _spans) {
        os << "\n  " << std::left << std::setw(26) << name
           << std::right << std::setw(10) << s.count << std::fixed
           << std::setprecision(3) << std::setw(12)
           << static_cast<double>(s.total_ns) / 1e6 << std::setw(12)
           << static_cast<double>(s.self_ns) / 1e6 << std::setw(12)
           << selfUsPerCall(name);
    }
    return os.str();
}

void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

} // namespace perfbench
