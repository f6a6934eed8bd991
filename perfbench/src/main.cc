/**
 * @file
 * uov_perfbench: the repository benchmark driver.
 *
 *     uov_perfbench --workload solve|serve|kernels --seed N
 *                   --seconds S --trace 0|1 --expected DIR
 *                   --work DIR [--git-describe TEXT]
 *
 * Run from the repository root (the solve workload reads
 * examples/corpus).  Prints a fingerprint line, human-readable
 * detail lines, and as its last line one JSON object with the keys
 * correct, attempted, failed and metrics.  --trace 0 reports the
 * end-to-end metrics; --trace 1 runs half the time untraced and half
 * traced and reports the per-layer metrics.  perfbench/run.py builds
 * this binary and supplies --expected and --work.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.h"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "uov_perfbench: %s\n"
                 "usage: uov_perfbench --workload solve|serve|kernels "
                 "--seed N --seconds S --trace 0|1 --expected DIR "
                 "--work DIR [--git-describe TEXT]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string v = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = v;
            else if (flag == "--seed")
                a.seed = std::stoull(v);
            else if (flag == "--seconds")
                a.seconds = std::stod(v);
            else if (flag == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (flag == "--expected")
                a.expected_dir = v;
            else if (flag == "--work")
                a.work_dir = v;
            else if (flag == "--git-describe")
                a.git_describe = v;
            else
                usage(("unknown flag " + flag).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (a.workload != "solve" && a.workload != "serve" &&
        a.workload != "kernels")
        usage("--workload must be solve, serve or kernels");
    if (a.expected_dir.empty() || a.work_dir.empty())
        usage("--expected and --work are required");
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    std::filesystem::create_directories(args.work_dir);
    Report report;
    int rc = 0;
    try {
        std::printf("%s\n", fingerprintJson(
                                args, {{"solve_max_visits",
                                        std::to_string(kSolveMaxVisits)}}).c_str());
        if (args.workload == "solve")
            runSolve(args, report);
        else if (args.workload == "serve")
            runServe(args, report);
        else
            runKernels(args, report);
        report.note("fail_ratio " + std::to_string(report.failed()) + "/" +
                    std::to_string(report.attempted()));
        std::printf("%s\n", report.json().c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "uov_perfbench: %s\n", e.what());
        rc = 1;
    }
    removeTree(args.work_dir);
    return rc;
}
