/**
 * @file
 * Benchmark driver: one run of one workload.
 *
 *   perfbench --workload <mesh-sat|mesh-light|multitile-mvmult>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--work-dir <dir>] [--revision <rev>]
 *
 * Prints each metric by name with its unit, the simulated results and
 * the failed/attempted operation counts, then, as the last line of
 * standard output, one JSON object {"correct", "attempted", "failed",
 * "metrics"}. Exit status 2 on a usage error, 1 when the run could not
 * complete (no result line).
 */
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.h"

namespace {

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--work-dir <dir>] [--revision <rev>]\n",
                 msg);
    return 2;
}

bool
parseUnsigned(const std::string &s, unsigned long long *out)
{
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    *out = std::strtoull(s.c_str(), nullptr, 10);
    return errno == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunOptions opts;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        unsigned long long n = 0;
        if (flag == "--workload") {
            opts.workload = value;
        } else if (flag == "--seed") {
            if (!parseUnsigned(value, &n))
                return usage("--seed takes a non-negative integer");
            opts.seed = n;
            have_seed = true;
        } else if (flag == "--seconds") {
            if (!parseUnsigned(value, &n) || n == 0 || n > 600)
                return usage("--seconds takes an integer in [1, 600]");
            opts.seconds = static_cast<double>(n);
            have_seconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace takes 0 or 1");
            opts.trace = value == "1";
            have_trace = true;
        } else if (flag == "--work-dir") {
            opts.work_dir = value;
        } else if (flag == "--revision") {
            opts.revision = value;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (!perfbench::findWorkload(opts.workload))
        return usage(("unknown workload '" + opts.workload + "'").c_str());
    if (!have_seed || !have_seconds || !have_trace)
        return usage("--seed, --seconds and --trace are required");

    try {
        perfbench::RunResult result = perfbench::runWorkload(opts);
        for (const perfbench::Metric &m : result.metrics) {
            std::printf("metric: %-40s %14.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        }
        std::printf("operations: %llu failed of %llu attempted\n",
                    static_cast<unsigned long long>(result.failed),
                    static_cast<unsigned long long>(result.attempted));
        std::printf("%s\n", perfbench::resultJson(result).c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
        return 1;
    }
}
