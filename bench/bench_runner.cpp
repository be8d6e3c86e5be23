/**
 * @file
 * run_all: figure driver that executes a selection of the
 * figure/section reproduction benchmarks as subprocesses and records
 * each one's pass/fail and wall time in BENCH_run_all.json. Host-time
 * performance is measured by the out-of-tree perf/ harness, not here.
 *
 * Usage:
 *   run_all                 # run the quick default selection
 *   run_all --all           # run every bench executable
 *   run_all --only fig1     # run benches whose name contains "fig1"
 *   run_all --list          # print the known bench names and exit
 *   run_all --out DIR       # write BENCH_run_all.json into DIR
 *   run_all --config TEXT   # key=value config text forwarded to every
 *                           # bench via DS_CONFIG (see sim/config_text.h)
 *
 * Environment (inherited by every child bench):
 *   DS_INSTR_BUDGET  per-core instruction budget
 *   DS_CONFIG        base-config key=value overrides
 *   DS_BENCH_OUT     default output directory for BENCH_*.json
 *   DS_JOBS          sweep worker threads of each bench
 *   DS_CACHE_DIR     persistent alone-run cache (unset = no persistence)
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"

namespace {

namespace fs = std::filesystem;

#ifndef DRSTRANGE_BENCH_LIST
#error "DRSTRANGE_BENCH_LIST must be defined by bench/CMakeLists.txt"
#endif

/**
 * Every bench executable built by bench/CMakeLists.txt, injected at
 * configure time so the inventory has a single source of truth (the
 * optional micro_components is present only when it was built).
 */
std::vector<std::string>
allBenches()
{
    std::vector<std::string> names;
    const std::string list = DRSTRANGE_BENCH_LIST;
    std::size_t pos = 0;
    while (pos < list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::size_t end = comma == std::string::npos ? list.size()
                                                           : comma;
        if (end > pos)
            names.push_back(list.substr(pos, end - pos));
        pos = end + 1;
    }
    return names;
}

/**
 * Quick default selection: one bench per major subsystem (TRNG
 * throughput, dual-core system comparison, component microbenchmarks)
 * so a default run finishes in well under a minute. Restricted to
 * benches that were actually built.
 */
std::vector<std::string>
quickBenches(const std::vector<std::string> &all)
{
    const std::vector<std::string> wanted = {
        "fig02_trng_throughput",
        "fig06_dualcore_perf",
        "micro_components",
    };
    std::vector<std::string> names;
    for (const std::string &name : wanted)
        for (const std::string &built : all)
            if (built == name) {
                names.push_back(name);
                break;
            }
    return names;
}

void
usage(const char *prog)
{
    std::cout
        << "usage: " << prog
        << " [--all] [--only SUBSTR] [--list] [--out DIR]"
           " [--config TEXT]\n"
           "\n"
           "  --all            run every bench executable\n"
           "  --only SUBSTR    run benches whose name contains SUBSTR\n"
           "  --list           print the known bench names and exit\n"
           "  --out DIR        write BENCH_run_all.json into DIR\n"
           "  --config TEXT    key=value config text forwarded to every\n"
           "                   bench via DS_CONFIG\n";
}

/**
 * Create @p dir and prove it writable, so a bad --out fails before any
 * bench runs instead of after all of them. Prints the diagnostic.
 */
bool
prepareOutDir(const std::string &dir)
{
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        std::cerr << "--out: cannot create '" << dir
                  << "': " << ec.message() << "\n";
        return false;
    }
    const fs::path probe = fs::path(dir) / ".run_all.probe";
    if (!std::ofstream(probe)) {
        std::cerr << "--out: cannot write into '" << dir << "'\n";
        return false;
    }
    fs::remove(probe, ec);
    return true;
}


/** Decode a std::system() status into the child's exit code. */
int
exitCodeOf(int status)
{
    if (status == -1)
        return -1;
#ifdef WIFEXITED
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    return -1;
#else
    return status;
#endif
}

} // namespace

int
main(int argc, char **argv)
{
    // An inherited malformed DS_CONFIG would otherwise fail every child
    // bench and then kill the final writeBenchJson (which parses it
    // too, via bench::baseConfig()) — reject it up front.
    if (const char *inherited = std::getenv("DS_CONFIG")) {
        try {
            dstrange::sim::SimulationBuilder::fromText(inherited);
        } catch (const std::exception &e) {
            std::cerr << "DS_CONFIG: " << e.what() << "\n";
            return 2;
        }
    }

    const std::vector<std::string> all_benches = allBenches();
    std::vector<std::string> selected = quickBenches(all_benches);
    std::string out_dir = bench::benchOutputDir();

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--all") {
            selected = all_benches;
        } else if (arg == "--only") {
            if (i + 1 >= argc) {
                usage(argv[0]);
                return 2;
            }
            const std::string pat = argv[++i];
            selected.clear();
            for (const std::string &name : all_benches)
                if (name.find(pat) != std::string::npos)
                    selected.push_back(name);
            if (selected.empty()) {
                std::cerr << "no bench matches '" << pat << "'\n";
                return 2;
            }
        } else if (arg == "--list") {
            for (const std::string &name : all_benches)
                std::cout << name << "\n";
            return 0;
        } else if (arg == "--out") {
            if (i + 1 >= argc) {
                usage(argv[0]);
                return 2;
            }
            out_dir = argv[++i];
        } else if (arg == "--config") {
            if (i + 1 >= argc) {
                usage(argv[0]);
                return 2;
            }
            const std::string text = argv[++i];
            try {
                // Validate before fanning out to every child bench.
                dstrange::sim::SimulationBuilder::fromText(text);
            } catch (const std::exception &e) {
                std::cerr << "--config: " << e.what() << "\n";
                return 2;
            }
#ifdef _WIN32
            _putenv_s("DS_CONFIG", text.c_str());
#else
            setenv("DS_CONFIG", text.c_str(), /*overwrite=*/1);
#endif
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            return 2;
        }
    }

    if (!prepareOutDir(out_dir))
        return 2;

    // Bench executables are siblings of this harness in the build tree.
    const fs::path self(argv[0]);
    const fs::path bin_dir =
        self.has_parent_path() ? self.parent_path() : fs::path(".");

    std::vector<bench::BenchRecord> records;
    int failures = 0;
    for (const std::string &name : selected) {
        const fs::path exe = bin_dir / name;
        std::error_code ec;
        if (!fs::exists(exe, ec)) {
            std::cerr << "missing bench executable: " << exe.string()
                      << " (build the bench targets first)\n";
            ++failures;
            bench::BenchRecord rec;
            rec.name = name;
            rec.exitCode = -1;
            records.push_back(rec);
            continue;
        }

        std::cout << "[run_all] " << name << " ... " << std::flush;
        // Built piecewise: chained operator+ here trips a GCC 12
        // -Wrestrict false positive (GCC PR105651) under -O2 -Werror.
        std::string cmd = "\"";
        cmd += exe.string();
#ifdef _WIN32
        cmd += "\" > NUL 2>&1";
#else
        cmd += "\" > /dev/null 2>&1";
#endif
        bench::WallTimer timer;
        const int status = std::system(cmd.c_str());
        bench::BenchRecord rec;
        rec.name = name;
        rec.wallMs = timer.elapsedMs();
        rec.exitCode = exitCodeOf(status);
        std::cout << (rec.exitCode == 0 ? "ok" : "FAIL") << " ("
                  << bench::num(rec.wallMs, 1) << " ms)\n";
        if (rec.exitCode != 0)
            ++failures;
        records.push_back(rec);
    }

    const std::string path =
        bench::writeBenchJson("run_all", records, out_dir);
    if (path.empty()) {
        std::cerr << "failed to write BENCH_run_all.json into '" << out_dir
                  << "'\n";
        return 1;
    }
    std::cout << "\nwrote " << path << " (" << records.size()
              << " results, " << failures << " failures)\n";
    return failures == 0 ? 0 : 1;
}
