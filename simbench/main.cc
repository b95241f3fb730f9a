/**
 * @file
 * simbench command line:
 *
 *   simbench gen    --workload W --seed N --out TRACE
 *   simbench run    --workload W --input TRACE --seconds S
 *   simbench layers --workload W --input TRACE --seconds S --spans F
 *
 * Each prints one JSON object on stdout. Exit status: 0 when every
 * check passed, 1 when a cell or check failed, 2 on a usage error.
 */

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "common/logging.hh"
#include "simbench.hh"

#ifndef SIMBENCH_COMPILER
#define SIMBENCH_COMPILER "unknown"
#endif
#ifndef SIMBENCH_BUILD_TYPE
#define SIMBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SIMBENCH_LTO
#define SIMBENCH_LTO 0
#endif

namespace {

using tdc::json::Value;

int
usage()
{
    std::cerr << "usage: simbench gen --workload W --seed N --out F"
                 " | run --workload W --input F --seconds S"
                 " | layers --workload W --input F --seconds S"
                 " --spans F\n";
    return 2;
}

Value
buildInfo()
{
    Value v = Value::object();
    v.set("compiler", SIMBENCH_COMPILER);
    v.set("build_type", SIMBENCH_BUILD_TYPE);
    v.set("lto", SIMBENCH_LTO != 0);
    // tdc_assert is active in every build; NDEBUG only gates assert().
#ifdef NDEBUG
    v.set("assertions", "tdc_assert");
#else
    v.set("assertions", "tdc_assert+assert");
#endif
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    std::map<std::string, std::string> opt;
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0)
            return usage();
        opt[key.substr(2)] = argv[i + 1];
    }
    const auto need = [&](const char *k) -> const std::string & {
        static const std::string empty;
        auto it = opt.find(k);
        return it == opt.end() ? empty : it->second;
    };

    Value out;
    try {
        tdc::ScopedFatalCapture capture;
        const simbench::Workload &w =
            simbench::findWorkload(need("workload"));
        if (cmd == "gen") {
            if (need("seed").empty() || need("out").empty())
                return usage();
            out = simbench::generateInputs(
                w, std::strtoull(need("seed").c_str(), nullptr, 10),
                need("out"));
        } else if (cmd == "run" || cmd == "layers") {
            if (need("input").empty() || need("seconds").empty())
                return usage();
            const double seconds = std::strtod(need("seconds").c_str(),
                                               nullptr);
            if (cmd == "run") {
                out = simbench::runCells(w, need("input"), seconds);
            } else {
                if (need("spans").empty())
                    return usage();
                out = simbench::runLayers(w, need("input"), seconds,
                                          need("spans"));
            }
        } else {
            return usage();
        }
    } catch (const std::exception &e) {
        out = Value::object();
        out.set("attempted", 1);
        out.set("failed", 1);
        Value f = Value::array();
        f.push(e.what());
        out.set("failures", std::move(f));
    }
    out.set("build", buildInfo());
    std::cout << out.dump(0) << "\n";
    const Value *failed = out.find("failed");
    return failed != nullptr && failed->asUint() != 0 ? 1 : 0;
}
