/**
 * @file
 * edkm_bench — the end-to-end benchmark of eDKM training and palettized
 * serving (workloads, metrics and bounds: README.md, BENCHMARK.json).
 *
 *   edkm_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *              [--out <results.jsonl>]
 *
 * Prints every metric as "workload metric value unit", a fingerprint
 * line, and as its last line one JSON object
 * {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
 * with --trace 0, the per-layer metrics with --trace 1 (which also
 * writes a Chrome trace). --out appends the same result, labelled with
 * workload, seed and fingerprint, as one JSON line (compare.py input).
 *
 * Exit status gates correctness only: 1 when an output check failed,
 * 2 on a usage error or an exception; never on speed.
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "kernels/kernels.h"
#include "runtime/runtime.h"

namespace e2e {

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty()) {
        return 0.0;
    }
    std::sort(samples.begin(), samples.end());
    double pos = q * static_cast<double>(samples.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, samples.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

void
Tracer::span(const char *name, Clock::time_point begin,
             Clock::time_point end, int64_t request)
{
    if (enabled_) {
        spans_.push_back({name, begin, end, request});
    }
}

namespace {

/** JSON number with every digit; non-finite values have no JSON form. */
std::string
number(double v)
{
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
metricsJson(const Metrics &metrics)
{
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        os << (first ? "" : ", ") << "\"" << name
           << "\": {\"value\": " << number(m.value) << ", \"unit\": \""
           << m.unit << "\"}";
        first = false;
    }
    os << "}";
    return os.str();
}

double
usSince(Clock::time_point origin, Clock::time_point t)
{
    return std::chrono::duration<double, std::micro>(t - origin).count();
}

} // namespace

void
Tracer::writeChromeTrace(const std::string &path,
                         const Metrics &summary) const
{
    std::ofstream out(path);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    bool first = true;
    auto sep = [&] {
        out << (first ? "" : ",\n");
        first = false;
    };
    for (const Span &s : spans_) {
        double ts = usSince(origin_, s.begin);
        double te = usSince(origin_, s.end);
        if (s.request < 0) {
            sep();
            out << "{\"name\": \"" << s.name
                << "\", \"cat\": \"e2e\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": "
                << number(ts) << ", \"dur\": " << number(te - ts) << "}";
            continue;
        }
        for (const char *ph : {"b", "e"}) {
            sep();
            out << "{\"name\": \"" << s.name
                << "\", \"cat\": \"request\", \"ph\": \"" << ph
                << "\", \"pid\": 1, \"tid\": 2, \"id\": " << s.request
                << ", \"ts\": " << number(ph[0] == 'b' ? ts : te)
                << ", \"args\": {\"request\": " << s.request << "}}";
        }
    }
    out << "\n], \"otherData\": " << metricsJson(summary) << "}\n";
}

void
addLayerDefaults(Metrics &layers)
{
    static const std::pair<const char *, const char *> kLayers[] = {
        {"scheduler.step_ms_p50", "ms"},
        {"scheduler.step_ms_p99", "ms"},
        {"scheduler.batch_mean", "req"},
        {"scheduler.queue_ms_p90", "ms"},
        {"scheduler.self_ms_per_step", "ms"},
        {"scheduler.steps", "count"},
        {"scheduler.prefill_tokens", "tok"},
        {"scheduler.decoded_tokens", "tok"},
        {"prefix.hit_rate", "ratio"},
        {"prefix.reused_tokens", "tok"},
        {"prefix.insertions", "count"},
        {"prefix.evictions", "count"},
        {"engine.decode_step_ms.b1", "ms"},
        {"engine.decode_step_ms.b4", "ms"},
        {"engine.decode_step_ms.b8", "ms"},
        {"engine.prefill_ms_per_tok", "ms"},
        {"engine.streamed_matmuls", "count"},
        {"engine.fused_decodes", "count"},
        {"palettize.matmul_ms.m1", "ms"},
        {"palettize.matmul_ms.m8", "ms"},
        {"palettize.bytes_per_token", "B"},
        {"runtime.decode_speedup", "x"},
        {"reader.open_ms", "ms"},
        {"reader.first_logits_ms", "ms"},
        {"edkm.forward_ms", "ms"},
        {"autograd.backward_ms", "ms"},
        {"adamw.step_ms", "ms"},
        {"uniquify.ms", "ms"},
        {"uniquify.unique_count", "count"},
        {"kernels.attention_table_ms", "ms"},
        {"kernels.gather_rows_ms", "ms"},
        {"marshal.packs", "count"},
        {"marshal.copies", "count"},
        {"marshal.bytes_copied", "B"},
        {"marshal.dedup_ratio", "ratio"},
        {"marshal.sync_ms", "ms"},
        {"device.d2h_bytes", "B"},
        {"device.h2d_bytes", "B"},
        {"device.transactions", "count"},
        {"device.sim_s", "s"},
        {"dist.allgathers", "count"},
        {"dist.allgather_bytes", "B"},
        {"loadgen.sent", "count"},
        {"loadgen.ok", "count"},
        {"loadgen.failed", "count"},
        {"trace.replay_share", "ratio"},
        {"trace.step_s", "s"},
        {"trace.tok_s", "tok/s"},
    };
    for (const auto &[name, unit] : kLayers) {
        layers[name] = {0.0, unit};
    }
}

} // namespace e2e

namespace {

using e2e::Metrics;

int
usage(const std::string &msg)
{
    std::cerr << "edkm_bench: " << msg
              << "\nusage: edkm_bench --workload "
                 "train_layer|serve_stream|serve_chat|serve_rag --seed N "
                 "--seconds S --trace 0|1 [--out results.jsonl]\n";
    return 2;
}

std::string
fingerprintJson()
{
    std::ostringstream os;
    os << "{\"kernels\": \""
       << edkm::kernels::backendName(edkm::kernels::active().backend)
       << "\", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
       << ", \"lanes\": " << edkm::runtime::Runtime::instance().threadCount()
       << ", \"build_type\": \"" << EDKM_E2E_BUILD_TYPE
       << "\", \"git_sha\": \"" << EDKM_E2E_GIT_SHA << "\"}";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    e2e::Options opt;
    std::string out_path;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc) {
            return usage("missing value for " + arg);
        }
        std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = val;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(val.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(val.c_str(), &end);
        } else if (arg == "--trace" && (val == "0" || val == "1")) {
            opt.trace = val == "1";
        } else if (arg == "--out") {
            out_path = val;
        } else {
            return usage("bad argument " + arg + " " + val);
        }
        if (end != nullptr && (end == val.c_str() || *end != '\0')) {
            return usage("bad value for " + arg + ": " + val);
        }
    }
    bool training = opt.workload == "train_layer";
    bool serving = opt.workload == "serve_stream" ||
                   opt.workload == "serve_chat" ||
                   opt.workload == "serve_rag";
    if (!training && !serving) {
        return usage("unknown workload '" + opt.workload + "'");
    }
    if (!(opt.seconds > 0.0)) {
        return usage("--seconds must be positive");
    }
    opt.workDir = ".bench_build/e2e-run";

    e2e::RunResult res;
    std::string trace_path;
    try {
        std::filesystem::create_directories(opt.workDir);
        e2e::Tracer tracer(opt.trace);
        res = training ? e2e::runTrainLayer(opt, tracer)
                       : e2e::runServing(opt, tracer);
        if (opt.trace) {
            trace_path = opt.workDir + "/trace-" + opt.workload + "-" +
                         std::to_string(opt.seed) + ".json";
            tracer.writeChromeTrace(trace_path, res.perLayer);
        }
    } catch (const std::exception &e) {
        std::cerr << "edkm_bench: " << opt.workload << " failed: "
                  << e.what() << "\n";
        return 2;
    }

    const Metrics &shown = opt.trace ? res.perLayer : res.endToEnd;
    for (const auto &[name, m] : shown) {
        std::cout << opt.workload << " " << name << " "
                  << e2e::number(m.value) << " " << m.unit << "\n";
        res.correct = res.correct && std::isfinite(m.value);
    }
    if (!trace_path.empty()) {
        std::cout << "trace written to " << trace_path << "\n";
    }
    std::string fingerprint = fingerprintJson();
    std::cout << "fingerprint " << fingerprint << "\n";
    std::ostringstream result;
    result << "{\"correct\": " << (res.correct ? "true" : "false")
           << ", \"attempted\": " << res.attempted
           << ", \"failed\": " << res.failed
           << ", \"metrics\": " << e2e::metricsJson(shown) << "}";
    if (!out_path.empty()) {
        std::ofstream out(out_path, std::ios::app);
        out << "{\"workload\": \"" << opt.workload
            << "\", \"seed\": " << opt.seed
            << ", \"seconds\": " << opt.seconds
            << ", \"trace\": " << (opt.trace ? 1 : 0)
            << ", \"fingerprint\": " << fingerprint
            << ", \"result\": " << result.str() << "}\n";
    }
    std::cout << result.str() << std::endl;
    return res.correct ? 0 : 1;
}
