/**
 * @file
 * Shared pieces of the end-to-end benchmark (see README.md): the result
 * a workload run hands back, sample statistics, and the in-memory span
 * recorder behind --trace 1.
 *
 * Spans are recorded by the benchmark around its own calls into the
 * library; nothing inside src/ is instrumented.
 */

#ifndef EDKM_BENCH_E2E_HARNESS_H_
#define EDKM_BENCH_E2E_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

/** Runtime pool size of every workload, the calling thread included. */
constexpr int kLanes = 4;

inline double
msBetween(Clock::time_point begin, Clock::time_point end)
{
    return std::chrono::duration<double, std::milli>(end - begin).count();
}

inline double
msSince(Clock::time_point begin)
{
    return msBetween(begin, Clock::now());
}

/** Linearly interpolated quantile, @p q in [0, 1]; 0 for no samples. */
double quantile(std::vector<double> samples, double q);

inline double
median(std::vector<double> samples)
{
    return quantile(std::move(samples), 0.5);
}

inline double
mean(const std::vector<double> &samples)
{
    double total = 0.0;
    for (double v : samples) {
        total += v;
    }
    return samples.empty() ? 0.0 : total / static_cast<double>(samples.size());
}

/** Median milliseconds of @p reps calls of @p fn (the replay timer). */
template <typename Fn>
double
replayMs(int reps, Fn &&fn)
{
    std::vector<double> ms;
    for (int r = 0; r < reps; ++r) {
        Clock::time_point t0 = Clock::now();
        fn();
        ms.push_back(msSince(t0));
    }
    return median(ms);
}

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Ordered by name, so every printout lists metrics the same way. */
using Metrics = std::map<std::string, Metric>;

/** What one workload run hands back to main(). */
struct RunResult
{
    bool correct = true;
    int64_t attempted = 0;
    int64_t failed = 0;
    Metrics endToEnd; ///< reported with --trace 0
    Metrics perLayer; ///< reported with --trace 1
};

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir; ///< temp files (artifacts, traces)
};

/**
 * Spans kept in memory while the workload runs and written once at the
 * end as Chrome trace-event JSON (chrome://tracing, Perfetto). A span
 * with a request id is emitted as an async event keyed by that id, so a
 * request's spans line up on one track; the rest sit on the loop
 * thread's track. Disabled tracers record nothing.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    void span(const char *name, Clock::time_point begin,
              Clock::time_point end, int64_t request = -1);

    /** Writes the spans plus @p summary (as "otherData"). */
    void writeChromeTrace(const std::string &path,
                          const Metrics &summary) const;

  private:
    struct Span
    {
        const char *name;
        Clock::time_point begin, end;
        int64_t request;
    };

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/** Per-layer metric names of every workload, zero where unused. */
void addLayerDefaults(Metrics &layers);

RunResult runTrainLayer(const Options &opt, Tracer &tracer);
RunResult runServing(const Options &opt, Tracer &tracer);

} // namespace e2e

#endif // EDKM_BENCH_E2E_HARNESS_H_
