// Shared plumbing of the repository benchmark (see README.md).
//
// One process runs one workload: a runtime with up to four workers, all
// four scenarios set up, then rounds of every scenario interleaved over
// the measured window in the workload's shares, so that every run
// reports every end-to-end metric and every metric's samples spread
// over the whole window. Each scenario checks its outputs against
// values the benchmark computes on its own (checks.hpp); the counter
// windows below give the per-layer numbers and the task-count and
// time-budget checks.
#pragma once

#include "checks.hpp"

#include <minihpx/minihpx.hpp>
#include <minihpx/perf/perf.hpp>
#include <minihpx/util/stats.hpp>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using steady = std::chrono::steady_clock;

inline double seconds_between(steady::time_point t0, steady::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

inline double seconds_since(steady::time_point t0)
{
    return seconds_between(t0, steady::now());
}

// Times one call; returns seconds.
template <typename F>
double time_call(F&& fn)
{
    auto const t0 = steady::now();
    fn();
    return seconds_since(t0);
}

struct metric
{
    double value = 0.0;
    std::string unit;
};
using metric_map = std::map<std::string, metric>;

struct context
{
    minihpx::runtime& rt;
    minihpx::perf::counter_registry& registry;
    std::uint64_t seed = 0;
    unsigned workers = 1;
    bool trace = false;
    std::string out_dir;
    check_log& checks;
};

// Waits until no task is alive. Counter totals and trace streams are
// complete only then: a task is counted, and its trace `end` emitted,
// after its result is already visible to the thread that waited on it.
void quiesce(minihpx::runtime& rt);

// Scheduler counters over one window, read through the registry at
// both ends after quiescence.
struct window_result
{
    double wall_s = 0.0;
    double tasks = 0.0;
    double task_time_s = 0.0;
    double overhead_s = 0.0;
    double idle_rate = 0.0;    // fraction of worker time
    double steals = 0.0;
    double steals_cross_domain = 0.0;
    double frame_recycle_hits = 0.0;
    double allocations = 0.0;
    double descriptors_alive = 0.0;    // at the end of the window
    double minor_faults = 0.0;         // getrusage, whole process
    double voluntary_switches = 0.0;

    // Adds a later window: sums, idle rate weighted by wall time, the
    // larger descriptor count.
    void add(window_result const& w);
};

class counter_window
{
public:
    explicit counter_window(context& ctx);

    void open();
    window_result close();

private:
    struct raw
    {
        double tasks, task_ns, overhead_ns, steals, steals_cross, hits,
            allocations;
        long minflt, nvcsw;
    };
    raw read() const;

    context& ctx_;
    minihpx::perf::counter_handle tasks_, task_time_, overhead_, idle_,
        steals_, steals_cross_, hits_, allocations_, objects_;
    raw at_open_{};
    steady::time_point t_open_{};
};

// One scenario: a family of operations with its own inputs, metrics
// and checks. round() runs one whole round of operations; the runner
// interleaves the rounds of all scenarios over the measured window.
class scenario
{
public:
    explicit scenario(context& ctx)
      : ctx_(ctx)
    {
    }
    virtual ~scenario() = default;

    scenario(scenario const&) = delete;
    scenario& operator=(scenario const&) = delete;

    virtual char const* name() const = 0;
    virtual void setup() = 0;
    // Around the whole measured window.
    virtual void begin_phase() {}
    virtual void end_phase() {}
    virtual void round() = 0;
    // The end-to-end metrics this scenario measures.
    virtual void end_to_end(metric_map& out) const = 0;
    virtual void per_layer(metric_map& out) const = 0;
    virtual void teardown() {}

    std::uint64_t attempted() const noexcept { return attempted_; }
    std::uint64_t failed() const noexcept { return failed_; }
    // Tasks the operations run so far must have executed.
    std::uint64_t expected_tasks() const noexcept { return expected_tasks_; }

protected:
    // Runs one operation; an exception counts it as failed.
    template <typename F>
    bool operation(char const* what, F&& fn)
    {
        ++attempted_;
        try
        {
            fn();
            return true;
        }
        catch (std::exception const& e)
        {
            ++failed_;
            ctx_.checks.note_failure(what, e.what());
            return false;
        }
    }

    context& ctx_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t expected_tasks_ = 0;
};

// Getrusage max RSS of this process, in MiB.
double peak_rss_mib();

// Machine-wide CPU time from /proc/stat, in clock ticks: all of it, and
// the part the hypervisor gave to other guests (steal). Runs on a
// shared host slow down with steal; the program reports it on stderr.
struct cpu_ticks
{
    unsigned long long total = 0;
    unsigned long long steal = 0;
};
cpu_ticks read_cpu_ticks();

}    // namespace perfbench
