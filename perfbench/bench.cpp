#include "bench.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include <sys/resource.h>

namespace perfbench {

namespace perf = minihpx::perf;

void quiesce(minihpx::runtime& rt)
{
    auto& sched = rt.get_scheduler();
    while (sched.tasks_alive() != 0)
        std::this_thread::yield();
}

namespace {

    perf::counter_handle resolve(
        perf::counter_registry& registry, std::string const& name)
    {
        std::string error;
        auto handle = registry.resolve(name, &error);
        if (!handle)
            throw std::runtime_error("counter " + name + ": " + error);
        return handle;
    }

    double value(perf::counter_handle const& h)
    {
        return h.evaluate().get();
    }

}    // namespace

counter_window::counter_window(context& ctx)
  : ctx_(ctx)
{
    auto& reg = ctx.registry;
    std::string const total = perf::locality_instance(reg.local_locality());
    std::string const threads = "/threads" + total;
    std::string const runtime = "/runtime" + total;
    tasks_ = resolve(reg, threads + "/count/cumulative");
    task_time_ = resolve(reg, threads + "/time/cumulative");
    overhead_ = resolve(reg, threads + "/time/cumulative-overhead");
    idle_ = resolve(reg, threads + "/idle-rate");
    steals_ = resolve(reg, threads + "/count/stolen");
    steals_cross_ = resolve(reg, threads + "/steal/cross-domain");
    objects_ = resolve(reg, threads + "/count/objects");
    hits_ = resolve(reg, runtime + "/memory/frame-recycle-hits");
    allocations_ = resolve(reg, runtime + "/memory/allocations");
}

counter_window::raw counter_window::read() const
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return {value(tasks_), value(task_time_), value(overhead_),
        value(steals_), value(steals_cross_), value(hits_),
        value(allocations_), ru.ru_minflt, ru.ru_nvcsw};
}

void counter_window::open()
{
    quiesce(ctx_.rt);
    idle_.reset();
    at_open_ = read();
    t_open_ = steady::now();
}

window_result counter_window::close()
{
    quiesce(ctx_.rt);
    auto const t_close = steady::now();
    raw const r = read();
    window_result w;
    w.wall_s = seconds_between(t_open_, t_close);
    w.tasks = r.tasks - at_open_.tasks;
    w.task_time_s = (r.task_ns - at_open_.task_ns) * 1e-9;
    w.overhead_s = (r.overhead_ns - at_open_.overhead_ns) * 1e-9;
    w.idle_rate = value(idle_) * 1e-4;    // counter unit is 0.01 %
    w.steals = r.steals - at_open_.steals;
    w.steals_cross_domain = r.steals_cross - at_open_.steals_cross;
    w.frame_recycle_hits = r.hits - at_open_.hits;
    w.allocations = r.allocations - at_open_.allocations;
    w.descriptors_alive = value(objects_);
    w.minor_faults = static_cast<double>(r.minflt - at_open_.minflt);
    w.voluntary_switches = static_cast<double>(r.nvcsw - at_open_.nvcsw);
    return w;
}

void window_result::add(window_result const& w)
{
    double const wall = wall_s + w.wall_s;
    if (wall > 0.0)
        idle_rate = (idle_rate * wall_s + w.idle_rate * w.wall_s) / wall;
    wall_s = wall;
    tasks += w.tasks;
    task_time_s += w.task_time_s;
    overhead_s += w.overhead_s;
    steals += w.steals;
    steals_cross_domain += w.steals_cross_domain;
    frame_recycle_hits += w.frame_recycle_hits;
    allocations += w.allocations;
    descriptors_alive = std::max(descriptors_alive, w.descriptors_alive);
    minor_faults += w.minor_faults;
    voluntary_switches += w.voluntary_switches;
}

double peak_rss_mib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;    // KiB on Linux
}

cpu_ticks read_cpu_ticks()
{
    std::ifstream stat("/proc/stat");
    std::string line;
    std::getline(stat, line);
    std::istringstream fields(line);
    std::string cpu;
    fields >> cpu;
    cpu_ticks t;
    unsigned long long v = 0;
    for (int i = 0; i < 8 && fields >> v; ++i)
    {
        t.total += v;
        if (i == 7)    // user nice system idle iowait irq softirq steal
            t.steal = v;
    }
    return t;
}

}    // namespace perfbench
