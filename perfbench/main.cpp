// perfbench: the repository benchmark program (see README.md).
//
//   perfbench --workload saturated|io --seed N --seconds S --trace 0|1
//             --out DIR
//   perfbench --selftest --out DIR
//
// Prints, as its last line, one JSON object: correct, attempted,
// failed, and the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1, which also carries its own end-to-end figures
// under "end_to_end" so the tracing overhead can be computed). Exits 0
// when every check passed, 3 when one failed, 2 on bad arguments.
#include "bench.hpp"
#include "scenarios.hpp"
#include "spans.hpp"

#include <minihpx/util/cli.hpp>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace perf = minihpx::perf;
using namespace perfbench;

namespace {

// Set-up time is measured from here: static initialisation, before
// main() runs.
steady::time_point const process_start = steady::now();
cpu_ticks const ticks_at_start = read_cpu_ticks();

// Scenario indices, in the order they are made.
enum : std::size_t { taskbench, inncabs, observed, remote, scenario_count };

// A workload is a mix of the four scenarios. The time-shared ones take
// rounds in proportion to their shares, the one that falls behind its
// share going next, so that each metric's samples spread over the whole
// window; observed runs a fixed number of rounds at evenly spaced
// points, because every round's trace session keeps its memory until
// the runtime stops. The runtime.* and threads.* per-layer metrics are
// the counters of the workload's main scenarios.
struct workload
{
    char const* name;
    double share[scenario_count];    // observed's is unused
    unsigned observed_rounds;
    bool main[scenario_count];
};

constexpr workload workloads[] = {
    {"saturated", {0.35, 0.35, 0.0, 0.3}, 2, {true, true, false, false}},
    {"io", {0.2, 0.2, 0.0, 0.6}, 2, {false, false, true, true}},
};

// First graphs per process, each on a freshly started runtime: the one
// the set-up starts, then runtimes of their own after it stops.
constexpr unsigned first_graphs = 3;

void print_metrics(std::FILE* f, metric_map const& metrics)
{
    char const* sep = "";
    std::fprintf(f, "{");
    for (auto const& [name, m] : metrics)
    {
        std::fprintf(f, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
            name.c_str(), m.value, m.unit.c_str());
        sep = ", ";
    }
    std::fprintf(f, "}");
}

// Counters of one window as per-layer metrics.
void window_metrics(window_result const& w, metric_map& out)
{
    double const tasks = std::max(w.tasks, 1.0);
    out["runtime.tasks"] = {w.tasks, "count"};
    out["runtime.task_time_s"] = {w.task_time_s, "s"};
    out["runtime.frame_recycle_hits"] = {w.frame_recycle_hits, "count"};
    out["runtime.overhead_s"] = {w.overhead_s, "s"};
    out["runtime.overhead_ns_per_task"] = {w.overhead_s * 1e9 / tasks, "ns"};
    out["runtime.allocations_per_task"] = {w.allocations / tasks, "count"};
    out["runtime.descriptors_alive"] = {w.descriptors_alive, "count"};
    out["runtime.idle_rate"] = {w.idle_rate, "ratio"};
    out["threads.steals"] = {w.steals, "count"};
    out["threads.steals_cross_domain"] = {w.steals_cross_domain, "count"};
    out["threads.minor_faults_per_task"] = {w.minor_faults / tasks, "count"};
    out["threads.voluntary_switches_per_task"] = {
        w.voluntary_switches / tasks, "count"};
}

// Rounds of one scenario in the measured window and their counters.
struct share_state
{
    std::size_t rounds = 0;
    window_result window;
};

// Runs the rounds of all scenarios interleaved for `seconds` (and until
// observed has run its rounds and every scenario at least one), each
// inside a counter window of its own, and checks every scenario's task
// count and time budget.
std::vector<share_state> run_measured(context& ctx, counter_window& window,
    std::vector<std::unique_ptr<scenario>>& scenarios, workload const& w,
    double seconds)
{
    std::vector<share_state> state(scenarios.size());
    std::vector<std::uint64_t> tasks_before(scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i)
    {
        scenarios[i]->begin_phase();
        tasks_before[i] = scenarios[i]->expected_tasks();
    }
    auto run_round = [&](std::size_t i) {
        window.open();
        scenarios[i]->round();
        state[i].window.add(window.close());
        ++state[i].rounds;
    };
    auto const t0 = steady::now();
    for (;;)
    {
        double const elapsed = seconds_since(t0);
        std::size_t const observed_done = state[observed].rounds;
        if (observed_done < w.observed_rounds &&
            elapsed >= (static_cast<double>(observed_done) + 0.5) * seconds /
                    w.observed_rounds)
        {
            run_round(observed);
            continue;
        }
        bool const every_one_ran = std::all_of(state.begin(), state.end(),
            [](share_state const& x) { return x.rounds > 0; });
        if (elapsed >= seconds && every_one_ran)
            break;
        std::size_t next = scenario_count;
        double lowest = 0.0;
        for (std::size_t i = 0; i < scenarios.size(); ++i)
        {
            if (w.share[i] <= 0.0)
                continue;
            double const used = state[i].window.wall_s / w.share[i];
            if (next == scenario_count || used < lowest)
            {
                next = i;
                lowest = used;
            }
        }
        run_round(next);
    }
    for (std::size_t i = 0; i < scenarios.size(); ++i)
    {
        scenarios[i]->end_phase();
        window_result const& win = state[i].window;
        std::string const what = std::string(scenarios[i]->name()) + " rounds";
        ctx.checks.expect(what + " task count",
            check_task_total(
                scenarios[i]->expected_tasks() - tasks_before[i], win.tasks));
        ctx.checks.expect(what + " time budget",
            check_time_budget(
                win.task_time_s, win.overhead_s, ctx.workers, win.wall_s));
    }
    return state;
}

// One first graph on a runtime started for it alone.
first_graph_result fresh_first_graph(minihpx::runtime_config const& config,
    context const& main_ctx)
{
    minihpx::runtime rt(config);
    perf::counter_registry registry;
    perf::register_all_runtime_counters(registry, rt);
    context ctx{rt, registry, main_ctx.seed, main_ctx.workers, main_ctx.trace,
        main_ctx.out_dir, main_ctx.checks};
    counter_window window(ctx);
    return run_first_graph(ctx, window);
}

void progress(char const* what)
{
    std::fprintf(stderr, "perfbench: %8.3f s  %s\n",
        seconds_since(process_start), what);
}

int usage()
{
    std::fprintf(stderr,
        "usage: perfbench --workload saturated|io "
        "--seed N --seconds S --trace 0|1 --out DIR\n"
        "       perfbench --selftest --out DIR\n");
    return 2;
}

}    // namespace

int main(int argc, char** argv)
{
    minihpx::util::cli_args const args(argc, argv);
    std::string const out_dir = args.value_or("out", ".");
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (args.flag("selftest"))
        return run_selftest(out_dir);

    std::string const name = args.value_or("workload", "");
    auto const w = std::find_if(std::begin(workloads), std::end(workloads),
        [&name](workload const& x) { return name == x.name; });
    double const seconds = args.double_or("seconds", 0.0);
    if (w == std::end(workloads) || !args.has("seed") || seconds <= 0.0)
        return usage();
    bool const trace = args.int_or("trace", 0) != 0;
    if (trace)
        span_log::get().enable();

    // ---- set-up: runtime, counters, inputs, mesh -------------------------
    unsigned const workers =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    check_log checks;
    minihpx::runtime_config config;
    config.sched.num_workers = workers;
    std::unique_ptr<minihpx::runtime> rt;
    {
        span sp("runtime::runtime", "runtime");
        rt = std::make_unique<minihpx::runtime>(config);
    }
    perf::counter_registry registry;
    {
        span sp("perf::register_all_runtime_counters", "core");
        perf::register_all_runtime_counters(registry, *rt);
    }
    context ctx{*rt, registry,
        static_cast<std::uint64_t>(args.int_or("seed", 0)), workers, trace,
        out_dir, checks};

    std::vector<std::unique_ptr<scenario>> scenarios;
    scenarios.push_back(make_taskbench(ctx));
    scenarios.push_back(make_inncabs(ctx));
    scenarios.push_back(make_observed(ctx));
    scenarios.push_back(make_remote(ctx));
    for (auto& s : scenarios)
    {
        progress(s->name());
        span sp(s->name(), "bench");
        s->setup();
    }
    counter_window window(ctx);
    double const setup_s = seconds_since(process_start);

    if (trace)
    {
        // Operation spans read these counters at both boundaries.
        std::string const total = perf::locality_instance(registry.local_locality());
        auto tasks = registry.resolve("/threads" + total + "/count/cumulative");
        auto exec = registry.resolve("/threads" + total + "/time/cumulative");
        auto over =
            registry.resolve("/threads" + total + "/time/cumulative-overhead");
        span_log::get().set_counter_reader([&ctx, tasks, exec, over] {
            quiesce(ctx.rt);
            return op_counters{tasks.evaluate().get(), exec.evaluate().get(),
                over.evaluate().get()};
        });
    }

    // ---- measured: first graph, then the interleaved rounds -------------
    progress("set-up done");
    std::vector<first_graph_result> first;
    first.push_back(run_first_graph(ctx, window));
    progress("first graph done");
    std::vector<share_state> const shares =
        run_measured(ctx, window, scenarios, *w, seconds);
    progress("measured rounds done");

    metric_map e2e;
    for (auto& s : scenarios)
        s->end_to_end(e2e);
    e2e["setup_s"] = {setup_s, "s"};

    metric_map layers;
    if (trace)
    {
        for (auto& s : scenarios)
            s->per_layer(layers);
        window_result main_window;
        for (std::size_t i = 0; i < scenarios.size(); ++i)
            if (w->main[i])
                main_window.add(shares[i].window);
        window_metrics(main_window, layers);
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (auto& s : scenarios)
    {
        attempted += s->attempted();
        failed += s->failed();
        s->teardown();
    }
    progress("scenarios torn down");
    scenarios.clear();
    span_log::get().set_counter_reader(nullptr);
    rt.reset();
    progress("runtime stopped");

    // ---- the other first graphs, each on a runtime of its own ----------
    for (unsigned i = 1; i < first_graphs; ++i)
        first.push_back(fresh_first_graph(config, ctx));
    attempted += first.size();
    minihpx::util::sample_set first_s;
    window_result first_window;
    for (auto const& f : first)
    {
        first_s.add(f.seconds);
        first_window.add(f.window);
    }
    e2e["first_graph_s"] = {first_s.median(), "s"};
    e2e["peak_rss_mib"] = {peak_rss_mib(), "MiB"};
    progress("first graphs done");

    if (trace)
    {
        double const first_tasks = std::max(first_window.tasks, 1.0);
        layers["first_graph.minor_faults_per_task"] = {
            first_window.minor_faults / first_tasks, "count"};
        layers["first_graph.voluntary_switches_per_task"] = {
            first_window.voluntary_switches / first_tasks, "count"};
        // Every layer the benchmark calls into, also when a run has no
        // span of it.
        for (char const* layer : {"bench", "runtime", "core", "taskbench",
                 "inncabs", "telemetry", "trace", "causal", "net"})
            layers[std::string("self_s.") + layer] = {0.0, "s"};
        for (auto const& [layer, s] : span_log::get().self_seconds())
            layers["self_s." + layer] = {s, "s"};

        metric_map all = layers;
        for (auto const& [key, m] : e2e)
            all["end_to_end." + key] = m;
        std::string const path = out_dir + "/spans-" + name + "-" +
            std::to_string(ctx.seed) + ".json";
        if (span_log::get().write(path, all))
            std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
                span_log::get().size(), path.c_str());
        else
            checks.expect("span output",
                verdict{"cannot write " + path});
    }

    for (auto const& f : checks.failures())
        std::fprintf(stderr, "perfbench: CHECK FAILED %s\n", f.c_str());
    for (auto const& f : checks.failed_operations())
        std::fprintf(stderr, "perfbench: OPERATION FAILED %s\n", f.c_str());
    cpu_ticks const ticks = read_cpu_ticks();
    double const steal_pct = ticks.total > ticks_at_start.total ?
        100.0 * static_cast<double>(ticks.steal - ticks_at_start.steal) /
            static_cast<double>(ticks.total - ticks_at_start.total) :
        0.0;
    std::fprintf(stderr,
        "perfbench: workload=%s seed=%llu workers=%u rounds=%zu/%zu/%zu/%zu "
        "checks passed=%llu failed=%zu host-steal=%.1f%%\n",
        name.c_str(), static_cast<unsigned long long>(ctx.seed), workers,
        shares[taskbench].rounds, shares[inncabs].rounds,
        shares[observed].rounds, shares[remote].rounds,
        static_cast<unsigned long long>(checks.passed()),
        checks.failures().size(), steal_pct);

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": ",
        checks.ok() ? "true" : "false",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed));
    print_metrics(stdout, trace ? layers : e2e);
    if (trace)
    {
        std::printf(", \"end_to_end\": ");
        print_metrics(stdout, e2e);
    }
    std::printf("}\n");
    std::fflush(stdout);
    return checks.ok() ? 0 : 3;
}
