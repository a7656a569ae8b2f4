// taskbench: all five Task Bench graphs, width 64, 256 steps, zero
// granularity, each submitted from the main thread and waited on. No
// kernel work: the time is spawn, when_all/then gates, continuation
// dispatch and stealing.
#include "scenarios.hpp"
#include "spans.hpp"

#include <minihpx/taskbench/taskbench.hpp>
#include <minihpx/util/rng.hpp>

#include <array>

namespace perfbench {

namespace tb = minihpx::taskbench;
using minihpx::engine::minihpx_engine;

namespace {

    constexpr unsigned graph_width = 64;
    constexpr unsigned graph_steps = 256;

    tb::graph_spec make_spec(tb::graph_type type, std::uint64_t seed)
    {
        tb::graph_spec spec;
        spec.type = type;
        spec.width = graph_width;
        spec.steps = graph_steps;
        spec.task_ns = 0;
        spec.seed = minihpx::util::xoshiro256ss(seed ^ 0x7a5cb3e1ull)();
        return spec;
    }

    // One checked graph run; returns seconds.
    double run_checked(context& ctx, tb::graph_spec const& spec,
        graph_reference const& expected, char const* check_name)
    {
        tb::run_result r;
        double const s = time_call([&] {
            span sp("taskbench::run_graph", "taskbench");
            r = tb::run_graph<minihpx_engine>(spec);
        });
        ctx.checks.expect(check_name, check_graph(expected, r.checksum, r.edges));
        return s;
    }

    class taskbench_scenario final : public scenario
    {
    public:
        using scenario::scenario;

        char const* name() const override { return "taskbench"; }

        void setup() override
        {
            auto const& types = tb::all_graph_types();
            for (std::size_t i = 0; i < types.size(); ++i)
                specs_[i] = make_spec(types[i], ctx_.seed);
        }

        void round() override
        {
            if (!have_reference_)
            {
                for (std::size_t i = 0; i < specs_.size(); ++i)
                {
                    reference_[i] = reference_graph(specs_[i]);
                    edges_ += reference_[i].edges;
                }
                have_reference_ = true;
            }
            double round_s = 0.0;
            std::uint64_t points = 0;
            for (std::size_t i = 0; i < specs_.size(); ++i)
            {
                bool const ok = operation(op_names[i], [&] {
                    op_span op(op_names[i]);
                    double const s = run_checked(
                        ctx_, specs_[i], reference_[i], "taskbench graph");
                    graph_s_[i].add(s);
                    round_s += s;
                });
                expected_tasks_ += specs_[i].total_points();
                if (ok)
                    points += specs_[i].total_points();
            }
            if (round_s > 0.0)
                tasks_per_s_.add(static_cast<double>(points) / round_s);
        }

        void end_to_end(metric_map& out) const override
        {
            out["tasks_per_s"] = {tasks_per_s_.median(), "tasks/s"};
        }

        void per_layer(metric_map& out) const override
        {
            static constexpr char const* keys[] = {"taskbench.trivial_s",
                "taskbench.stencil_s", "taskbench.fft_s", "taskbench.tree_s",
                "taskbench.random_s"};
            for (std::size_t i = 0; i < specs_.size(); ++i)
                out[keys[i]] = {graph_s_[i].median(), "s"};
            out["taskbench.edges"] = {static_cast<double>(edges_), "count"};
            out["taskbench.spin_iters_per_us"] = {
                static_cast<double>(tb::spin_iters_per_us()), "1/us"};
        }

    private:
        static constexpr char const* op_names[] = {"taskbench.trivial",
            "taskbench.stencil", "taskbench.fft", "taskbench.tree",
            "taskbench.random"};

        std::array<tb::graph_spec, 5> specs_{};
        std::array<graph_reference, 5> reference_{};
        bool have_reference_ = false;
        std::array<minihpx::util::sample_set, 5> graph_s_;
        minihpx::util::sample_set tasks_per_s_;
        std::uint64_t edges_ = 0;
    };

}    // namespace

std::unique_ptr<scenario> make_taskbench(context& ctx)
{
    return std::make_unique<taskbench_scenario>(ctx);
}

first_graph_result run_first_graph(context& ctx, counter_window& window)
{
    tb::graph_spec const spec = make_spec(tb::graph_type::trivial, ctx.seed);
    first_graph_result r;
    window.open();
    {
        op_span op("taskbench.first_graph");
        tb::run_result out;
        r.seconds = time_call([&] {
            span sp("taskbench::run_graph", "taskbench");
            out = tb::run_graph<minihpx_engine>(spec);
        });
        // The reference is computed after the timed call.
        ctx.checks.expect("first graph",
            check_graph(reference_graph(spec), out.checksum, out.edges));
    }
    r.window = window.close();
    ctx.checks.expect("first graph task count",
        check_task_total(spec.total_points(), r.window.tasks));
    return r;
}

}    // namespace perfbench
