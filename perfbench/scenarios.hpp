// The four scenarios the workloads are made of (README.md explains the
// choice). Each lives in its own scenario_*.cpp.
#pragma once

#include "bench.hpp"

#include <memory>

namespace perfbench {

std::unique_ptr<scenario> make_taskbench(context& ctx);
std::unique_ptr<scenario> make_inncabs(context& ctx);
std::unique_ptr<scenario> make_observed(context& ctx);
std::unique_ptr<scenario> make_remote(context& ctx);

// The first Task Bench graph on the freshly started runtime: a 64 x 256
// trivial graph injected from the main thread. Checked like every other
// graph; its counter window gives the per-task cost of the cold start.
struct first_graph_result
{
    double seconds = 0.0;
    window_result window;
};
first_graph_result run_first_graph(context& ctx, counter_window& window);

}    // namespace perfbench
