// Self-test of the output checks: every checker must accept a real,
// correct output and reject the same output corrupted. Small inputs on
// a two-worker runtime; a second or two in total.
#include "bench.hpp"
#include "checks.hpp"

#include <inncabs/fib.hpp>
#include <inncabs/matmul.hpp>
#include <inncabs/sort.hpp>
#include <minihpx/taskbench/taskbench.hpp>
#include <minihpx/trace/trace.hpp>
#include <minihpx/util/rng.hpp>

#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

namespace perfbench {

namespace perf = minihpx::perf;
namespace tb = minihpx::taskbench;
namespace trace = minihpx::trace;
using minihpx::engine::minihpx_engine;

namespace {

    class selftest
    {
    public:
        // The checker must accept `good` and reject every one of `bad`.
        void expect(char const* checker, verdict const& good,
            std::initializer_list<std::pair<char const*, verdict>> bad)
        {
            if (good)
            {
                std::printf("FAIL %s rejects a correct output: %s\n", checker,
                    good->c_str());
                ++failures_;
            }
            for (auto const& [corruption, v] : bad)
            {
                if (v)
                    std::printf("ok   %-12s rejects %s (%s)\n", checker,
                        corruption, v->c_str());
                else
                {
                    std::printf("FAIL %-12s accepts %s\n", checker, corruption);
                    ++failures_;
                }
            }
        }

        int failures() const noexcept { return failures_; }

    private:
        int failures_ = 0;
    };

    template <typename T>
    std::vector<T> with(std::vector<T> v, std::size_t i, T value)
    {
        v[i] = value;
        return v;
    }

    trace_facts record_fib_trace(minihpx::runtime& rt,
        perf::counter_registry& registry, std::string const& path, int n)
    {
        trace::trace_options options;
        options.enabled = true;
        options.destination = "mhtrace:" + path;
        trace::session session(registry, options);
        (void) inncabs::fib_bench<minihpx_engine>::run_task(n, 0);
        quiesce(rt);
        session.stop();
        trace_facts facts;
        trace::trace_data data;
        facts.loaded = trace::load_mhtrace_file(path, data, &facts.load_error);
        auto const a = trace::analyze(data);
        facts.dropped = session.events_dropped();
        facts.tasks = a.tasks;
        facts.tasks_ended = a.tasks_ended;
        facts.span_ns = a.span_ns;
        facts.makespan_ns = a.makespan_ns;
        facts.work_ns = a.work_ns;
        return facts;
    }

}    // namespace

int run_selftest(std::string const& out_dir)
{
    constexpr unsigned workers = 2;
    minihpx::runtime_config config;
    config.sched.num_workers = workers;
    minihpx::runtime rt(config);
    perf::counter_registry registry;
    perf::register_all_runtime_counters(registry, rt);
    check_log log;
    context ctx{rt, registry, 1, workers, false, out_dir, log};
    selftest t;

    // Task Bench: checksum and edge count against the recomputation.
    for (tb::graph_type type : tb::all_graph_types())
    {
        tb::graph_spec spec;
        spec.type = type;
        spec.width = 16;
        spec.steps = 8;
        spec.task_ns = 0;
        spec.seed = 99;
        auto const r = tb::run_graph<minihpx_engine>(spec);
        auto const ref = reference_graph(spec);
        t.expect("graph", check_graph(ref, r.checksum, r.edges),
            {{"a flipped checksum bit", check_graph(ref, r.checksum ^ 1, r.edges)},
                {"an extra edge", check_graph(ref, r.checksum, r.edges + 1)}});
    }

    // fib, and the task total after quiescence.
    {
        constexpr int n = 15;
        counter_window window(ctx);
        window.open();
        std::uint64_t const v =
            inncabs::fib_bench<minihpx_engine>::run_task(n, 0);
        window_result const w = window.close();
        t.expect("fib", check_fib(n, v), {{"F(n) + 1", check_fib(n, v + 1)}});
        t.expect("task total", check_task_total(fib_tasks(n), w.tasks),
            {{"one task missing", check_task_total(fib_tasks(n), w.tasks - 1)},
                {"one task extra", check_task_total(fib_tasks(n), w.tasks + 1)}});
        t.expect("time budget",
            check_time_budget(w.task_time_s, w.overhead_s, workers, w.wall_s),
            {{"task time beyond workers x wall",
                check_time_budget(w.task_time_s + workers * w.wall_s + 1e-3,
                    w.overhead_s, workers, w.wall_s)}});
    }

    // Sort: order and permutation.
    {
        constexpr std::size_t n = 1 << 14;
        minihpx::util::xoshiro256ss rng(5);
        std::vector<std::uint32_t> keys(n), other(n), scratch(n);
        for (auto& k : keys)
            k = static_cast<std::uint32_t>(rng());
        for (auto& k : other)
            k = static_cast<std::uint32_t>(rng());
        auto const h = hash_keys(keys);
        inncabs::sort_bench<minihpx_engine>::sort_task(
            keys.data(), scratch.data(), n, 256);
        // For this seed the sorted keys at these indices differ.
        auto swapped = keys;
        std::swap(swapped[100], swapped[101]);
        auto replaced = with(keys, n - 1, keys[n - 2]);
        t.expect("sort", check_sorted(keys, h),
            {{"two keys swapped", check_sorted(swapped, h)},
                {"a key replaced in order", check_sorted(replaced, h)},
                {"keys of another input",
                    check_sorted(keys, hash_keys(other))}});
    }

    // matmul: every entry against the dot product.
    {
        using matmul = inncabs::matmul_bench<minihpx_engine>;
        constexpr std::size_t n = 64;
        auto const a = matmul::make_matrix(n, 3);
        auto const b = matmul::make_matrix(n, 4);
        std::vector<double> c(n * n, 0.0);
        matmul::multiply(matmul::view{c.data(), n},
            matmul::view{const_cast<double*>(a.data()), n},
            matmul::view{const_cast<double*>(b.data()), n},
            {.n = n, .tile = 16, .band = 8});
        t.expect("matmul", check_matmul(a, b, c, n),
            {{"one entry off by one ulp",
                check_matmul(a, b,
                    with(c, 5 * n + 7,
                        std::nextafter(c[5 * n + 7], 1e300)),
                    n)}});
    }

    // Remote reply: a fork/join digest on the runtime against the
    // serial one.
    {
        std::vector<std::uint8_t> payload(4096);
        minihpx::util::xoshiro256ss rng(6);
        for (auto& byte : payload)
            byte = static_cast<std::uint8_t>(rng());
        std::span<std::uint8_t const> const bytes(payload);
        std::array<std::uint64_t, remote_chunks> chunks{};
        std::vector<minihpx::future<std::uint64_t>> forks;
        for (unsigned i = 0; i < remote_chunks; ++i)
            forks.push_back(
                minihpx::async([bytes, i] { return chunk_digest(bytes, i); }));
        for (unsigned i = 0; i < remote_chunks; ++i)
            chunks[i] = forks[i].get();
        std::uint64_t const reply = combine_digests(payload.size(), chunks);
        std::uint64_t const expected = remote_digest(payload);
        auto flipped = payload;
        flipped[17] ^= 1;
        t.expect("reply", check_reply(expected, reply),
            {{"a reply for another payload",
                check_reply(expected, remote_digest(flipped))}});
    }

    // Trace: strict load, drops, task counts, span and work bounds.
    {
        constexpr int n = 12;
        std::string const path = out_dir + "/selftest.mhtrace";
        trace_facts const good = record_fib_trace(rt, registry, path, n);
        // A copy cut short by one record's worth of bytes.
        std::string const cut = out_dir + "/selftest-truncated.mhtrace";
        {
            std::ifstream in(path, std::ios::binary);
            std::string bytes((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
            std::ofstream(cut, std::ios::binary)
                .write(bytes.data(),
                    static_cast<std::streamsize>(bytes.size() - 16));
        }
        trace_facts truncated = good;
        trace::trace_data ignored;
        truncated.loaded =
            trace::load_mhtrace_file(cut, ignored, &truncated.load_error);
        auto bad = [&](auto mutate) {
            trace_facts f = good;
            mutate(f);
            return check_trace(f, fib_tasks(n), workers);
        };
        t.expect("trace", check_trace(good, fib_tasks(n), workers),
            {{"a truncated file", check_trace(truncated, fib_tasks(n), workers)},
                {"a dropped event", bad([](trace_facts& f) { f.dropped = 1; })},
                {"a task missing", bad([](trace_facts& f) { --f.tasks; })},
                {"a task that never ends",
                    bad([](trace_facts& f) { --f.tasks_ended; })},
                {"span beyond makespan",
                    bad([](trace_facts& f) { f.span_ns = f.makespan_ns + 1; })},
                {"work beyond workers x makespan", bad([](trace_facts& f) {
                     f.work_ns = workers * f.makespan_ns + 1;
                 })}});
        std::filesystem::remove(path);
        std::filesystem::remove(cut);
    }

    std::printf("selftest: %s (%d failures)\n",
        t.failures() == 0 ? "every checker accepts correct output and "
                            "rejects corrupted output" :
                            "FAILED",
        t.failures());
    return t.failures() == 0 ? 0 : 1;
}

}    // namespace perfbench
