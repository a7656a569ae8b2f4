// observed: fib(25) and the stencil-1d graph with the paper's
// observation stack on. Runtime counters are evaluated and reset around
// every sample, the papi engine is installed, a telemetry session
// samples at 1 ms to a JSONL file and a scrape endpoint, and every round
// is traced to an .mhtrace that is then loaded, analysed and causally
// profiled. The stack is on only during the scenario's own rounds, so
// the rounds of the other scenarios run unobserved.
//
// No client polls the scrape endpoint: a scrape can deadlock with the
// sampler's flush thread (scrape_endpoint::render holds the endpoint
// lock while it reads the sampler's stats under the pipeline lock, and
// the flush thread takes the two locks in the other order), which hangs
// the run now and then.
#include "scenarios.hpp"
#include "spans.hpp"

#include <inncabs/fib.hpp>
#include <minihpx/causal/causal.hpp>
#include <minihpx/papi/papi_engine.hpp>
#include <minihpx/taskbench/taskbench.hpp>
#include <minihpx/telemetry/telemetry.hpp>
#include <minihpx/trace/trace.hpp>
#include <minihpx/util/rng.hpp>

#include <filesystem>
#include <memory>

#include <unistd.h>

namespace perfbench {

namespace perf = minihpx::perf;
namespace tb = minihpx::taskbench;
namespace trace = minihpx::trace;
using minihpx::engine::minihpx_engine;
using fib = inncabs::fib_bench<minihpx_engine>;

namespace {

    // fib(25), not the paper's 27. A round emits at most about 1.06 M
    // trace events (fib: spawn, begin, end, suspend, resume and a second
    // begin per task plus a label per call; the stencil: about 90 k),
    // and a lane holds half of that, so a lane drops events only if one
    // worker ran half the round while the drain thread, which wakes
    // every millisecond, never got a CPU. At fib(27) a round emits
    // 2.6 M events, and 2^18-event lanes dropped some on a busy host.
    // Lanes are not larger because the scheduler keeps every session's
    // recorder until it stops (see FOUND in CHANGES.md).
    constexpr int fib_n = 25;
    constexpr std::size_t trace_ring = std::size_t(1) << 19;    // per lane

    class observed_scenario final : public scenario
    {
    public:
        using scenario::scenario;

        char const* name() const override { return "observed"; }

        void setup() override
        {
            papi_ = std::make_unique<minihpx::papi::papi_engine>(ctx_.workers);
            papi_->register_counters(ctx_.registry);
            std::string const total =
                perf::locality_instance(ctx_.registry.local_locality());
            counter_names_ = {
                "/threads" + total + "/count/cumulative",
                "/threads" + total + "/time/average",
                "/threads" + total + "/time/average-overhead",
                "/threads" + total + "/time/cumulative",
                "/threads" + total + "/time/cumulative-overhead",
                "/threads" + total + "/idle-rate",
                "/papi" + total + "/PAPI_TOT_INS",
            };
            active_ = std::make_unique<perf::active_counters>(
                ctx_.registry, counter_names_);
            values_.resize(active_->size());
            stencil_ = tb::graph_spec{};
            stencil_.type = tb::graph_type::stencil_1d;
            stencil_.width = 64;
            stencil_.steps = 256;
            stencil_.task_ns = 0;
            stencil_.seed =
                minihpx::util::xoshiro256ss(ctx_.seed ^ 0x0b5e7edull)();
            // Per process, so that two runs sharing an output directory
            // never write one file.
            std::string const pid = std::to_string(::getpid());
            trace_path_ = ctx_.out_dir + "/observed-" + pid + ".mhtrace";
            jsonl_path_ = ctx_.out_dir + "/observed-" + pid + ".jsonl";
        }

        void observe_on()
        {
            papi_->install();
            minihpx::telemetry::telemetry_options options;
            options.counter_names = counter_names_;
            options.interval_ms = 1.0;
            options.destination = "jsonl:" + jsonl_path_;
            options.endpoint_port = 0;
            span sp("telemetry::session", "telemetry");
            telemetry_ = std::make_unique<minihpx::telemetry::session>(
                ctx_.registry, std::move(options));
        }

        void observe_off()
        {
            {
                span sp("telemetry::session::stop", "telemetry");
                telemetry_->stop();
            }
            auto& sampler = telemetry_->get_sampler();
            telemetry_samples_ += sampler.samples();
            telemetry_dropped_ += sampler.dropped();
            telemetry_.reset();
            papi_->uninstall();
        }

        void round() override
        {
            if (!have_reference_)
            {
                stencil_reference_ = reference_graph(stencil_);
                have_reference_ = true;
            }
            std::uint64_t const round_tasks =
                fib_tasks(fib_n) + stencil_.total_points();
            observe_on();
            std::unique_ptr<trace::session> session;
            {
                span sp("trace::session", "trace");
                trace::trace_options options;
                options.enabled = true;
                options.destination = "mhtrace:" + trace_path_;
                options.ring_capacity = trace_ring;
                options.drain_interval_ms = 1.0;
                session = std::make_unique<trace::session>(
                    ctx_.registry, std::move(options));
            }
            sample_fib();
            sample_stencil();
            expected_tasks_ += round_tasks;
            operation("observed.analyze", [&] {
                op_span op("observed.analyze");
                analyze(*session, round_tasks);
            });
            observe_off();
        }

        void teardown() override
        {
            minihpx::papi::papi_engine::remove_counters(ctx_.registry);
        }

        void end_to_end(metric_map& out) const override
        {
            out["analyze_s"] = {analyze_s_.median(), "s"};
            out["trace_mib"] = {trace_mib_.median(), "MiB"};
        }

        void per_layer(metric_map& out) const override
        {
            // Set against fib_s and tasks_per_s, which the unobserved
            // scenarios measure, these price the observation.
            out["observed.fib_s"] = {fib_s_.median(), "s"};
            out["observed.stencil_tasks_per_s"] = {
                tasks_per_s_.median(), "tasks/s"};
            out["core.evaluate_us"] = {evaluate_us_.median(), "us"};
            out["core.samples_miscounted"] = {
                static_cast<double>(miscounted_), "count"};
            out["telemetry.samples"] = {
                static_cast<double>(telemetry_samples_), "count"};
            out["telemetry.dropped"] = {
                static_cast<double>(telemetry_dropped_), "count"};
            out["trace.events"] = {events_.median(), "count"};
            out["trace.events_dropped"] = {
                static_cast<double>(events_dropped_), "count"};
            out["trace.bytes_per_event"] = {bytes_per_event_.median(), "B"};
            out["trace.stop_s"] = {stop_s_.median(), "s"};
            out["trace.load_s"] = {load_s_.median(), "s"};
            out["trace.analyze_s"] = {trace_analyze_s_.median(), "s"};
            out["causal.profile_s"] = {profile_s_.median(), "s"};
        }

    private:
        // The paper's per-sample protocol: reset before, evaluate and
        // reset right after. Returns the task count read at that point.
        template <typename F>
        double counted_sample(F&& body)
        {
            active_->reset();
            body();
            double const s = time_call([&] {
                span sp("perf::active_counters::evaluate_into", "core");
                active_->evaluate_into(values_, /*reset=*/true);
            });
            evaluate_us_.add(s * 1e6);
            return values_[0].get();
        }

        void sample_fib()
        {
            std::uint64_t value = 0;
            double counted = 0.0;
            bool const ok = operation("observed.fib", [&] {
                op_span op("observed.fib");
                counted = counted_sample([&] {
                    fib_s_.add(time_call([&] {
                        span sp("inncabs::fib_bench::run_task", "inncabs");
                        value = fib::run_task(fib_n, 0);
                    }));
                });
            });
            if (!ok)
                return;
            ctx_.checks.expect("observed fib", check_fib(fib_n, value));
            // Read right after get(), the count can miss tasks that
            // have published their result but not yet been counted.
            if (counted != static_cast<double>(fib_tasks(fib_n)))
                ++miscounted_;
        }

        void sample_stencil()
        {
            tb::run_result r;
            bool const ok = operation("observed.stencil", [&] {
                op_span op("observed.stencil");
                counted_sample([&] {
                    double const s = time_call([&] {
                        span sp("taskbench::run_graph", "taskbench");
                        r = tb::run_graph<minihpx_engine>(stencil_);
                    });
                    tasks_per_s_.add(
                        static_cast<double>(stencil_.total_points()) / s);
                });
            });
            if (ok)
                ctx_.checks.expect("observed stencil",
                    check_graph(stencil_reference_, r.checksum, r.edges));
        }

        // End of the last sample to a finished causal profile.
        void analyze(trace::session& session, std::uint64_t round_tasks)
        {
            // The last task's `end` event is emitted after its result is
            // published: stop the session only once no task is alive.
            quiesce(ctx_.rt);
            trace_facts facts;
            trace::trace_data data;
            trace::analysis_result a;
            auto const t0 = steady::now();
            stop_s_.add(time_call([&] {
                span sp("trace::session::stop", "trace");
                session.stop();
            }));
            load_s_.add(time_call([&] {
                span sp("trace::load_mhtrace_file", "trace");
                facts.loaded =
                    trace::load_mhtrace_file(trace_path_, data, &facts.load_error);
            }));
            trace_analyze_s_.add(time_call([&] {
                span sp("trace::analyze", "trace");
                a = trace::analyze(data);
            }));
            profile_s_.add(time_call([&] {
                span sp("causal::profile", "causal");
                (void) minihpx::causal::profile(data);
            }));
            analyze_s_.add(seconds_since(t0));

            facts.dropped = session.events_dropped();
            facts.tasks = a.tasks;
            facts.tasks_ended = a.tasks_ended;
            facts.span_ns = a.span_ns;
            facts.makespan_ns = a.makespan_ns;
            facts.work_ns = a.work_ns;
            ctx_.checks.expect(
                "trace", check_trace(facts, round_tasks, ctx_.workers));

            auto const bytes =
                static_cast<double>(std::filesystem::file_size(trace_path_));
            // Removed before the kernel writes it back, so the disk
            // traffic of one round does not land in the next operation.
            std::filesystem::remove(trace_path_);
            auto const events =
                static_cast<double>(session.events_recorded());
            trace_mib_.add(bytes / (1024.0 * 1024.0));
            events_.add(events);
            bytes_per_event_.add(events > 0 ? bytes / events : 0.0);
            events_dropped_ += facts.dropped;
        }

        std::unique_ptr<minihpx::papi::papi_engine> papi_;
        std::vector<std::string> counter_names_;
        std::unique_ptr<perf::active_counters> active_;
        std::vector<perf::counter_value> values_;
        std::unique_ptr<minihpx::telemetry::session> telemetry_;
        tb::graph_spec stencil_;
        graph_reference stencil_reference_;
        bool have_reference_ = false;
        std::string trace_path_;
        std::string jsonl_path_;

        minihpx::util::sample_set fib_s_, tasks_per_s_, analyze_s_,
            trace_mib_, evaluate_us_, events_, bytes_per_event_,
            stop_s_, load_s_, trace_analyze_s_, profile_s_;
        std::uint64_t miscounted_ = 0;
        std::uint64_t telemetry_samples_ = 0;
        std::uint64_t telemetry_dropped_ = 0;
        std::uint64_t events_dropped_ = 0;
    };

}    // namespace

std::unique_ptr<scenario> make_observed(context& ctx)
{
    return std::make_unique<observed_scenario>(ctx);
}

}    // namespace perfbench
