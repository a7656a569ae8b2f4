// remote: two localities in one process share the runtime and talk over
// a loopback tcp_mesh. The main thread is the one client: closed loop,
// one request in flight. Each request carries a seeded 64 B, 4 KiB or
// 64 KiB payload; the handler digests it with a fork/join of runtime
// tasks. This is the path where a socket thread injects work and idle
// workers wake and park, which the saturated scenarios never take.
#include "scenarios.hpp"
#include "spans.hpp"

#include <minihpx/net/net.hpp>
#include <minihpx/util/rng.hpp>

#include <array>
#include <memory>
#include <mutex>

namespace perfbench {

namespace net = minihpx::net;

namespace {

    constexpr char const* action_name = "perfbench/digest";
    constexpr std::array<std::size_t, 3> payload_sizes = {64, 4096, 65536};
    constexpr unsigned per_size = 16;    // requests of each size per round
    constexpr unsigned round_requests = per_size * payload_sizes.size();
    // Tasks per request: the handler task plus its forked chunks.
    constexpr std::uint64_t tasks_per_request = remote_chunks;

    // Handler wall times, recorded on the workers.
    struct handler_times
    {
        std::mutex mutex;
        minihpx::util::sample_set us;
    };
    handler_times& handler_log()
    {
        static handler_times log;
        return log;
    }

    std::uint64_t digest_handler(std::vector<std::uint8_t> payload)
    {
        auto const t0 = steady::now();
        std::span<std::uint8_t const> const bytes(payload);
        std::array<minihpx::future<std::uint64_t>, remote_chunks - 1> forks;
        for (unsigned i = 1; i < remote_chunks; ++i)
            forks[i - 1] =
                minihpx::async([bytes, i] { return chunk_digest(bytes, i); });
        std::array<std::uint64_t, remote_chunks> chunks{};
        chunks[0] = chunk_digest(bytes, 0);
        for (unsigned i = 1; i < remote_chunks; ++i)
            chunks[i] = forks[i - 1].get();
        std::uint64_t const d = combine_digests(payload.size(), chunks);
        double const us = seconds_since(t0) * 1e6;
        auto& log = handler_log();
        std::lock_guard lock(log.mutex);
        log.us.add(us);
        return d;
    }

    class remote_scenario final : public scenario
    {
    public:
        using scenario::scenario;

        char const* name() const override { return "remote"; }

        void setup() override
        {
            // Actions are snapshotted at locality construction.
            net::register_action(action_name, &digest_handler);
            for (std::uint32_t id = 0; id < 2; ++id)
            {
                net::net_config config;
                config.id = id;
                config.num_localities = 2;
                config.heartbeat_interval_ms = 0;
                config.registry = &registries_[id];
                localities_[id] = std::make_unique<net::locality>(config);
                meshes_[id] = std::make_unique<net::tcp_mesh>(*localities_[id]);
            }
            span sp("net::tcp_mesh::connect", "net");
            std::vector<std::uint16_t> const ports = {
                meshes_[0]->listen(0), meshes_[1]->listen(0)};
            meshes_[1]->connect(ports);
            meshes_[0]->connect(ports);

            // A seeded order of per_size requests of each size, seeded
            // contents.
            minihpx::util::xoshiro256ss rng(ctx_.seed ^ 0x4e7ull);
            for (unsigned i = 0; i < round_requests; ++i)
                size_class_[i] = i % payload_sizes.size();
            for (unsigned i = round_requests - 1; i > 0; --i)
                std::swap(size_class_[i], size_class_[rng.below(i + 1)]);
            for (unsigned i = 0; i < round_requests; ++i)
            {
                payloads_[i].resize(payload_sizes[size_class_[i]]);
                for (auto& byte : payloads_[i])
                    byte = static_cast<std::uint8_t>(rng());
            }
        }

        void begin_phase() override
        {
            std::lock_guard lock(handler_log().mutex);
            handler_log().us.clear();
            sent_at_begin_ = traffic();
        }

        void end_phase() override
        {
            auto const now = traffic();
            messages_ += now.first - sent_at_begin_.first;
            bytes_ += now.second - sent_at_begin_.second;
            std::lock_guard lock(handler_log().mutex);
            handler_us_ = handler_log().us;
        }

        void round() override
        {
            if (!have_reference_)
            {
                for (unsigned i = 0; i < round_requests; ++i)
                    expected_[i] = remote_digest(payloads_[i]);
                have_reference_ = true;
                if (ctx_.trace)
                    measure_serialization();
            }
            auto const t_round = steady::now();
            unsigned completed = 0;
            for (unsigned i = 0; i < round_requests; ++i)
            {
                std::uint64_t reply = 0;
                bool const ok = operation("remote.request", [&] {
                    op_span op("remote.request");
                    auto const t0 = steady::now();
                    {
                        span sp("net::async", "net");
                        reply = net::async<std::uint64_t>(
                            *localities_[0], 1, action_name, payloads_[i])
                                    .get();
                    }
                    double const us = seconds_since(t0) * 1e6;
                    latency_us_.add(us);
                    block_us_.add(us);
                    if (block_us_.size() == block_requests)
                    {
                        block_p99_us_.add(block_us_.percentile(99.0));
                        block_us_.clear();
                    }
                    class_us_[size_class_[i]].add(us);
                });
                expected_tasks_ += tasks_per_request;
                if (!ok)
                    continue;
                ++completed;
                ctx_.checks.expect(
                    "remote reply", check_reply(expected_[i], reply));
            }
            round_rate_.add(
                static_cast<double>(completed) / seconds_since(t_round));
        }

        void end_to_end(metric_map& out) const override
        {
            // Medians over blocks and rounds, so that a burst of host
            // noise in a few of them does not move the run's figure.
            out["latency_p50_us"] = {latency_us_.percentile(50.0), "us"};
            // A window too short for one block falls back on all its
            // requests.
            out["latency_p99_us"] = {block_p99_us_.empty() ?
                    latency_us_.percentile(99.0) :
                    block_p99_us_.median(),
                "us"};
            out["requests_per_s"] = {round_rate_.median(), "req/s"};
        }

        void per_layer(metric_map& out) const override
        {
            out["net.messages"] = {static_cast<double>(messages_), "count"};
            out["net.bytes"] = {static_cast<double>(bytes_), "B"};
            out["net.serialize_mb_per_s"] = {serialize_mb_per_s_, "MB/s"};
            out["net.latency_64b_us"] = {class_us_[0].median(), "us"};
            out["net.latency_4k_us"] = {class_us_[1].median(), "us"};
            out["net.latency_64k_us"] = {class_us_[2].median(), "us"};
            out["net.handler_us"] = {handler_us_.median(), "us"};
        }

        void teardown() override
        {
            for (auto& loc : localities_)
                loc->stop();
            for (auto& mesh : meshes_)
                mesh.reset();
            for (auto& loc : localities_)
                loc.reset();
        }

    private:
        // Messages and bytes sent by both localities.
        std::pair<std::uint64_t, std::uint64_t> traffic() const
        {
            std::uint64_t messages = 0, bytes = 0;
            for (auto const& loc : localities_)
            {
                messages += loc->stats().messages_sent.load();
                bytes += loc->stats().bytes_sent.load();
            }
            return {messages, bytes};
        }

        // net::save / net::load of one round's payloads.
        void measure_serialization()
        {
            constexpr unsigned reps = 20;
            double bytes = 0.0;
            double const s = time_call([&] {
                for (unsigned r = 0; r < reps; ++r)
                    for (auto const& payload : payloads_)
                    {
                        span sp("net::save+load", "net");
                        net::output_archive out;
                        net::save(out, payload);
                        auto wire = out.take();
                        net::input_archive in(wire);
                        auto back = net::load<std::vector<std::uint8_t>>(in);
                        bytes += 2.0 * static_cast<double>(wire.size());
                        ctx_.checks.expect("serialization round trip",
                            back == payload ?
                                verdict{} :
                                verdict{"payload changed in save/load"});
                    }
            });
            serialize_mb_per_s_ = bytes / s * 1e-6;
        }

        std::array<minihpx::perf::counter_registry, 2> registries_;
        std::array<std::unique_ptr<net::locality>, 2> localities_;
        std::array<std::unique_ptr<net::tcp_mesh>, 2> meshes_;

        std::array<std::size_t, round_requests> size_class_{};
        std::array<std::vector<std::uint8_t>, round_requests> payloads_;
        std::array<std::uint64_t, round_requests> expected_{};
        bool have_reference_ = false;

        // p99 is taken per block of consecutive requests.
        static constexpr std::size_t block_requests = 1000;
        minihpx::util::sample_set latency_us_, block_us_, block_p99_us_,
            round_rate_, handler_us_;
        std::array<minihpx::util::sample_set, payload_sizes.size()> class_us_;
        std::pair<std::uint64_t, std::uint64_t> sent_at_begin_{};
        std::uint64_t messages_ = 0;
        std::uint64_t bytes_ = 0;
        double serialize_mb_per_s_ = 0.0;
    };

}    // namespace

std::unique_ptr<scenario> make_remote(context& ctx)
{
    return std::make_unique<remote_scenario>(ctx);
}

}    // namespace perfbench
