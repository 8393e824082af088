// The wire-serving phase of the traced infer-batch run: an open loop over
// the loopback wire. Poisson-timed bursts of 1-4 requests go over 4
// connections into ServeTransport -> BatchingServer (2 serial replicas
// mmap-loaded from the serving artifact, max_batch 8, 200 us flush) at a
// fixed rate of about a third of this configuration's capacity. Every
// request is timed from its due time, so a stall also charges the requests
// queued behind it. The same schedule is then replayed in process through
// BatchingServer::try_infer to split wire time from server time.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/graph_artifact.h"
#include "serve/batching_server.h"
#include "serve/transport.h"
#include "serving.h"
#include "util/rng.h"

namespace csqbench {
namespace {

using namespace csq;

constexpr int kReplicas = 2;
constexpr int kMaxConnections = 4;
constexpr double kOfferedPerSecond = 300.0;  // requests/s
constexpr int kMaxBurst = 4;
constexpr std::int64_t kImagePool = 256;
constexpr int kSetupRepeats = 3;
// Every this many requests of a connection the logits are kept for the
// bit-identity check.
constexpr std::size_t kCheckEvery = 16;
constexpr const char* kModel = "m";

serve::ServerOptions server_options() {
  serve::ServerOptions options;
  options.max_batch = 8;
  options.max_latency_us = 200;
  return options;
}

int connection_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(
      std::clamp(hw, 1u, static_cast<unsigned>(kMaxConnections)));
}

struct Request {
  double due_ms = 0.0;  // offset from the schedule start
  std::int64_t sample = 0;
};

// Open-loop schedule from the seed: Poisson burst times, burst sizes uniform
// in 1..kMaxBurst, a burst's requests on consecutive connections. The
// request count is fixed (rate x seconds) and the burst times are scaled to
// span exactly the phase, so every seed offers the same load.
std::vector<std::vector<Request>> make_schedule(std::uint64_t seed,
                                                int seconds, int connections) {
  Rng rng(seed);
  const auto total = static_cast<std::int64_t>(kOfferedPerSecond * seconds);
  std::vector<std::pair<double, int>> bursts;  // time, size
  double t = 0.0;
  std::int64_t planned = 0;
  while (planned < total) {
    const int size = static_cast<int>(std::min<std::int64_t>(
        1 + rng.uniform_int(kMaxBurst), total - planned));
    t += -std::log(1.0 - static_cast<double>(rng.uniform()));
    bursts.emplace_back(t, size);
    planned += size;
  }
  const double scale = 1000.0 * seconds / t;
  std::vector<std::vector<Request>> schedule(
      static_cast<std::size_t>(connections));
  int next = 0;
  for (const auto& [time, size] : bursts) {
    for (int j = 0; j < size; ++j) {
      Request request;
      request.due_ms = time * scale;
      request.sample = static_cast<std::int64_t>(rng.uniform_int(kImagePool));
      schedule[static_cast<std::size_t>(next)].push_back(request);
      next = (next + 1) % connections;
    }
  }
  return schedule;
}

// What one connection (or in-process producer) saw.
struct Outcome {
  std::vector<double> latency_ms;  // receive - due
  std::vector<double> lag_ms;      // send - max(due, previous receive)
  std::vector<std::pair<std::int64_t, std::vector<float>>> kept;
  std::int64_t sent = 0;
  std::int64_t ok = 0;
  Tracer tracer{true, 4096};  // one span per request, send to receive
};

// Sends one connection's requests at their due times. `send` performs one
// blocking request and returns true on success.
template <typename Send>
void drive(const std::vector<Request>& requests, Clock::time_point origin,
           const std::vector<float>& images, const char* span, Outcome& out,
           const Send& send) {
  std::vector<float> logits(kLogits);
  Clock::time_point free_at = origin;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& request = requests[i];
    const auto due = origin + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double, std::milli>(
                                      request.due_ms));
    std::this_thread::sleep_until(due);
    const auto sent = Clock::now();
    const bool ok = send(images.data() + request.sample * kSampleNumel, logits);
    const auto received = Clock::now();
    ++out.sent;
    out.ok += ok ? 1 : 0;
    out.latency_ms.push_back(ms_between(due, received));
    out.lag_ms.push_back(ms_between(std::max(due, free_at), sent));
    out.tracer.add(span, sent, received);
    free_at = received;
    if (ok && i % kCheckEvery == 0) out.kept.emplace_back(request.sample, logits);
  }
}

// Runs every connection's schedule on its own thread.
template <typename MakeSend>
std::vector<Outcome> run_open_loop(
    const std::vector<std::vector<Request>>& schedule,
    const std::vector<float>& images, const char* span,
    const MakeSend& make_send) {
  std::vector<Outcome> outcomes(schedule.size());
  const auto origin = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < schedule.size(); ++c) {
    threads.emplace_back([&, c] {
      drive(schedule[c], origin, images, span, outcomes[c], make_send(c));
    });
  }
  for (std::thread& thread : threads) thread.join();
  return outcomes;
}

// Two mmap-loaded serial replicas behind a started server, optionally with
// the wire transport in front.
struct Stack {
  std::unique_ptr<serve::BatchingServer> server;
  std::unique_ptr<serve::ServeTransport> transport;
  double start_ms = 0.0;

  Stack(const std::string& artifact, bool with_transport) {
    std::vector<runtime::CompiledGraph> replicas;
    for (int r = 0; r < kReplicas; ++r) {
      replicas.push_back(runtime::load_graph_mmap(artifact, /*pooled=*/false));
    }
    server = std::make_unique<serve::BatchingServer>(server_options());
    server->add_model(kModel, std::move(replicas));
    const auto start = Clock::now();
    server->start();
    start_ms = ms_between(start, Clock::now());
    if (with_transport) {
      transport = std::make_unique<serve::ServeTransport>(*server);
      transport->start();
    }
  }

  void stop() {
    if (transport) transport->stop();
    server->stop();
  }
};

std::vector<double> merged(const std::vector<Outcome>& outcomes,
                           std::vector<double> Outcome::*field) {
  std::vector<double> all;
  for (const Outcome& o : outcomes) {
    all.insert(all.end(), (o.*field).begin(), (o.*field).end());
  }
  return all;
}

double span_median(const std::vector<Outcome>& outcomes, const char* name) {
  std::vector<double> all;
  for (const Outcome& o : outcomes) {
    const std::vector<double> d = o.tracer.durations(name);
    all.insert(all.end(), d.begin(), d.end());
  }
  return median(all);
}

}  // namespace

std::vector<std::pair<std::string, double>> measure_wire_layers(
    const std::string& artifact, std::uint64_t seed, int seconds,
    const std::string& trace_file, Checks& checks) {
  const std::vector<float> images = sample_images(seed + 13, kImagePool);
  const int connections = connection_count();
  const std::vector<std::vector<Request>> schedule =
      make_schedule(seed, seconds, connections);

  std::vector<double> start_ms;
  std::unique_ptr<Stack> stack;
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (stack) stack->stop();
    stack = std::make_unique<Stack>(artifact, /*with_transport=*/true);
    start_ms.push_back(stack->start_ms);
  }

  // ---- open loop over the wire ----
  std::vector<std::unique_ptr<serve::TransportClient>> clients;
  for (int c = 0; c < connections; ++c) {
    clients.push_back(
        std::make_unique<serve::TransportClient>(stack->transport->port()));
    if (!clients.back()->connected()) {
      throw std::runtime_error("wire phase: could not connect");
    }
  }
  std::vector<std::vector<float>> received(clients.size());
  const std::vector<Outcome> wire =
      run_open_loop(schedule, images, "serve.wire", [&](std::size_t c) {
        return [&, c](const float* sample, std::vector<float>& logits) {
          const serve::WireStatus status = clients[c]->infer(
              kModel, sample, static_cast<std::size_t>(kSampleNumel),
              received[c]);
          if (status != serve::WireStatus::kOk ||
              received[c].size() != logits.size()) {
            return false;
          }
          std::copy(received[c].begin(), received[c].end(), logits.begin());
          return true;
        };
      });
  clients.clear();
  const serve::BatchingServer::ShardStats shard = stack->server->stats(kModel);
  stack->stop();
  const serve::ServeTransport::Stats transport = stack->transport->stats();
  const serve::BatchingServer::ShardStats after = stack->server->stats(kModel);
  stack.reset();

  // ---- the same schedule in process ----
  std::vector<Outcome> inproc_outcomes;
  {
    Stack local(artifact, /*with_transport=*/false);
    serve::BatchingServer& server = *local.server;
    const serve::ModelHandle handle = server.handle(kModel);
    inproc_outcomes = run_open_loop(schedule, images, "serve.inproc", [&](std::size_t) {
      return [&](const float* sample, std::vector<float>& logits) {
        return server.try_infer(handle, sample, logits.data()) ==
               serve::ServeStatus::kOk;
      };
    });
    local.stop();
  }
  const std::vector<Outcome>& inproc = inproc_outcomes;

  // ---- checks ----
  std::int64_t sent = 0, ok = 0;
  for (const Outcome& o : wire) {
    sent += o.sent;
    ok += o.ok;
  }
  {
    runtime::CompiledGraph reference =
        runtime::load_graph(artifact, /*pooled=*/false);
    bool identical = true;
    std::size_t kept = 0;
    for (const std::vector<Outcome>* outcomes : {&wire, &inproc}) {
      for (const Outcome& o : *outcomes) {
        identical = identical && o.ok == o.sent;
        for (const auto& [sample, logits] : o.kept) {
          identical = identical &&
                      matches_single_sample_forwards(
                          reference, images.data() + sample * kSampleNumel, 1,
                          logits.data());
          ++kept;
        }
      }
    }
    checks.expect(identical && kept > 0,
                  "wire phase: responses differ from serial single-sample "
                  "forwards of a copy-loaded graph");
    const auto u = [](std::int64_t v) { return static_cast<std::uint64_t>(v); };
    checks.expect(u(sent) == u(ok) && u(ok) == after.requests &&
                      after.requests == transport.requests &&
                      transport.requests == transport.responses,
                  "wire phase: counts do not balance: sent " +
                      std::to_string(sent) + ", ok " + std::to_string(ok) +
                      ", shard requests " + std::to_string(after.requests) +
                      ", transport requests " +
                      std::to_string(transport.requests) + ", responses " +
                      std::to_string(transport.responses));
  }

  // Serial replica forwards at batch 1 and 2 bracket the observed mean
  // batch, the forward time queueing is measured against.
  const double batch_mean =
      shard.batches > 0 ? static_cast<double>(shard.requests) /
                              static_cast<double>(shard.batches)
                        : 0.0;
  runtime::CompiledGraph replica =
      runtime::load_graph_mmap(artifact, /*pooled=*/false);
  const double forward1 = forward_ms(replica, images.data(), 1, 200);
  const double forward2 = forward_ms(replica, images.data(), 2, 200);
  const double forward_at_mean =
      forward1 + (forward2 - forward1) * std::max(0.0, batch_mean - 1.0);

  const double wire_ms = span_median(wire, "serve.wire");
  const double inproc_ms = span_median(inproc, "serve.inproc");
  std::vector<const Tracer*> tracers;
  for (const std::vector<Outcome>* outcomes : {&wire, &inproc}) {
    for (const Outcome& o : *outcomes) tracers.push_back(&o.tracer);
  }
  write_chrome_trace(trace_file, tracers);
  std::cerr << "wire phase: " << connections << " connections, " << sent
            << " requests at " << kOfferedPerSecond << "/s, p50 from due "
            << median(merged(wire, &Outcome::latency_ms)) << " ms, "
            << shard.batches << " batches\n";
  return {
      {"serve.start_ms", median(start_ms)},
      {"serve.wire_ms", wire_ms},
      {"serve.inproc_ms", inproc_ms},
      {"serve.transport_ms", wire_ms - inproc_ms},
      {"serve.queue_ms", inproc_ms - forward_at_mean},
      {"serve.batch_mean", batch_mean},
      {"serve.timer_flush_share",
       shard.batches > 0 ? static_cast<double>(shard.timer_flushes) /
                               static_cast<double>(shard.batches)
                         : 0.0},
      {"serve.generator_lag_ms",
       percentile(merged(wire, &Outcome::lag_ms), 0.99)},
  };
}

}  // namespace csqbench
