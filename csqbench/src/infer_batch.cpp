// infer-batch: offline scoring of batches of 32 on the serving model,
// mmap-loaded from its v5 artifact and run serially. The runtime and the
// integer GEMM kernels do the work; there is no server, no wire and no
// training. Serial, not pooled: a pooled forward crosses a pool barrier per
// op, and on a host whose vCPUs are stolen by other tenants every barrier
// waits for the slowest vCPU, so pooled timings swing with the host far
// more than with the program (see README).
#include <unistd.h>

#include <cstdio>
#include <iostream>
#include <optional>
#include <vector>

#include "common.h"
#include "runtime/graph_artifact.h"
#include "serving.h"

namespace csqbench {
namespace {

using namespace csq;

constexpr std::int64_t kBatch = 32;
constexpr std::int64_t kBatchesInPool = 16;  // distinct input batches, cycled
constexpr int kSetupRepeats = 15;
// Every this many batches the logits are kept for the bit-identity check.
constexpr std::int64_t kCheckEvery = 64;
// The run is split into rounds of this length; figures are medians over
// rounds (see Rounds in common.h).
constexpr int kRoundSeconds = 5;
// Highest whole percentile with at least ten batches beyond it in a round
// (a round holds at least 125 batches while a batch takes under 40 ms).
constexpr double kTailQuantile = 0.92;
constexpr int kReplayRepeats = 15;
// Length of the traced run's wire-serving phase.
constexpr int kWireSeconds = 10;

}  // namespace

int run_infer_batch(const Args& args) {
  const std::string artifact = args.work_dir + "/infer-batch-" +
                               std::to_string(::getpid()) + ".csqm";
  write_serving_artifact(artifact, args.seed);
  const std::vector<float> images =
      sample_images(args.seed + 11, kBatch * kBatchesInPool);
  std::vector<Tensor> batches;
  for (std::int64_t b = 0; b < kBatchesInPool; ++b) {
    const float* first = images.data() + b * kBatch * kSampleNumel;
    batches.push_back(Tensor::from_data(
        {kBatch, 3, kImageSide, kImageSide},
        std::vector<float>(first, first + kBatch * kSampleNumel)));
  }
  Checks checks;
  Tracer tracer(args.trace);

  // ---- set-up, repeated: mmap load, prepare + first forward ----
  std::vector<double> setup_s, load_ms, prepare_ms;
  std::optional<runtime::CompiledGraph> graph;
  for (int r = 0; r < kSetupRepeats; ++r) {
    graph.reset();
    const auto start = Clock::now();
    graph.emplace(runtime::load_graph_mmap(artifact, /*pooled=*/false));
    const auto loaded = Clock::now();
    graph->prepare(kBatch);
    graph->forward(batches[0]);
    const auto ready = Clock::now();
    setup_s.push_back(ms_between(start, ready) / 1e3);
    load_ms.push_back(ms_between(start, loaded));
    prepare_ms.push_back(ms_between(loaded, ready));
  }

  // ---- timed scoring loop ----
  Rounds rounds(std::max(1, args.seconds / kRoundSeconds));
  const double round_ms = 1e3 * args.seconds / rounds.count();
  std::int64_t attempted = 0;
  std::vector<double> traced_ms, untraced_ms;
  std::vector<std::pair<std::int64_t, std::vector<float>>> kept;
  const auto loop_start = Clock::now();
  const auto deadline = loop_start + std::chrono::seconds(args.seconds);
  std::int64_t failed = 0;
  for (std::int64_t i = 0; Clock::now() < deadline; ++i) {
    const std::int64_t which = i % kBatchesInPool;
    // In the traced mode every other batch records a span, so the run also
    // measures what the spans cost (trace.overhead_pct).
    const bool traced = args.trace && i % 2 == 1;
    const auto start = Clock::now();
    Tensor logits = graph->forward(batches[static_cast<std::size_t>(which)]);
    const auto end = Clock::now();
    if (traced) tracer.add("runtime.forward", start, end);
    ++attempted;
    if (logits.numel() != kBatch * kLogits) {
      ++failed;
    } else if (i % kCheckEvery == 0) {
      kept.emplace_back(which, std::vector<float>(logits.data(),
                                                  logits.data() + logits.numel()));
    }
    const double busy_ms = ms_between(start, Clock::now());
    rounds.add(static_cast<int>(ms_between(loop_start, start) / round_ms),
               ms_between(start, end), kBatch, busy_ms);
    (traced ? traced_ms : untraced_ms).push_back(busy_ms);
  }
  const double rss_mb = peak_rss_mb();

  // ---- checks, outside the timed section ----
  {
    runtime::CompiledGraph reference =
        runtime::load_graph(artifact, /*pooled=*/false);
    bool identical = true;
    for (const auto& [which, logits] : kept) {
      identical = identical &&
                  matches_single_sample_forwards(
                      reference, images.data() + which * kBatch * kSampleNumel,
                      kBatch, logits.data());
    }
    checks.expect(identical && !kept.empty(),
                  "infer-batch: pooled batch logits differ from serial "
                  "single-sample forwards of a copy-loaded graph");
    check_dequantized_weights(*graph, artifact, checks);
  }
  std::cerr << "infer-batch: " << attempted << " batches of " << kBatch
            << ", " << kept.size() << " checked, " << checks.count()
            << " checks\n";

  Report report;
  if (!args.trace) {
    report.add("setup_s", median(setup_s), "s");
    report.add("p50_ms", rounds.quantile_ms(0.5), "ms");
    report.add("tail_ms", rounds.quantile_ms(kTailQuantile), "ms");
    report.add("throughput_per_s", rounds.throughput_per_s(), "1/s");
    report.add("peak_rss_mb", rss_mb, "MiB");
  } else {
    const double forward = tracer.median_ms("runtime.forward");
    const std::map<std::string, double> gemm =
        replay_gemm_ms(*graph, kBatch, kReplayRepeats);
    double gemm_total = 0.0;
    std::vector<std::pair<std::string, double>> measured;
    for (const auto& [kernel, ms] : gemm) {
      measured.emplace_back("tensor.gemm_" + kernel + "_ms", ms);
      gemm_total += ms;
    }
    measured.emplace_back("runtime.forward_ms", forward);
    measured.emplace_back("runtime.outside_gemm_ms", forward - gemm_total);
    measured.emplace_back("runtime.load_ms", median(load_ms));
    measured.emplace_back("runtime.prepare_ms", median(prepare_ms));
    measured.emplace_back(
        "runtime.workspace_mb",
        static_cast<double>(graph->workspace_bytes()) / (1024.0 * 1024.0));
    measured.emplace_back("trace.overhead_pct",
                          100.0 * (median(traced_ms) / median(untraced_ms) - 1.0));
    const std::vector<std::pair<std::string, double>> wire =
        measure_wire_layers(artifact, args.seed, kWireSeconds,
                            args.work_dir + "/trace-wire-" +
                                std::to_string(args.seed) + ".json",
                            checks);
    measured.insert(measured.end(), wire.begin(), wire.end());
    add_per_layer(report, measured);
    write_chrome_trace(args.trace_file, {&tracer});
  }
  graph.reset();
  std::remove(artifact.c_str());
  report.print(checks.ok(), attempted, failed);
  return 0;
}

}  // namespace csqbench
