// train-csq: the joint phase of Algorithm 1 followed by finalize, on a
// ResNet-20 (width 8) over the synthetic CIFAR-like set, data-parallel.
//
// The timed section is one whole joint phase: the temperature schedule runs
// from beta0 to beta_max across its epochs, so the budget regularizer prunes
// and regrows bits inside the run. Its length follows --seconds (see
// joint_epochs), never the measured speed, so every run does the same work.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "common.h"
#include "core/budget.h"
#include "core/csq_weight.h"
#include "core/gate.h"
#include "data/dataloader.h"
#include "data/synthetic.h"
#include "nn/models.h"
#include "nn/softmax_ce.h"
#include "opt/data_parallel.h"
#include "opt/lr_schedule.h"
#include "opt/sgd.h"
#include "opt/trainer.h"
#include "util/thread_pool.h"

namespace csqbench {
namespace {

using namespace csq;

constexpr std::int64_t kTrainSamples = 1024;  // 16 steps of 64 per epoch
constexpr std::int64_t kTestSamples = 400;
constexpr std::int64_t kBatch = 64;
constexpr std::int64_t kWidth = 8;
constexpr double kTargetBits = 3.0;
constexpr double kLambda = 0.01;
constexpr float kLearningRate = 0.1f;
constexpr int kSetupRepeats = 5;
// Timed steps whose parameters the serial replay must reproduce bit for bit.
constexpr int kCheckedSteps = 3;
// Batches the traced mode replays serially for the layer split.
constexpr int kReplaySteps = 16;
// The finalized average precision must land this close to the target.
constexpr double kPrecisionTolerance = 0.5;
// Test accuracy the finalized model must beat: twice chance on 10 classes.
constexpr float kMinAccuracy = 20.0f;
// The joint phase is split into rounds of this many epochs (80 steps);
// figures are medians over rounds (see Rounds in common.h).
constexpr int kRoundEpochs = 5;
// Highest whole percentile with at least ten steps beyond it in a round.
constexpr double kTailQuantile = 0.87;

// One joint epoch per second of requested run time (16 steps, about a
// second on a 4-core host), and at least 12: shorter schedules anneal beta
// too fast for the precision and accuracy checks to hold.
int joint_epochs(int seconds) { return std::max(12, seconds); }

int train_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

Model build_model(std::uint64_t seed, std::vector<CsqWeightSource*>* sources) {
  Rng rng(seed);
  ModelConfig config;
  config.num_classes = 10;
  config.base_width = kWidth;
  return make_resnet20(config, csq_weight_factory(sources), nullptr, rng);
}

SyntheticConfig data_config(std::uint64_t seed) {
  SyntheticConfig config = SyntheticConfig::cifar_like();
  config.train_samples = kTrainSamples;
  config.test_samples = kTestSamples;
  config.seed = seed;
  return config;
}

SgdConfig sgd_config() {
  SgdConfig config;
  config.learning_rate = kLearningRate;
  config.momentum = 0.9f;
  config.weight_decay = 5e-4f;
  return config;
}

// Everything the training loop needs, built in the timed set-up. Never
// moved: the trainer keeps a reference to the model.
struct TrainState {
  SyntheticDataset data;
  std::vector<CsqWeightSource*> sources;
  Model model;
  std::vector<CsqWeightSource*> replica_sources;
  std::unique_ptr<DataParallelTrainer> trainer;
  std::unique_ptr<Sgd> sgd;
  std::unique_ptr<DataLoader> loader;

  TrainState(std::uint64_t seed, int workers) {
    data = make_synthetic(data_config(seed));
    model = build_model(seed + 1, &sources);
    DataParallelConfig dp;
    dp.workers = workers;
    trainer = std::make_unique<DataParallelTrainer>(
        model,
        [seed] {
          std::vector<CsqWeightSource*> unused;
          return build_model(seed + 1, &unused);
        },
        dp);
    trainer->for_each_replica([this](Model& replica) {
      for (const QuantLayer& layer : replica.quant_layers()) {
        if (auto* source = dynamic_cast<CsqWeightSource*>(layer.source)) {
          replica_sources.push_back(source);
        }
      }
    });
    sgd = std::make_unique<Sgd>(model.arena(), sgd_config());
    loader = std::make_unique<DataLoader>(data.train, kBatch, /*shuffle=*/true,
                                          Rng(seed + 2));
  }

  void set_beta(float beta) {
    for (CsqWeightSource* source : sources) source->set_beta(beta);
    for (CsqWeightSource* source : replica_sources) source->set_beta(beta);
  }
};

// Codes reachable as sum over active bits b of s_b * 2^b, s_b in {-1,0,1}:
// the finalized values a layer with these active bits can hold.
std::vector<bool> reachable_codes(const std::array<bool, 8>& active) {
  std::vector<bool> reachable(511, false);  // code + 255
  reachable[255] = true;
  for (int b = 0; b < 8; ++b) {
    if (!active[static_cast<std::size_t>(b)]) continue;
    std::vector<bool> next(511, false);
    for (int c = -255; c <= 255; ++c) {
      if (!reachable[static_cast<std::size_t>(c + 255)]) continue;
      for (const int s : {-1, 0, 1}) {
        const int v = c + s * (1 << b);
        if (v >= -255 && v <= 255) next[static_cast<std::size_t>(v + 255)] = true;
      }
    }
    reachable.swap(next);
  }
  return reachable;
}

std::array<bool, 8> active_bits(CsqWeightSource& source) {
  std::vector<Parameter*> params;
  source.collect_parameters(params);
  std::array<bool, 8> active{};
  for (Parameter* p : params) {
    const std::string& name = p->name;
    if (name.size() >= 3 && name.compare(name.size() - 3, 3, ".mB") == 0) {
      for (int b = 0; b < 8; ++b) {
        active[static_cast<std::size_t>(b)] = p->value[b] >= 0.0f;
      }
    }
  }
  return active;
}

void check_finalized(TrainState& state, Checks& checks) {
  for (std::size_t l = 0; l < state.sources.size(); ++l) {
    CsqWeightSource& source = *state.sources[l];
    const WeightCodes codes = source.finalized_codes();
    const Tensor& weight = source.weight(/*training=*/false);
    const float step = codes.scale / 255.0f;
    bool exact = static_cast<std::int64_t>(codes.codes.size()) == weight.numel();
    for (std::int64_t i = 0; exact && i < weight.numel(); ++i) {
      exact = weight[i] ==
              step * static_cast<float>(codes.codes[static_cast<std::size_t>(i)]);
    }
    checks.expect(exact, "train-csq: layer " + std::to_string(l) +
                             " weight != scale/255 * code");

    const std::array<bool, 8> active = active_bits(source);
    const int active_count =
        static_cast<int>(std::count(active.begin(), active.end(), true));
    checks.expect(active_count == codes.bits,
                  "train-csq: layer " + std::to_string(l) +
                      " reports a precision other than its active bits");
    const std::vector<bool> reachable = reachable_codes(active);
    bool within = true;
    for (const std::int32_t code : codes.codes) {
      within = within && code >= -255 && code <= 255 &&
               reachable[static_cast<std::size_t>(code + 255)];
    }
    checks.expect(within, "train-csq: layer " + std::to_string(l) +
                              " has a code outside its active bits");
  }
}

}  // namespace

int run_train_csq(const Args& args) {
  const int workers = train_workers();
  const int epochs = joint_epochs(args.seconds);
  Checks checks;
  Tracer tracer(args.trace);

  // ---- set-up, repeated; the last one is kept for the run ----
  std::vector<double> setup_s;
  std::unique_ptr<TrainState> state;
  for (int r = 0; r < kSetupRepeats; ++r) {
    state.reset();
    const auto start = Clock::now();
    state = std::make_unique<TrainState>(args.seed, workers);
    setup_s.push_back(ms_between(start, Clock::now()) / 1e3);
  }

  // ---- timed joint phase ----
  const TemperatureSchedule betas(1.0f, 200.0f, epochs);
  const CosineSchedule rates(kLearningRate, epochs);
  // In the traced mode every other step records spans, so the run also
  // measures what the spans cost (trace.overhead_pct).
  bool traced = false;
  int step_span = -1;
  const std::function<void()> before_step = [&] {
    const int span = traced ? tracer.begin("core.budget", step_span) : -1;
    apply_budget_regularizer(state->sources, kLambda, kTargetBits);
    tracer.end(span);
  };
  std::vector<double> step_ms;
  Rounds rounds(std::max(1, epochs / kRoundEpochs));
  std::vector<double> traced_op_ms, untraced_op_ms;
  std::vector<Batch> replay;  // the first timed batches, for the checks
  std::vector<float> checked_values;
  std::vector<double> precision_trajectory{average_precision(state->sources)};
  const int recorded = args.trace ? std::max(kCheckedSteps, kReplaySteps)
                                  : kCheckedSteps;
  Batch batch;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    state->sgd->set_learning_rate(rates.at_epoch(epoch));
    state->set_beta(betas.at_epoch(epoch));
    state->loader->start_epoch();
    for (;;) {
      traced = args.trace && step_ms.size() % 2 == 1;
      const auto op_start = Clock::now();
      const bool more = state->loader->next(batch);
      const auto step_start = Clock::now();
      if (!more) break;
      step_span = traced ? tracer.begin("opt.step") : -1;
      state->trainer->train_step(batch, *state->sgd, before_step);
      tracer.end(step_span);
      const auto step_end = Clock::now();
      if (traced) tracer.add("data.batch", op_start, step_start);
      step_ms.push_back(ms_between(step_start, step_end));
      const double op_ms = ms_between(op_start, Clock::now());
      (traced ? traced_op_ms : untraced_op_ms).push_back(op_ms);
      // Latency is the step alone; throughput counts the data fetch too.
      rounds.add(epoch / kRoundEpochs, step_ms.back(),
                 static_cast<double>(batch.labels.size()), op_ms);

      if (static_cast<int>(replay.size()) < recorded) replay.push_back(batch);
      if (static_cast<int>(step_ms.size()) == kCheckedSteps) {
        const ParameterArena& arena = state->model.arena();
        checked_values.assign(arena.values(), arena.values() + arena.size());
      }
    }
    precision_trajectory.push_back(average_precision(state->sources));
  }
  const double rss_mb = peak_rss_mb();
  const std::int64_t attempted = static_cast<std::int64_t>(step_ms.size());

  // ---- checks, outside the timed section ----
  {
    // The same first batches replayed with one worker on the same shard
    // grid must reproduce the parameters byte for byte.
    std::vector<CsqWeightSource*> sources;
    Model serial = build_model(args.seed + 1, &sources);
    DataParallelConfig dp;
    dp.workers = 1;
    DataParallelTrainer trainer(serial, nullptr, dp);
    Sgd sgd(serial.arena(), sgd_config());
    sgd.set_learning_rate(rates.at_epoch(0));
    for (CsqWeightSource* source : sources) source->set_beta(betas.at_epoch(0));
    for (int s = 0; s < kCheckedSteps; ++s) {
      trainer.train_step(replay[static_cast<std::size_t>(s)], sgd, [&] {
        apply_budget_regularizer(sources, kLambda, kTargetBits);
      });
    }
    const ParameterArena& arena = serial.arena();
    checks.expect(static_cast<std::int64_t>(checked_values.size()) ==
                          arena.size() &&
                      std::memcmp(checked_values.data(), arena.values(),
                                  checked_values.size() * sizeof(float)) == 0,
                  "train-csq: parameters after the first steps differ from a "
                  "serial replay");
  }
  for (CsqWeightSource* source : state->sources) source->finalize();
  check_finalized(*state, checks);
  const double final_bits = average_precision(state->sources);
  checks.expect(std::fabs(final_bits - kTargetBits) <= kPrecisionTolerance,
                "train-csq: finalized average precision " +
                    std::to_string(final_bits) + " is not within " +
                    std::to_string(kPrecisionTolerance) + " of the target");
  const float accuracy = evaluate_accuracy(state->model, state->data.test);
  checks.expect(accuracy > kMinAccuracy,
                "train-csq: finalized test accuracy " +
                    std::to_string(accuracy) + "% is not above chance");
  std::cerr << "train-csq: workers " << workers << ", " << epochs
            << " epochs, " << attempted << " steps, precision";
  for (const double bits : precision_trajectory) std::cerr << " " << bits;
  std::cerr << " -> finalized " << final_bits << " bits, accuracy "
            << accuracy << "%\n";

  Report report;
  if (!args.trace) {
    report.add("setup_s", median(setup_s), "s");
    report.add("p50_ms", rounds.quantile_ms(0.5), "ms");
    report.add("tail_ms", rounds.quantile_ms(kTailQuantile), "ms");
    report.add("throughput_per_s", rounds.throughput_per_s(), "1/s");
    report.add("peak_rss_mb", rss_mb, "MiB");
  } else {
    // Serial replay of the recorded batches, one thread, split by layer.
    std::vector<CsqWeightSource*> sources;
    Model serial = build_model(args.seed + 1, &sources);
    Sgd sgd(serial.arena(), sgd_config());
    SoftmaxCrossEntropy loss;
    for (CsqWeightSource* source : sources) source->set_beta(betas.at_epoch(0));
    SerialExecutionGuard serial_only;
    std::vector<double> step_sum_ms;
    for (const Batch& b : replay) {
      serial.zero_grad();
      const int root = tracer.begin("serial.step");
      {
        ScopedSpan span(tracer, "quant.materialize", root);
        for (CsqWeightSource* source : sources) source->weight(true);
      }
      const int fwd = tracer.begin("nn.forward", root);
      Tensor logits = serial.forward(b.images, /*training=*/true);
      tracer.end(fwd);
      loss.forward(logits, b.labels);
      const int bwd = tracer.begin("nn.backward", root);
      serial.backward(loss.backward());
      tracer.end(bwd);
      {
        ScopedSpan span(tracer, "core.budget.serial", root);
        apply_budget_regularizer(sources, kLambda, kTargetBits);
      }
      {
        ScopedSpan span(tracer, "opt.sgd", root);
        sgd.step();
      }
      tracer.end(root);
    }
    const double serial_ms = tracer.median_ms("quant.materialize") +
                             tracer.median_ms("nn.forward") +
                             tracer.median_ms("nn.backward") +
                             tracer.median_ms("core.budget.serial") +
                             tracer.median_ms("opt.sgd");
    const double step_median = tracer.median_ms("opt.step");
    add_per_layer(
        report,
        {{"data.batch_ms", tracer.median_ms("data.batch")},
         {"opt.step_ms", step_median},
         {"core.budget_ms", tracer.median_ms("core.budget")},
         {"nn.forward_ms", tracer.median_ms("nn.forward")},
         {"nn.backward_ms", tracer.median_ms("nn.backward")},
         {"quant.materialize_ms", tracer.median_ms("quant.materialize")},
         {"opt.sgd_ms", tracer.median_ms("opt.sgd")},
         {"opt.dp_efficiency", serial_ms / (workers * step_median)},
         {"trace.overhead_pct",
          100.0 * (median(traced_op_ms) / median(untraced_op_ms) - 1.0)}});
    write_chrome_trace(args.trace_file, {&tracer});
  }
  report.print(checks.ok(), attempted, 0);
  return 0;
}

}  // namespace csqbench
