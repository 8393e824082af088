#include "serving.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <iostream>
#include <sstream>

#include "core/csq_weight.h"
#include "core/model_io.h"
#include "data/synthetic.h"
#include "nn/models.h"
#include "runtime/graph_artifact.h"
#include "runtime/packed_weights.h"
#include "tensor/gemm.h"

namespace csqbench {
namespace {

using namespace csq;

// The precision mix is fixed (its own seed, independent of --seed) so every
// run serves the same kernels; --seed changes only weights and inputs.
constexpr std::uint64_t kMixSeed = 2023;
// Layer precisions before the shuffle. -4 is a 4-bit layer whose top
// selected bit plane is unused (its codes stay within +/-7), the case the
// nibble kernel serves; +4 and above use the full span and run s8u8; 2 and
// 3 bits run bit-serial.
const std::vector<int> kMix = {2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3,
                               3, 3, 3, 3, -4, -4, -4, -4, 6, 6, 6};

SyntheticConfig image_config(std::uint64_t seed, std::int64_t count) {
  SyntheticConfig config = SyntheticConfig::cifar_like();
  config.train_samples = 1;
  config.test_samples = count;
  config.seed = seed;
  return config;
}

// Switches one bit plane of a CSQ source off in both signs.
void clear_bit_plane(WeightSource& source, int bit) {
  std::vector<Parameter*> params;
  source.collect_parameters(params);
  const std::string mp = ".mp" + std::to_string(bit);
  const std::string mn = ".mn" + std::to_string(bit);
  for (Parameter* p : params) {
    const std::string& name = p->name;
    const auto ends_with = [&name](const std::string& suffix) {
      return name.size() >= suffix.size() &&
             name.compare(name.size() - suffix.size(), suffix.size(),
                          suffix) == 0;
    };
    if (ends_with(mp) || ends_with(mn)) {
      p->value.fill(-1.0f);
      p->mark_updated();
    }
  }
}

}  // namespace

void write_serving_artifact(const std::string& path, std::uint64_t seed) {
  std::vector<int> mix = kMix;
  Rng mix_rng(kMixSeed);
  for (std::size_t i = mix.size(); i > 1; --i) {
    std::swap(mix[i - 1], mix[mix_rng.uniform_int(static_cast<std::uint32_t>(i))]);
  }
  std::size_t next = 0;
  std::vector<CsqWeightSource*> sources;
  WeightSourceFactory factory =
      [&](const std::string& name, std::vector<std::int64_t> shape,
          std::int64_t fan_in, Rng& rng) -> WeightSourcePtr {
    const int bits = mix[next++ % mix.size()];
    CsqWeightOptions options;
    options.fixed_precision = bits < 0 ? -bits : bits;
    auto source = std::make_unique<CsqWeightSource>(name, std::move(shape),
                                                    fan_in, options, rng);
    if (bits < 0) clear_bit_plane(*source, CsqWeightSource::kBits - 1);
    sources.push_back(source.get());
    return source;
  };
  Rng rng(seed);
  ModelConfig config;
  config.base_width = 16;
  Model model = make_resnet20(config, factory, nullptr, rng);
  for (CsqWeightSource* source : sources) source->finalize();

  runtime::LowerOptions options;
  options.in_height = kImageSide;
  options.in_width = kImageSide;
  runtime::CompiledGraph graph = runtime::lower(model, options);
  const std::vector<float> calib = sample_images(seed + 7, 64);
  graph.calibrate(Tensor::from_data({64, 3, kImageSide, kImageSide}, calib));
  if (!runtime::save_graph(path, graph)) {
    throw std::runtime_error("could not write the serving artifact " + path);
  }
  std::cerr << "serving model: " << model.average_bits()
            << " average bits; layers:";
  for (const auto& layer : graph.layers()) {
    std::cerr << " " << layer.name << "=" << layer.bits << "b/" << layer.kernel;
  }
  std::cerr << "\n";
}

std::vector<float> sample_images(std::uint64_t seed, std::int64_t count) {
  const SyntheticDataset data = make_synthetic(image_config(seed, count));
  const Tensor& images = data.test.images();
  return std::vector<float>(images.data(), images.data() + images.numel());
}

std::map<std::string, double> replay_gemm_ms(
    const runtime::CompiledGraph& graph, std::int64_t batch, int repeats) {
  // Serving shape of each conv layer: its output positions per sample, from
  // the op listing ("conv2d <name> <in> -> eN:i32(CxHxW) [...]").
  std::map<std::string, std::int64_t> positions;
  std::istringstream listing(graph.describe());
  std::string line;
  while (std::getline(listing, line)) {
    if (line.rfind("conv2d ", 0) != 0) continue;
    std::istringstream fields(line);
    std::string kind, name, in, arrow, out;
    fields >> kind >> name >> in >> arrow >> out;
    std::int64_t c = 0, h = 0, w = 0;
    const std::size_t open = out.find('(');
    if (open == std::string::npos ||
        std::sscanf(out.c_str() + open, "(%ldx%ldx%ld)", &c, &h, &w) != 3) {
      throw std::runtime_error("unexpected op listing: " + line);
    }
    positions[name] = h * w;
  }

  const auto& layers = graph.layers();
  const auto& weights = graph.layer_weight_views();
  std::map<std::string, double> total_ms;
  std::vector<std::uint8_t> operand;
  std::vector<std::int32_t> acc;
  IntGemmScratch scratch;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const runtime::PackedIntWeights& w = *weights[l];
    const auto found = positions.find(layers[l].name);
    const bool conv = found != positions.end();
    const std::int64_t n = conv ? found->second : batch;
    operand.assign(static_cast<std::size_t>(w.cols() * n), 0);
    for (std::size_t i = 0; i < operand.size(); ++i) {
      operand[i] = static_cast<std::uint8_t>((i * 131u + 7u) & 0xffu);
    }
    acc.assign(static_cast<std::size_t>(w.rows() * n), 0);
    std::vector<double> samples;
    for (int r = 0; r < repeats; ++r) {
      const auto start = Clock::now();
      if (conv) {
        for (std::int64_t b = 0; b < batch; ++b) {
          w.gemm(Trans::no, n, operand.data(), n, acc.data(), n,
                 /*pooled=*/false);
        }
      } else {
        w.gemm(Trans::yes, batch, operand.data(), w.cols(), acc.data(), batch,
               /*pooled=*/false, &scratch);
      }
      samples.push_back(ms_between(start, Clock::now()));
    }
    total_ms[layers[l].kernel] += median(samples);
  }
  return total_ms;
}

bool matches_single_sample_forwards(runtime::CompiledGraph& reference,
                                    const float* inputs, std::int64_t count,
                                    const float* logits) {
  for (std::int64_t i = 0; i < count; ++i) {
    const Tensor input = Tensor::from_data(
        {1, 3, kImageSide, kImageSide},
        std::vector<float>(inputs + i * kSampleNumel,
                           inputs + (i + 1) * kSampleNumel));
    const Tensor out = reference.forward(input);
    if (out.numel() != kLogits ||
        std::memcmp(out.data(), logits + i * kLogits,
                    kLogits * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

void check_dequantized_weights(const runtime::CompiledGraph& graph,
                               const std::string& artifact_path,
                               Checks& checks) {
  const std::vector<QuantizedLayerExport> records =
      load_quantized_model(artifact_path);
  checks.expect(records.size() == graph.layers().size(),
                "artifact layer records != lowered layers");
  for (const QuantizedLayerExport& record : records) {
    const Tensor weights = graph.dequantized_weights(record.name);
    bool exact =
        weights.numel() == static_cast<std::int64_t>(record.codes.size());
    const float step = record.step();
    for (std::int64_t i = 0; exact && i < weights.numel(); ++i) {
      exact = weights[i] ==
              step * static_cast<float>(record.codes[static_cast<std::size_t>(i)]);
    }
    checks.expect(exact, "layer " + record.name +
                             ": dequantized weights != step * code");
  }
}

double forward_ms(runtime::CompiledGraph& graph, const float* inputs,
                  std::int64_t batch, int repeats) {
  const Tensor input = Tensor::from_data(
      {batch, 3, kImageSide, kImageSide},
      std::vector<float>(inputs, inputs + batch * kSampleNumel));
  graph.forward(input);  // warm
  std::vector<double> samples;
  for (int r = 0; r < repeats; ++r) {
    const auto start = Clock::now();
    const Tensor out = graph.forward(input);
    samples.push_back(ms_between(start, Clock::now()));
  }
  return median(samples);
}

}  // namespace csqbench
