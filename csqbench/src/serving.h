// The serving model shared by infer-batch and serve-wire: a ResNet-20
// (width 16) finalized from CSQ sources with a fixed per-layer precision
// mix, lowered, calibrated and saved as a v5 artifact, plus the helpers
// both workloads use to time and check it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "runtime/compiled_graph.h"
#include "tensor/tensor.h"

namespace csqbench {

inline constexpr std::int64_t kImageSide = 16;
inline constexpr std::int64_t kSampleNumel = 3 * kImageSide * kImageSide;
inline constexpr int kLogits = 10;

// Input preparation, not timed: builds the model (weights drawn from
// `seed`, precision mix fixed), lowers and calibrates it on synthetic
// images and saves the artifact at `path` (fsync'd). Prints the per-layer
// bits and kernels on stderr.
void write_serving_artifact(const std::string& path, std::uint64_t seed);

// `count` synthetic CIFAR-like test images (3x16x16), flat, from `seed`.
std::vector<float> sample_images(std::uint64_t seed, std::int64_t count);

// Kernel time of one serial forward at `batch`, measured from outside the
// graph: each lowered layer's PackedIntWeights::gemm replayed on its serving
// shape the way a serial graph runs it (one GEMM per sample for a conv),
// summed per selected kernel (ms).
std::map<std::string, double> replay_gemm_ms(
    const csq::runtime::CompiledGraph& graph, std::int64_t batch, int repeats);

// True when every row of `logits` (count x kLogits) equals, bit for bit,
// a single-sample forward of the matching input on `reference`.
bool matches_single_sample_forwards(csq::runtime::CompiledGraph& reference,
                                    const float* inputs, std::int64_t count,
                                    const float* logits);

// Checks every lowered layer of `graph`: dequantized_weights() must equal
// step * code recomputed from the artifact's own layer records.
void check_dequantized_weights(const csq::runtime::CompiledGraph& graph,
                               const std::string& artifact_path,
                               Checks& checks);

// The wire-serving phase of the traced infer-batch run (serve_wire.cpp):
// an open loop of `seconds` over the loopback transport and its in-process
// replay on the artifact's server. Returns the serve.* per-layer metrics,
// writes the request spans to `trace_file` and adds the phase's checks.
std::vector<std::pair<std::string, double>> measure_wire_layers(
    const std::string& artifact, std::uint64_t seed, int seconds,
    const std::string& trace_file, Checks& checks);

// Median forward time (ms) of `graph` at `batch` over `repeats` calls.
double forward_ms(csq::runtime::CompiledGraph& graph, const float* inputs,
                  std::int64_t batch, int repeats);

}  // namespace csqbench
